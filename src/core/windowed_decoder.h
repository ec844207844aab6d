#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>

#include "core/lf_decoder.h"

namespace lfbs::core {

/// Streaming decode for long captures (extension beyond the paper).
///
/// The base decoder assumes quasi-stationary stream phases: valid for the
/// paper's short (~1 ms) epochs, but over the hundreds of milliseconds a
/// 0.5 kbps frame needs, *relative* crystal drift slides tags' edge
/// lattices across each other — colliding pairs drift apart mid-epoch and
/// faster tags sweep through slower tags' phases, corrupting long bursts.
///
/// The windowed decoder bounds that: it chops the capture into windows
/// short enough that every configuration (collided or separate) is
/// quasi-static, decodes each window independently, and stitches the
/// per-window streams into end-to-end threads using three continuity keys:
///   - bitrate,
///   - lattice phase (the predicted next boundary of the thread),
///   - the edge vector (the tag's channel coefficient, stable over the
///     whole capture) — which also resolves per-window polarity, since a
///     window that opens mid-stream may start on a falling edge and decode
///     inverted.
/// Gaps between windows (a tag holding its level across a cut, or a window
/// where its group was lost) are filled by timing: the number of missing
/// bits falls out of the boundary positions, and their value is the
/// thread's last level.
///
/// The phases are exposed separately so the concurrent runtime
/// (src/runtime) and the sharded decoder (src/net/federation) run the same
/// pipeline as decode(): a WindowAssembler cuts the sample stream into the
/// window lattice, decode_window() is pure and safe to call from any thread
/// or process, and a WindowStitcher consumes window results strictly in
/// window order.
struct WindowedDecoderConfig {
  DecoderConfig decoder;
  /// Processing window. Must be long enough that the slowest expected tag
  /// shows min_edges edges per window, short enough that relative drift
  /// within a window stays inside the grouping tolerance.
  Seconds window = 20e-3;
  /// Lattice-phase continuity tolerance at a stitch, in samples, plus a
  /// drift allowance proportional to the gap.
  double phase_tolerance = 8.0;
  /// Edge-vector continuity: |e_s - (+/-)e_t| must be below this fraction
  /// of |e_t|.
  double vector_tolerance = 0.4;
};

/// One cell of the window lattice, ready to decode.
struct Window {
  /// Lattice position: the window starts at capture sample
  /// index × window_samples.
  std::size_t index = 0;
  /// The whole of a capture of at most 1.5 windows, decoded in one piece
  /// by the plain decoder instead of windowed.
  bool whole_capture = false;
  signal::SampleBuffer samples;
};

/// Serial half of the windowed decode: consumes per-window DecodeResults
/// strictly in window order and assembles end-to-end threads via the three
/// continuity keys. Not thread-safe; the runtime funnels all worker output
/// through one stitcher thread.
class WindowStitcher {
 public:
  WindowStitcher(const WindowedDecoderConfig& config, SampleRate sample_rate);

  /// Folds in the decode of the window starting at absolute sample
  /// `offset_samples`. Windows must arrive in capture order.
  void add_window(DecodeResult window, std::size_t offset_samples);

  /// Folds in the decode of lattice window `index`, stitched at
  /// index × window_samples. The result of a whole-capture window is
  /// finish()'s output as it stands.
  void add(std::size_t index, bool whole_capture, DecodeResult result);

  /// Emits the stitched threads (trimmed, frame-scanned) together with the
  /// accumulated diagnostics. The stitcher is spent afterwards.
  DecodeResult finish();

  /// Number of windows folded in so far.
  std::size_t windows() const { return windows_; }

 private:
  /// An end-to-end stream under assembly.
  struct Thread {
    BitRate rate = 0.0;
    double period = 0.0;          ///< samples per bit (refined from anchors)
    bool period_refined = false;  ///< true once measured across a stitch
    Complex edge_vector;
    double start_abs = 0.0;       ///< anchor position in capture samples
    double anchor_pos = 0.0;      ///< last stitched stream's measured anchor
    std::size_t bits_at_anchor = 0;
    double next_boundary = 0.0;   ///< predicted boundary after the last bit
    bool last_level = false;
    bool collided = false;
    std::vector<bool> bits;
    // Soft-decision aggregation: per-fragment confidence components,
    // weighted by fragment bit count, folded into one per-thread
    // DecodeConfidence at finish().
    double conf_weight = 0.0;
    double snr_sum = 0.0;
    double edge_snr_sum = 0.0;
    double edge_conf_sum = 0.0;
    double margin_sum = 0.0;
    double separation_sum = 0.0;
    std::size_t erasures = 0;
    FallbackStage stage = FallbackStage::kPrimary;
  };

  WindowedDecoderConfig config_;
  double fs_ = 0.0;
  std::size_t windows_ = 0;
  DecodeResult result_;  ///< accumulates diagnostics until finish()
  std::vector<Thread> threads_;
  std::optional<DecodeResult> whole_capture_;
};

class WindowedDecoder {
 public:
  explicit WindowedDecoder(WindowedDecoderConfig config);

  const WindowedDecoderConfig& config() const { return config_; }

  /// Decodes a capture of any length: a WindowAssembler, decode_window()
  /// per window and a WindowStitcher, the pipeline the runtime and the
  /// sharded decoder also run. Short captures (≤ 1.5 windows) fall through
  /// to the plain decoder. One step is serial-only: when the stitched
  /// result of a windowed capture holds no CRC-valid frame, the whole
  /// capture is decoded again with the fallback ladder and that result is
  /// returned if it holds one. The streaming paths match decode() bit for
  /// bit except in that case.
  DecodeResult decode(const signal::SampleBuffer& buffer) const;

  /// Window length in samples at the given rate.
  std::size_t window_samples(SampleRate fs) const;

  /// True when `total_samples` is short enough that decode() would fall
  /// through to the plain (unwindowed) decoder.
  bool is_short_capture(std::size_t total_samples, SampleRate fs) const;

  /// Decodes one window independently of every other window. `slice` holds
  /// the window's samples only; positions in the result are window-local.
  /// Deterministic and thread-safe: the decoder's k-means seed is mixed
  /// with `window_index`, giving every window (and hence every runtime
  /// worker) its own reproducible common::Rng stream regardless of which
  /// thread decodes it or in what order.
  DecodeResult decode_window(const signal::SampleBuffer& slice,
                             std::size_t window_index) const;

  /// Decodes one assembled window: a whole capture with the plain decoder
  /// (base seed, fallback ladder as configured), any other window with
  /// decode_window(samples, index).
  DecodeResult decode_window(const Window& window) const;

  /// The per-window decoder seed: splitmix64 of (seed, window_index).
  static std::uint64_t window_seed(std::uint64_t seed,
                                   std::size_t window_index);

 private:
  WindowedDecoderConfig config_;
};

/// Cuts a sample stream into the decoder's window lattice. The lattice
/// rules live here only:
///   - a jump forward in first_sample is a lost span; it is zero-filled so
///     later samples keep their absolute window positions;
///   - samples before the stream's current end (a rewound chunk) are
///     skipped;
///   - full windows are held back until the stream exceeds 1.5 windows; a
///     stream that never does becomes one whole-capture window at finish();
///   - at finish(), a tail shorter than a quarter window is dropped.
/// Windows reach `sink` in index order, each as soon as it is decided.
class WindowAssembler {
 public:
  using Sink = std::function<void(Window)>;

  /// `decoder` must outlive the assembler.
  WindowAssembler(const WindowedDecoder& decoder, SampleRate fs, Sink sink);

  /// Feeds samples whose first one sits at absolute position
  /// `first_sample`.
  void push(std::uint64_t first_sample, std::span<const Complex> samples);

  /// Ends the stream and emits what is still held. Returns the number of
  /// windows emitted over the whole stream.
  std::size_t finish();

  /// Samples taken from push() (overlaps skipped), and samples zero-filled
  /// into gaps.
  std::uint64_t samples_in() const { return samples_in_; }
  std::uint64_t samples_gap() const { return samples_gap_; }

 private:
  void append(std::span<const Complex> samples);
  void append_zeros(std::uint64_t n);
  void close_window();
  void emit(bool whole_capture, std::vector<Complex> samples);

  const WindowedDecoder& decoder_;
  SampleRate fs_;
  std::size_t window_samples_;
  Sink sink_;
  std::vector<Complex> window_;
  std::vector<std::vector<Complex>> held_;
  std::uint64_t next_expected_ = 0;
  std::size_t next_index_ = 0;
  bool known_long_ = false;
  std::uint64_t samples_in_ = 0;
  std::uint64_t samples_gap_ = 0;
};

}  // namespace lfbs::core
