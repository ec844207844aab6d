#include "protocol/frame.h"

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "protocol/crc.h"

namespace lfbs::protocol {

namespace {

obs::Counter& frames_parsed() {
  static obs::Counter& c = obs::metrics().counter("protocol.frames_parsed");
  return c;
}

obs::Counter& frames_crc_failed() {
  static obs::Counter& c = obs::metrics().counter("protocol.frames_crc_failed");
  return c;
}

const CrcSpec& crc_spec(CrcKind kind) {
  return kind == CrcKind::kCrc5 ? kCrc5Epc : kCrc16Ccitt;
}

}  // namespace

std::vector<bool> build_frame(const std::vector<bool>& payload,
                              const FrameConfig& config) {
  LFBS_CHECK_MSG(payload.size() == config.payload_bits,
                 "payload size does not match frame config");
  std::vector<bool> bits;
  bits.reserve(config.frame_bits());
  bits.push_back(true);  // anchor
  bits.insert(bits.end(), payload.begin(), payload.end());
  const std::vector<bool> protected_bits = bits;  // anchor + payload
  const std::vector<bool> with_crc = config.crc == CrcKind::kCrc5
                                         ? append_crc5(protected_bits)
                                         : append_crc16(protected_bits);
  return with_crc;
}

ParsedFrame parse_frame(const std::vector<bool>& bits,
                        const FrameConfig& config) {
  ParsedFrame out;
  if (bits.size() != config.frame_bits()) return out;
  frames_parsed().add();
  out.anchor_ok = bits.front();
  out.crc_ok = crc_matches(bits, crc_spec(config.crc));
  if (!out.crc_ok) frames_crc_failed().add();
  out.payload.assign(bits.begin() + 1,
                     bits.begin() + 1 + static_cast<std::ptrdiff_t>(
                                            config.payload_bits));
  return out;
}

std::vector<ParsedFrame> parse_stream(const std::vector<bool>& bits,
                                      const FrameConfig& config) {
  LFBS_OBS_SPAN(span, "crc", "protocol");
  span.attr("bits", static_cast<double>(bits.size()));
  std::vector<ParsedFrame> frames;
  const std::size_t len = config.frame_bits();
  for (std::size_t begin = 0; begin + len <= bits.size(); begin += len) {
    const std::vector<bool> chunk(bits.begin() + static_cast<std::ptrdiff_t>(begin),
                                  bits.begin() + static_cast<std::ptrdiff_t>(begin + len));
    frames.push_back(parse_frame(chunk, config));
  }
  return frames;
}

std::vector<ParsedFrame> scan_frames(const std::vector<bool>& bits,
                                     const FrameConfig& config) {
  LFBS_OBS_SPAN(span, "crc", "protocol");
  span.attr("bits", static_cast<double>(bits.size()));
  std::vector<ParsedFrame> frames;
  const std::size_t len = config.frame_bits();
  if (bits.size() < len) return frames;
  // A window's register over its check bits too is zero exactly when the
  // CRC matches (crc_matches), so the scan slides one register along the
  // stream, O(1) per offset, and copies out only a CRC-valid hit.
  const std::vector<std::uint8_t> unpacked(bits.begin(), bits.end());
  const CrcSpec& spec = crc_spec(config.crc);
  const SlidingCrc sliding(spec, len);
  const std::uint8_t* data = unpacked.data();
  std::uint64_t checked = 0;
  std::uint64_t failed = 0;
  std::size_t begin = 0;
  std::uint32_t reg = crc_bits(data, data + len, spec);
  while (true) {
    const std::uint8_t* frame = data + begin;
    // Cheap gate first: the anchor bit must be set.
    if (frame[0]) {
      ++checked;
      if (reg == 0) {
        ParsedFrame parsed;
        parsed.anchor_ok = true;
        parsed.crc_ok = true;
        parsed.payload.assign(frame + 1, frame + 1 + config.payload_bits);
        frames.push_back(std::move(parsed));
        begin += len;
        if (begin + len > unpacked.size()) break;
        reg = crc_bits(data + begin, data + begin + len, spec);
        continue;
      }
      ++failed;
    }
    if (begin + len == unpacked.size()) break;
    reg = sliding.slide(reg, frame[0] != 0, frame[len] != 0);
    ++begin;
  }
  // Same totals parse_frame would have counted at each checked offset.
  frames_parsed().add(checked);
  frames_crc_failed().add(failed);
  return frames;
}

std::uint64_t payload_key(const ParsedFrame& frame) {
  return static_cast<std::uint64_t>(crc16_ccitt(frame.payload)) |
         (static_cast<std::uint64_t>(frame.payload.size()) << 16);
}

}  // namespace lfbs::protocol
