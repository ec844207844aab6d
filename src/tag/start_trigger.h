#pragma once

#include "common/rng.h"
#include "common/units.h"

namespace lfbs::tag {

/// Comparator/capacitor wake-up circuit (Fig 4 of the paper).
///
/// When the reader turns its carrier on, the tag's receive capacitor charges
/// as V(t) = V∞ (1 − e^{−t/RC}); a comparator fires when V crosses a
/// threshold, and the tag starts transmitting. Three physical sources of
/// randomness spread the fire time across tags — this is what gives
/// LF-Backscatter its "free" fine-grained random offsets (§3.2):
///   a) incoming energy (placement/orientation) sets V∞,
///   b) capacitor tolerance (±20 % typical) sets RC,
///   c) charging noise wiggles the crossing instant.
class StartTrigger {
 public:
  struct Config {
    Seconds nominal_rc = 50e-6;       ///< nominal RC time constant
    double capacitor_tolerance = 0.2; ///< ±20 % part-to-part spread
    double threshold_fraction = 0.6;  ///< comparator threshold / V∞ nominal
    double charging_noise = 0.01;     ///< 1σ noise on the threshold crossing
  };

  /// Draws the device's RC once (capacitor tolerance is fixed per part).
  StartTrigger(Config config, Rng& rng);

  /// Fire delay after carrier-on for a given relative incoming energy
  /// (1.0 = nominal). Higher energy charges faster → earlier fire. Each call
  /// redraws the charging noise: the same tag fires at slightly different
  /// times every epoch.
  Seconds fire_delay(double incoming_energy, Rng& rng) const;

 private:
  Config config_;
  Seconds rc_ = 0.0;
};

}  // namespace lfbs::tag
