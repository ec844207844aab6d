#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "common/rng.h"
#include "common/units.h"

namespace lfbs::protocol {

/// A 96-bit EPC identifier.
using EpcId = std::vector<bool>;

/// Generates `count` distinct random 96-bit EPCs.
std::vector<EpcId> random_epcs(std::size_t count, Rng& rng);

/// Tracks an inventory round (§5.2): which tags have been read, and how much
/// air time it took. Protocol-agnostic — LF-Backscatter, TDMA and Buzz all
/// report their decoded IDs per epoch/round into the same session.
class IdentificationSession {
 public:
  explicit IdentificationSession(std::vector<EpcId> population);

  std::size_t identified_count() const { return seen_.size(); }
  bool complete() const { return seen_.size() == population_.size(); }
  Seconds elapsed() const { return elapsed_; }
  std::size_t rounds() const { return rounds_; }

  /// Records the outcome of one epoch/round: the IDs decoded (possibly with
  /// duplicates or IDs already seen) and the air time the round consumed.
  void record_round(const std::vector<EpcId>& decoded, Seconds air_time);

  /// True when `id` belongs to the population (guards against decoding
  /// garbage into a phantom ID — a CRC-5 passes by chance 1/32 of the time).
  bool in_population(const EpcId& id) const;

 private:
  std::vector<EpcId> population_;
  std::set<std::vector<bool>> population_set_;
  std::set<std::vector<bool>> seen_;
  Seconds elapsed_ = 0.0;
  std::size_t rounds_ = 0;
};

}  // namespace lfbs::protocol
