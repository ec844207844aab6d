#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "control/fleet_tracker.h"
#include "control/scheduler.h"
#include "net/wire.h"
#include "protocol/epoch.h"

namespace lfbs::control {

struct ControlLoopConfig {
  FleetTrackerConfig tracker{};
  ControlObjective objective{};
  std::string policy = "greedy";
  std::uint64_t seed = 0x1f53c0de;
  /// Freeze: keep sensing, planning and publishing, but never apply —
  /// the operator's "look, don't touch" switch.
  bool frozen = false;
  /// Goodput denominator handed to end_epoch by the epoch-less step()
  /// overload and the background thread.
  Seconds epoch_duration = 4e-3;
};

/// The closed loop of the fleet control plane: sense (FleetTracker),
/// plan (EpochScheduler), act (the installed applier), tell (typed
/// "control" events, control.* metrics, and — via the gateway glue —
/// LFBW1 kControlPlan broadcasts).
///
/// step() is the synchronous heart: it closes the tracker's open epoch,
/// schedules the next one, publishes the decision, and applies it unless
/// frozen. Deployments that pace themselves (a reader session driving
/// epochs, a test) call step() directly; the gateway can instead start()
/// the background thread, which steps at a fixed period while frames
/// stream in.
///
/// All entry points are thread-safe. The knob setters mirror the LFBW1
/// control-set message, so a remote operator and the local loop see one
/// consistent state.
class ControlLoop {
 public:
  /// Applies one plan to the world — steps ReaderSession rate
  /// controllers, commands simulated tags, or nothing (gateway serve
  /// mode, where the plan is advisory and consumed downstream).
  using Applier = std::function<void(const EpochPlan&)>;

  ControlLoop(ControlLoopConfig config, protocol::RatePlan rates);
  ~ControlLoop();

  const ControlLoopConfig& config() const { return config_; }
  FleetTracker& tracker() { return tracker_; }
  const char* policy_name() const { return scheduler_.policy_name(); }

  void set_applier(Applier applier);

  /// Close epoch `epoch` (duration seconds of air time), plan the next
  /// epoch, publish, apply unless frozen. Returns the new plan.
  EpochPlan step(std::uint64_t epoch, Seconds duration);
  /// Self-paced overload: epochs count up from 0 with the configured
  /// duration. Used by the background thread.
  EpochPlan step();

  /// Background mode: step() every `period` seconds until stop().
  void start(Seconds period);
  void stop();

  // --- knobs (the LFBW1 control-set surface) -----------------------------
  void set_frozen(bool frozen);
  bool frozen() const;
  void set_objective(const ControlObjective& objective);
  ControlObjective objective() const;

  EpochPlan last_plan() const;
  std::uint64_t plans() const { return plans_; }

  /// Current state + plan as the wire message — the reply to control-get
  /// and the broadcast after each step.
  net::ControlPlanMsg wire_state() const;
  /// Applies a control-set message and returns the updated state. The
  /// gateway installs these two as its FrameServer control hooks.
  net::ControlPlanMsg apply_control_set(const net::ControlSet& set);

 private:
  void publish(const EpochPlan& plan, const FleetSnapshot& snapshot,
               bool applied);

  ControlLoopConfig config_;
  FleetTracker tracker_;
  EpochScheduler scheduler_;

  mutable std::mutex mutex_;
  Applier applier_;
  bool frozen_ = false;
  EpochPlan last_plan_;
  std::uint64_t plans_ = 0;
  std::uint64_t auto_epoch_ = 0;

  std::thread thread_;
  std::mutex wake_mutex_;
  std::condition_variable wake_;
  bool running_ = false;
};

}  // namespace lfbs::control
