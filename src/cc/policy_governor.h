// PolicyGovernor: the online control loop that makes MIXED adaptive.
//
// Section 2's modular-synchronisation argument says each object should use
// "the most suitable algorithm depending on its semantics" — but which
// algorithm is most suitable also depends on the OFFERED LOAD, which the
// paper's static assignment cannot see.  Under low contention the
// optimistic intra-object policies win (no lock waits, conflict-free steps
// are lock-free); under a conflict storm they lose their work at
// certification, where the pessimistic local-2PL policy would simply have
// queued.  The governor closes that loop: it samples each object's
// ContentionTelemetry (the relaxed per-object counters the step paths
// already maintain), EWMA-smooths a conflict-pressure signal, and flips
// individual hot objects to the locking policy — and back — through
// MixedController::SetPolicy, which was built to be flipped mid-run (the
// delegated certifier keeps any mix serialisable, so the governor can be
// WRONG at worst about performance, never about correctness).
//
// Hysteresis: two watermarks plus a minimum dwell keep an object from
// flapping when its pressure oscillates around a single threshold.  The
// decision rule is the pure static function Decide() so tests can drive it
// with synthetic telemetry, no threads involved.
//
// Threading: one background thread; all cross-thread state it touches is
// atomic (telemetry counters, the policy table, the flip counter), so the
// storm tests run TSan-clean.
#ifndef OBJECTBASE_CC_POLICY_GOVERNOR_H_
#define OBJECTBASE_CC_POLICY_GOVERNOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/cc/mixed_controller.h"
#include "src/runtime/object.h"
#include "src/runtime/object_base.h"

namespace objectbase::cc {

struct GovernorOptions {
  /// Sampling period of the control loop.
  uint64_t sample_interval_us = 2000;
  /// EWMA smoothing factor for the conflict-pressure signal (1 = no
  /// smoothing, react to the last window only).
  double ewma_alpha = 0.5;
  /// Pressure (conflicts + aborts per step, EWMA-smoothed) at or above
  /// which an object flips to the pessimistic policy...
  double high_watermark = 0.10;
  /// ...and at or below which it flips back.  The gap is the hysteresis
  /// band; keep low < high.
  double low_watermark = 0.02;
  /// Minimum consecutive samples an object must dwell in a policy before
  /// it may flip again (anti-flapping, on top of the watermark band).
  int min_dwell_samples = 3;
  /// The policy hot objects flip TO.
  IntraPolicy hot_policy = IntraPolicy::kLocal2pl;
};

class PolicyGovernor {
 public:
  /// Per-object controller state.  Public so the hysteresis unit test can
  /// drive Decide() directly with synthetic telemetry deltas.
  struct ObjState {
    double ewma = 0.0;
    int dwell = 0;       ///< samples since the last flip
    bool hot = false;    ///< currently assigned the hot (locking) policy
    // Last sampled raw counter values (the loop feeds Decide deltas).
    uint64_t steps = 0;
    uint64_t conflicts = 0;
  };

  /// The pure decision rule: folds one sampling window's deltas into the
  /// EWMA and applies the watermark + dwell hysteresis.  Returns +1 (flip
  /// to hot), -1 (flip back to cold) or 0 (stay).  Static and
  /// side-effect-free beyond `st` — the unit-test surface.
  static int Decide(ObjState& st, uint64_t d_steps, uint64_t d_conflicts,
                    const GovernorOptions& opts);

  /// The governor drives `mixed` (the executor's controller) over
  /// `objects`.  Does not take ownership of either; both must outlive it.
  PolicyGovernor(MixedController& mixed, std::vector<rt::Object*> objects,
                 GovernorOptions opts = {});

  /// Convenience: every object of a base (the common case).
  static std::vector<rt::Object*> AllObjects(rt::ObjectBase& base) {
    std::vector<rt::Object*> out;
    out.reserve(base.size());
    for (size_t i = 0; i < base.size(); ++i) {
      out.push_back(&base.Get(static_cast<uint32_t>(i)));
    }
    return out;
  }
  ~PolicyGovernor();  // Stops the thread if still running.

  PolicyGovernor(const PolicyGovernor&) = delete;
  PolicyGovernor& operator=(const PolicyGovernor&) = delete;

  /// Routes policy flips somewhere other than the constructor's
  /// controller.  The sharded executor installs Executor::SetIntraPolicy
  /// here so a flip reaches the object's home-shard MIXED instance (the
  /// constructor's controller is just shard 0's).  Call before Start().
  void SetApplyHook(std::function<bool(uint32_t, IntraPolicy)> fn) {
    apply_ = std::move(fn);
  }

  /// Ids of the objects currently assigned the hot policy (atomic flags —
  /// safe to sample while the loop runs).
  std::vector<uint32_t> HotObjectIds() const;

  /// Shard-router feed: re-homes every currently-hot object onto `shard`
  /// of `base`, so the next executor built over it isolates the identified
  /// hot set on a dedicated shard.  Placement is only mutable while the
  /// base is quiescent — call between runs, never mid-run.  Returns how
  /// many objects were pinned.
  size_t PinHotTo(rt::ShardedBase& base, uint32_t shard) const;

  void Start();
  void Stop();

  /// Policy flips issued so far (both directions).
  uint64_t flips() const { return flips_.load(std::memory_order_relaxed); }
  /// Objects currently assigned the hot policy.
  size_t hot_objects() const {
    return hot_count_.load(std::memory_order_relaxed);
  }
  /// Control-loop iterations completed (test synchronisation aid).
  uint64_t samples() const { return samples_.load(std::memory_order_relaxed); }

 private:
  void Run();
  void SampleOnce();

  MixedController& mixed_;
  const std::vector<rt::Object*> objects_;
  const GovernorOptions opts_;
  std::vector<ObjState> states_;  // governor-thread private after Start()
  std::function<bool(uint32_t, IntraPolicy)> apply_;  // empty: mixed_ direct
  // Parallel to objects_: 1 while the object holds the hot policy (the
  // cross-thread mirror of ObjState::hot that HotObjectIds reads).
  std::vector<std::atomic<uint8_t>> hot_flags_;

  std::atomic<uint64_t> flips_{0};
  std::atomic<uint64_t> hot_count_{0};
  std::atomic<uint64_t> samples_{0};

  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  bool stop_requested_ = false;  // guarded by wake_mu_
  std::thread thread_;
  bool running_ = false;
};

}  // namespace objectbase::cc

#endif  // OBJECTBASE_CC_POLICY_GOVERNOR_H_
