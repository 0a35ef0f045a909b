// The optimistic lifecycle shared by NTO and the certifier.
//
// NTO (Section 5.2) and CERT (Section 6) differ only in how they admit a
// step: NTO scans the object's journal for a conflicting step of an
// incomparable execution with a larger timestamp and rejects before
// publishing; CERT publishes first, then scans and records every conflict
// for commit-time certification.  Everything around that rule is one
// lifecycle, implemented once here:
//   * OnTopBegin registers the top in the DependencyGraph;
//   * AdmitStep is the per-step doom poll plus the journal-fold cadence;
//   * ForEachRival is the one journal conflict filter (aborted entries,
//     kin and — at step granularity — commuting steps drop out), and
//     RivalEdges the cross-top half of every scan (dependency edge,
//     live-rival telemetry, abort-marking recheck); MIXED's timestamp
//     pre-scan uses the filter too;
//   * OnTopCommit is validate → stage the commit marker → MarkCommitted →
//     wait durable;
//   * aborts roll back by rebuild (RebuildAbort, which the sharded router
//     calls too, with each object's shard registry).
// Weihl's undo-versus-rebuild split is the only recovery distinction the
// protocols need: these escalate child aborts to the top and rebuild.
#ifndef OBJECTBASE_CC_OPTIMISTIC_CONTROLLER_H_
#define OBJECTBASE_CC_OPTIMISTIC_CONTROLLER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/cc/controller.h"
#include "src/cc/dependency_graph.h"
#include "src/runtime/object.h"
#include "src/runtime/txn.h"

namespace objectbase::rt {
class Recorder;
}  // namespace objectbase::rt

namespace objectbase::cc {

class WaitsForGraph;

/// Scan limit covering the whole journal window (up to Scan::end_pos).
inline constexpr uint64_t kWholeWindow = ~uint64_t{0};

/// The journal conflict filter: visits the entries below `limit` that may
/// order against the step `op(args)` of the execution whose ancestor chain
/// is `chain` — live (not aborted), issued by an incomparable execution
/// (kin never conflict) and conflicting with it: by the op-class row alone
/// when `ret` is null (operation granularity, or a pre-apply scan), by the
/// spec's step table on the return value `*ret` otherwise.  `rule(e)` is
/// the protocol's own decision; it returns false to stop the scan.
/// `exclusive`: see AppliedJournal::Scan::ForEachConflicting.  Lock-free.
template <typename Rule>
inline void ForEachRival(const rt::Object& obj, const adt::OpDescriptor& op,
                         const Args& args, const Value* ret,
                         const std::vector<uint64_t>& chain, uint64_t limit,
                         bool exclusive, Rule&& rule) {
  rt::AppliedJournal::Scan scan(obj.journal());
  scan.ForEachConflicting(
      obj.ConflictRowFor(op.id), limit, exclusive,
      [&](const rt::AppliedJournal::Entry& e) {
        if (e.IsAborted() || !e.IncomparableWith(chain)) return true;
        if (ret != nullptr) {
          const adt::StepView first{obj.spec().OpAt(e.op_id).name, &e.args,
                                    &e.ret, e.op_id};
          const adt::StepView second{op.name, &args, ret, op.id};
          if (!obj.spec().StepConflicts(first, second)) return true;
        }
        return rule(e);
      });
}

/// The cross-top half of a conflict scan: records "the entry's top
/// precedes `me`" once per run of consecutive entries by one writer.
/// `conflict` collects the telemetry signal — a scan that only meets
/// settled history is not contention; rules set it for their own
/// conflicts too (a rule-1 reject, a sibling edge).
struct RivalEdges {
  DependencyGraph& deps;
  DepRef me;
  uint64_t last_dep = 0;
  bool conflict = false;

  /// Adds the edge for `e` (a rival of another top).  Returns false when
  /// `e`'s writer aborted while this scan raced it: its slot may have
  /// retired before the edge landed, so the abort-marking recheck
  /// (docs/journal.md) is what closes the cascade window — the caller is
  /// doomed.
  bool Add(const rt::AppliedJournal::Entry& e) {
    if (e.dep == last_dep) return true;
    last_dep = e.dep;
    const DepRef writer = DepRef::FromRaw(e.dep);
    if (deps.IsUnfinished(writer)) conflict = true;
    deps.AddDependency(writer, me);
    if (e.IsAborted()) {
      conflict = true;
      return false;
    }
    return true;
  }

  /// Charges the object's journal-conflict telemetry (one relaxed RMW per
  /// conflicting step, nothing on the conflict-free path): the governor
  /// reads it to find objects whose scans keep meeting incomparable rivals.
  void ChargeTelemetry(rt::Object& obj) const {
    if (conflict) {
      obj.contention().journal_conflicts.fetch_add(1,
                                                   std::memory_order_relaxed);
    }
  }
};

/// Objects the subtree rooted at `node` touched (its undo logs), each once.
std::vector<rt::Object*> TouchedObjects(rt::TxnNode& node);

/// Rollback by rebuild: marks the subtree's journal entries aborted on
/// every object it touched and rebuilds each state from its base.  The
/// rebuild front-runs the doom cascade and excludes doomed transactions'
/// entries (rebuild soundness — see Object::AbortEntriesAndRebuild and
/// docs/journal.md); marking precedes the caller's MarkAborted, which the
/// lock-free scans' recheck relies on.  `registry_of(obj)` returns the
/// registry whose DepRefs `obj`'s journal entries carry and the top's
/// handle there, as a (DependencyGraph*, DepRef) pair.
template <typename RegistryOf>
void RebuildAbort(rt::TxnNode& node, RegistryOf&& registry_of) {
  for (rt::Object* obj : TouchedObjects(node)) {
    const std::pair<DependencyGraph*, DepRef> reg = registry_of(*obj);
    DependencyGraph* deps = reg.first;
    const DepRef top_ref = reg.second;
    obj->AbortEntriesAndRebuild(
        node.uid(), [&] { deps->DoomSuccessorsTransitively(top_ref); },
        [&](uint64_t dep_raw) {
          return deps->IsDoomed(DepRef::FromRaw(dep_raw));
        });
  }
}

class OptimisticController : public Controller {
 public:
  /// `fold_threshold` is the journal-GC cadence: fold once the journal
  /// reaches it, every threshold/2 entries after.  0 disables folding —
  /// tests use it to pin the zero-journal-mutex steady state.
  OptimisticController(rt::Recorder& recorder, Granularity granularity,
                       size_t fold_threshold);

  void OnTopBegin(rt::TxnNode& top) override;
  void OnChildCommit(rt::TxnNode&) override {}
  bool OnTopCommit(rt::TxnNode& top, AbortReason* reason) override;
  void OnAbort(rt::TxnNode& node) override;

  bool SupportsPartialAbort() const override { return false; }
  bool RollbackByRebuild() const override { return true; }

  DependencyGraph& deps() { return deps_; }

 protected:
  /// The per-step prologue: false when the top is doomed (one relaxed
  /// atomic load — the conflict-free step path takes no DependencyGraph
  /// mutex; doom is monotonic, so a stale false only delays the abort by
  /// one step).  Otherwise runs the watermark GC when its lock-free cadence
  /// poll fires: folds the journal prefix every active transaction's
  /// timestamp exceeds (Section 5.2's "mechanism to forget").  The caller
  /// holds no object latch.
  bool AdmitStep(rt::Object& obj, DepRef me) {
    if (deps_.IsDoomed(me)) return false;
    // WantsFold is two relaxed loads and MinActiveCounter a lock-free slot
    // scan; the fold re-checks under the apply serialisation.
    if (obj.journal().WantsFold(fold_threshold_)) {
      obj.FoldPrefix(deps_.MinActiveCounter(), fold_threshold_);
    }
    return true;
  }

  rt::Recorder& recorder_;
  const Granularity granularity_;
  const size_t fold_threshold_;
  /// Where the durability commit-wait is declared (MIXED's waits-for
  /// graph); null for standalone NTO/CERT.
  WaitsForGraph* durability_wfg_ = nullptr;
  DependencyGraph deps_;
};

}  // namespace objectbase::cc

#endif  // OBJECTBASE_CC_OPTIMISTIC_CONTROLLER_H_
