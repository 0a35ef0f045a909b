// Nested timestamp ordering (Reed's algorithm) — Section 5.2.
//
// Rule 1: conflicting local steps of incomparable executions must be
// processed in hierarchical-timestamp order — enforced by rejecting (and
// aborting) a step that conflicts with an already-processed step of an
// incomparable execution with a LARGER timestamp.
// Rule 2: ◁-ordered messages of one execution get increasing child
// timestamps — implemented by TxnNode::NextChildCounter().
//
// Granularities mirror Section 5.2's two implementations:
//   * kOperation — per-operation-class conflict tests against remembered
//     steps ("keep the maximum timestamp of any method execution that has
//     issued operation a"; we keep the recent entries rather than only the
//     max so that ancestor/descendant pairs — exempt from rule 1 — can be
//     recognised);
//   * kStep — conflict tests that see the return value.
// Both execute the step provisionally first (under the object's exclusive
// latch), scan, and undo it on a reject; the operation-granularity test
// reads only the op-class row, so applying first does not change its
// decision, and a rejected step is never recorded or published.
//
// Garbage collection (Section 5.2's "mechanism to forget"): entries whose
// top-level serial number precedes every active transaction's are retired
// (the active-watermark scheme in the text).  The watermark folds ride the
// journal-GC cadence, so fold_threshold = 0 disables them.
//
// Recovery note (DESIGN.md substitution): Reed's system is multiversion;
// with our immediate updates an abort must cascade to transactions that
// conflicted after the aborted one.  The shared DependencyGraph implements
// dooming + commit dependencies; subtree aborts escalate to the top.
#ifndef OBJECTBASE_CC_NTO_CONTROLLER_H_
#define OBJECTBASE_CC_NTO_CONTROLLER_H_

#include "src/cc/optimistic_controller.h"

namespace objectbase::cc {

class NtoController : public OptimisticController {
 public:
  /// `fold_threshold`: see OptimisticController.
  NtoController(rt::Recorder& recorder, Granularity granularity,
                size_t fold_threshold = 64)
      : OptimisticController(recorder, granularity, fold_threshold) {}

  const char* name() const override { return "NTO"; }

  OpOutcome ExecuteLocal(rt::TxnNode& txn, rt::Object& obj,
                         const adt::OpDescriptor& op,
                         const Args& args) override;
  /// Settled registry slots retire incrementally inside
  /// MarkCommitted/MarkAborted; nothing else to collect.
  void OnTopFinished(rt::TxnNode&) override {}

  /// Total remembered applied-step entries across `objects`.
  static size_t RememberedEntries(const std::vector<rt::Object*>& objects);
};

}  // namespace objectbase::cc

#endif  // OBJECTBASE_CC_NTO_CONTROLLER_H_
