#include "src/cc/nto_controller.h"

#include "src/runtime/apply.h"

namespace objectbase::cc {

OpOutcome NtoController::ExecuteLocal(rt::TxnNode& txn, rt::Object& obj,
                                      const adt::OpDescriptor& op,
                                      const Args& args) {
  const DepRef my_ref = DepRef::FromRaw(DepHandleOf(*txn.top()));
  if (!AdmitStep(obj, my_ref)) return OpOutcome::Abort(AbortReason::kDoomed);
  const Hts& my_hts = txn.hts();
  const uint64_t my_top = txn.top()->uid();

  // NTO always applies under the exclusive latch, so the journal's per-op
  // conflict indices are complete here (journal.h) and scan-then-publish is
  // atomic with respect to every other appender.
  std::lock_guard<std::shared_mutex> state_guard(obj.state_mu());
  // Provisional execution (atomic w.r.t. the object's other local
  // operations); the step-granularity test then sees the return value.
  adt::ApplyResult provisional = op.apply(obj.state(), args);
  AbortReason reject = AbortReason::kNone;
  RivalEdges edges{deps_, my_ref};
  ForEachRival(
      obj, op, args,
      granularity_ == Granularity::kStep ? &provisional.ret : nullptr,
      txn.AncestorChain(), kWholeWindow, /*exclusive=*/true,
      [&](const rt::AppliedJournal::Entry& e) {
        if (*e.hts > my_hts) {  // rule 1
          edges.conflict = true;
          reject = AbortReason::kTimestampOrder;
          return false;
        }
        if (e.top_uid != my_top && !edges.Add(e)) {
          reject = AbortReason::kDoomed;
          return false;
        }
        return true;
      });
  edges.ChargeTelemetry(obj);
  if (reject != AbortReason::kNone) {
    if (provisional.undo) provisional.undo(obj.state());
    return OpOutcome::Abort(reject);
  }
  // Accept: the journal position, reserved under this exclusive latch, is
  // the per-object application order key.
  const uint64_t pos = obj.journal().Reserve();
  return OpOutcome::Ok(rt::AcceptStep(txn, obj, op, args,
                                      std::move(provisional), pos,
                                      my_ref.raw(), recorder_, wal_));
}

size_t NtoController::RememberedEntries(
    const std::vector<rt::Object*>& objects) {
  size_t n = 0;
  for (rt::Object* o : objects) n += o->applied_log_size();
  return n;
}

}  // namespace objectbase::cc
