#include "src/cc/n2pl_controller.h"

#include "src/runtime/apply.h"

namespace objectbase::cc {

N2plController::N2plController(rt::Recorder& recorder, Granularity granularity)
    : recorder_(recorder), granularity_(granularity) {}

void N2plController::OnTopBegin(rt::TxnNode&) {}

OpOutcome N2plController::ExecuteLocal(rt::TxnNode& txn, rt::Object& obj,
                                       const adt::OpDescriptor& op,
                                       const Args& args) {
  if (granularity_ == Granularity::kOperation) {
    return ExecuteOperationMode(txn, obj, op, args);
  }
  return ExecuteStepMode(txn, obj, op, args);
}

OpOutcome N2plController::ExecuteOperationMode(rt::TxnNode& txn,
                                               rt::Object& obj,
                                               const adt::OpDescriptor& op,
                                               const Args& args) {
  // Rule 1: own L(a) before issuing a.  Operation-class lock: no ret.
  LockManager::Request req;
  req.op = &op;
  req.args = args;
  const AbortReason denied =
      AbortReasonOf(locks_.Acquire(txn, obj, std::move(req)));
  if (denied != AbortReason::kNone) return OpOutcome::Abort(denied);
  std::lock_guard<std::shared_mutex> g(obj.state_mu());
  return OpOutcome::Ok(rt::ApplyLocked(txn, obj, op, args, recorder_, wal_));
}

OpOutcome N2plController::ExecuteStepMode(rt::TxnNode& txn, rt::Object& obj,
                                          const adt::OpDescriptor& op,
                                          const Args& args) {
  // The Section 5.1 provisional-execution loop: execute, observe the return
  // value, try to lock the resulting STEP; on failure undo the provisional
  // effect (atomically w.r.t. the object's other local operations — we are
  // inside state_mu) and retry after the lock table changes.
  for (;;) {
    std::unique_lock<std::shared_mutex> state_guard(obj.state_mu());
    adt::ApplyResult provisional = op.apply(obj.state(), args);
    LockManager::Request req;
    req.op = &op;
    req.args = args;
    req.ret = provisional.ret;
    LockManager::TryOutcome attempt = locks_.TryAcquire(txn, obj, req);
    if (attempt == LockManager::TryOutcome::kGranted) {
      // Keep the provisional effect as the real step.  The per-object
      // ticket, drawn under this exclusive latch, is its application-order
      // key; denied provisionals leave no trace.
      return OpOutcome::Ok(rt::AcceptStep(txn, obj, op, args,
                                          std::move(provisional),
                                          obj.NextApplyStamp(),
                                          /*journal_dep=*/0, recorder_, wal_));
    }
    // Undo the provisional effect before letting anyone else in.
    if (provisional.undo) provisional.undo(obj.state());
    state_guard.unlock();
    if (attempt == LockManager::TryOutcome::kWounded) {
      return OpOutcome::Abort(AbortReason::kWounded);
    }
    const AbortReason denied =
        AbortReasonOf(locks_.WaitWhileBlocked(txn, obj, req));
    if (denied != AbortReason::kNone) return OpOutcome::Abort(denied);
    // Lock table changed; retry the provisional execution (the return
    // value, and hence the required lock, may differ now).
  }
}

void N2plController::OnChildCommit(rt::TxnNode& child) {
  // Rule 5: the parent inherits every lock the child owns.
  locks_.TransferToParent(child);
}

bool N2plController::OnTopCommit(rt::TxnNode& top, AbortReason*) {
  CommitDurably(top, locks_.waits_for());
  return true;
}

void N2plController::OnAbort(rt::TxnNode& node) {
  // The aborted subtree's steps have been undone by the runtime; its locks
  // simply disappear.
  locks_.ReleaseSubtree(node);
}

void N2plController::OnTopFinished(rt::TxnNode& top) {
  // Argus discipline: all locks (inherited up to the top by rule 5) are
  // released when the top-level transaction completes.
  locks_.ReleaseSubtree(top);
}

}  // namespace objectbase::cc
