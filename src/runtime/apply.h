// AcceptStep: the one place an admitted local step is accepted and recorded.
//
// The protocols differ only in how they ADMIT a step — a lock grant
// (N2PL, GEMSTONE, MIXED's local-2pl objects), NTO's rule-1 timestamp
// scan, the certifier's publish-then-scan.  Once admitted, every protocol
// does the same thing with it, and does it here: the step's undo record
// joins the issuing execution's undo log (Section 3 Abort semantics), the
// step with its return value joins the object's local history in the
// recorder, the journal entry the timestamp/certification protocols scan
// is published, and the WAL redo record is staged.  Callers hold the
// object's apply serialisation, so all of it happens inside the same
// critical section as the apply and every order key below is the true
// per-object application order.
//
// ApplyLocked is apply-then-accept for the protocols that admit before
// applying (the lock holders: N2PL operation mode, GEMSTONE).
#ifndef OBJECTBASE_RUNTIME_APPLY_H_
#define OBJECTBASE_RUNTIME_APPLY_H_

#include <utility>

#include "src/runtime/object.h"
#include "src/runtime/recorder.h"
#include "src/runtime/txn.h"
#include "src/runtime/wal.h"

namespace objectbase::rt {

/// Accepts the already-applied step `applied` of `op(args)` by `txn` on
/// `obj` and returns its return value.
///
/// Order keys: `order` is the per-object application order — the exact
/// part of the formal < relation.  The journaled protocols (NTO, CERT,
/// MIXED) pass the journal position this thread reserved for the step
/// together with the top's packed registry handle `journal_dep` (a valid
/// cc::DepRef, never 0); the entry is then published at that position and
/// the redo record keyed by it.  The others (N2PL, GEMSTONE) pass the
/// object's apply-stamp ticket (Object::NextApplyStamp) and
/// `journal_dep = 0`: nothing is journaled and the redo record is keyed by
/// its staging position.  The key orders this object's undo records (the
/// abort path undoes one object's steps newest-first; different objects'
/// undos commute — disjoint states) and is what Recorder::Snapshot merges
/// by; the raw recorder stamp (one leased draw, no global RMW) only
/// tie-breaks the cross-object merge.  A null `wal` stages nothing.
inline Value AcceptStep(TxnNode& txn, Object& obj, const adt::OpDescriptor& op,
                        const Args& args, adt::ApplyResult&& applied,
                        uint64_t order, uint64_t journal_dep,
                        Recorder& recorder, WalWriter* wal) {
  const uint64_t raw = recorder.NextSeq();  // leased; 0 when not recording
  if (journal_dep != 0) {
    JournalRecord entry;
    entry.seq = raw;
    entry.exec_uid = txn.uid();
    entry.top_uid = txn.top()->uid();
    entry.dep = journal_dep;
    entry.chain = txn.ChainPtr();
    entry.hts = txn.HtsSnapshot();
    entry.op_id = op.id;
    entry.args = args;
    entry.ret = applied.ret;
    obj.journal().PublishAt(order, std::move(entry));
  }
  // Read-only steps get an (empty) undo record too: the abort path uses the
  // log to know which objects the execution touched.
  txn.PushUndo(UndoRecord{order, &obj, std::move(applied.undo)});
  recorder.RecordLocalStep(txn.exec_id, txn.NextPo(), obj.id(), op.id, args,
                           applied.ret, order, raw);
  if (wal != nullptr) {
    wal->StageRedo(obj.id(),
                   journal_dep != 0 ? order : WalWriter::kOrderByStagePos,
                   txn.top()->uid(), txn.uid(), txn.ChainPtr(), op.id, args,
                   applied.ret);
  }
  return std::move(applied.ret);
}

/// Applies `op` and accepts it (non-journaled, apply-stamp order).  The
/// caller has completed admission and holds the object's exclusive latch.
inline Value ApplyLocked(TxnNode& txn, Object& obj, const adt::OpDescriptor& op,
                         const Args& args, Recorder& recorder, WalWriter* wal) {
  adt::ApplyResult applied = op.apply(obj.state(), args);
  return AcceptStep(txn, obj, op, args, std::move(applied),
                    obj.NextApplyStamp(), /*journal_dep=*/0, recorder, wal);
}

}  // namespace objectbase::rt

#endif  // OBJECTBASE_RUNTIME_APPLY_H_
