#include "src/cc/optimistic_controller.h"

#include <algorithm>

#include "src/cc/lock_manager.h"
#include "src/runtime/wal.h"

namespace objectbase::cc {

namespace {

void CollectObjects(rt::TxnNode& node, std::vector<rt::Object*>& out) {
  for (const rt::UndoRecord& u : node.undo_log()) {
    if (std::find(out.begin(), out.end(), u.object) == out.end()) {
      out.push_back(u.object);
    }
  }
  for (auto& child : node.children()) CollectObjects(*child, out);
}

}  // namespace

std::vector<rt::Object*> TouchedObjects(rt::TxnNode& node) {
  std::vector<rt::Object*> touched;
  CollectObjects(node, touched);
  return touched;
}

OptimisticController::OptimisticController(rt::Recorder& recorder,
                                           Granularity granularity,
                                           size_t fold_threshold)
    : recorder_(recorder),
      granularity_(granularity),
      fold_threshold_(fold_threshold) {}

void OptimisticController::OnTopBegin(rt::TxnNode& top) {
  // Cache the packed slot handle on the node: every per-step doom poll and
  // recorded journal entry addresses the registry slot directly.  (Under a
  // sharded topology the handle lands in this shard's slot of the node's
  // handle array — see Controller::BindShardSlot.)
  SetDepHandle(top, deps_.Register(top.uid(), top.hts().top_component()).raw());
}

bool OptimisticController::OnTopCommit(rt::TxnNode& top, AbortReason* reason) {
  const DepRef ref = DepRef::FromRaw(DepHandleOf(top));
  if (!deps_.ValidateAndWait(ref, reason)) return false;
  if (wal_ == nullptr) {
    deps_.MarkCommitted(ref);
    return true;
  }
  // Watermark soundness: stage the commit marker BEFORE MarkCommitted.  A
  // dependency successor passes its own ValidateAndWait only after our
  // MarkCommitted, so its marker always lands later in the log — the
  // prefix-closed durable watermark then guarantees an acknowledged
  // successor's predecessors are durable too.  Waiting AFTER MarkCommitted
  // overlaps our fsync with successors' validation (group commit).
  const uint64_t pos = wal_->StageCommit(top.uid());
  deps_.MarkCommitted(ref);
  wal_->WaitDurable(pos, durability_wfg_,
                    durability_wfg_ != nullptr ? ThisThreadKey() : 0);
  return true;
}

void OptimisticController::OnAbort(rt::TxnNode& node) {
  const DepRef top_ref = DepRef::FromRaw(DepHandleOf(*node.top()));
  RebuildAbort(node, [&](const rt::Object&) {
    return std::pair<DependencyGraph*, DepRef>(&deps_, top_ref);
  });
  if (node.parent() == nullptr) deps_.MarkAborted(top_ref);
}

}  // namespace objectbase::cc
