#include "src/cc/controller.h"

#include "src/cc/lock_manager.h"
#include "src/runtime/txn.h"
#include "src/runtime/wal.h"

namespace objectbase::cc {

uint64_t Controller::DepHandleOf(const rt::TxnNode& top) const {
  return shard_slot_ < 0 ? top.dep_handle()
                         : top.dep_handle_for(static_cast<uint32_t>(shard_slot_));
}

void Controller::SetDepHandle(rt::TxnNode& top, uint64_t raw) const {
  if (shard_slot_ < 0) {
    top.set_dep_handle(raw);
  } else {
    top.set_dep_handle_for(static_cast<uint32_t>(shard_slot_), raw);
  }
}

void Controller::CommitDurably(const rt::TxnNode& top,
                               WaitsForGraph& wfg) const {
  if (wal_ == nullptr) return;
  wal_->WaitDurable(wal_->StageCommit(top.uid()), &wfg, ThisThreadKey());
}

}  // namespace objectbase::cc
