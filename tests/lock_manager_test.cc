// LockManager unit tests: rule 2 (ancestors never block), conflict modes,
// inheritance (rule 5), release, and deadlock detection.
#include "src/cc/lock_manager.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "src/adt/bank_account_adt.h"
#include "src/adt/queue_adt.h"
#include "src/adt/register_adt.h"
#include "src/runtime/object.h"
#include "src/runtime/txn.h"

namespace objectbase::cc {
namespace {

rt::Object MakeRegisterObject(uint32_t id = 0) {
  return rt::Object(id, "reg" + std::to_string(id),
                    adt::MakeRegisterSpec(0));
}

LockManager::Request OpReq(const rt::Object& obj, const std::string& op,
                           Args args = {}) {
  LockManager::Request r;
  r.op = obj.spec().FindOp(op);
  r.args = std::move(args);
  return r;
}

TEST(LockManagerTest, NonConflictingGrantsImmediately) {
  LockManager lm;
  rt::Object obj = MakeRegisterObject();
  rt::TxnNode t1(1, nullptr, UINT32_MAX, "T1");
  rt::TxnNode t2(2, nullptr, UINT32_MAX, "T2");
  EXPECT_EQ(lm.Acquire(t1, obj, OpReq(obj, "read")), LockManager::Outcome::kGranted);
  EXPECT_EQ(lm.Acquire(t2, obj, OpReq(obj, "read")), LockManager::Outcome::kGranted);
  EXPECT_EQ(lm.LockCount(), 2u);
}

TEST(LockManagerTest, ConflictBlocksUntilRelease) {
  LockManager lm;
  rt::Object obj = MakeRegisterObject();
  rt::TxnNode t1(1, nullptr, UINT32_MAX, "T1");
  rt::TxnNode t2(2, nullptr, UINT32_MAX, "T2");
  ASSERT_EQ(lm.Acquire(t1, obj, OpReq(obj, "write", {1})),
            LockManager::Outcome::kGranted);
  std::atomic<bool> granted{false};
  std::thread waiter([&]() {
    lm.NoteRunning(ThisThreadKey(), &t2);
    EXPECT_EQ(lm.Acquire(t2, obj, OpReq(obj, "read")),
              LockManager::Outcome::kGranted);
    granted.store(true);
    lm.NoteFinished(ThisThreadKey());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(granted.load());
  lm.ReleaseSubtree(t1);
  waiter.join();
  EXPECT_TRUE(granted.load());
}

TEST(LockManagerTest, AncestorsNeverBlockDescendants) {
  // Rule 2: a child may acquire a lock conflicting with its ancestor's.
  LockManager lm;
  rt::Object obj = MakeRegisterObject();
  rt::TxnNode top(1, nullptr, UINT32_MAX, "T");
  rt::TxnNode child(2, &top, 0, "m");
  rt::TxnNode grandchild(3, &child, 0, "n");
  ASSERT_EQ(lm.Acquire(top, obj, OpReq(obj, "write", {1})),
            LockManager::Outcome::kGranted);
  EXPECT_EQ(lm.Acquire(grandchild, obj, OpReq(obj, "write", {2})),
            LockManager::Outcome::kGranted);
}

TEST(LockManagerTest, SiblingsDoBlock) {
  LockManager lm;
  rt::Object obj = MakeRegisterObject();
  rt::TxnNode top(1, nullptr, UINT32_MAX, "T");
  rt::TxnNode c1(2, &top, 0, "m1");
  rt::TxnNode c2(3, &top, 0, "m2");
  ASSERT_EQ(lm.Acquire(c1, obj, OpReq(obj, "write", {1})),
            LockManager::Outcome::kGranted);
  EXPECT_EQ(lm.TryAcquire(c2, obj, OpReq(obj, "write", {2})),
            LockManager::TryOutcome::kWouldBlock);
  // Rule 5: after c1's commit its lock passes to the parent — an ancestor
  // of c2, so c2 is now grantable.
  lm.TransferToParent(c1);
  EXPECT_EQ(lm.TryAcquire(c2, obj, OpReq(obj, "write", {2})),
            LockManager::TryOutcome::kGranted);
}

TEST(LockManagerTest, ExclusiveConflictsWithEverything) {
  LockManager lm;
  rt::Object obj = MakeRegisterObject();
  rt::TxnNode t1(1, nullptr, UINT32_MAX, "T1");
  rt::TxnNode t2(2, nullptr, UINT32_MAX, "T2");
  LockManager::Request excl;
  excl.exclusive = true;
  ASSERT_EQ(lm.Acquire(t1, obj, excl), LockManager::Outcome::kGranted);
  EXPECT_EQ(lm.TryAcquire(t2, obj, OpReq(obj, "read")),
            LockManager::TryOutcome::kWouldBlock);
  EXPECT_EQ(lm.TryAcquire(t2, obj, excl), LockManager::TryOutcome::kWouldBlock);
  // Re-acquisition by the same owner is free (and deduplicated).
  EXPECT_EQ(lm.Acquire(t1, obj, excl), LockManager::Outcome::kGranted);
  EXPECT_EQ(lm.LockCount(), 1u);
}

TEST(LockManagerTest, StepGranularityUsesReturnValues) {
  // Queue: enqueue(7) held; a dequeue returning 9 does not conflict, a
  // dequeue returning 7 does (Section 5.1).
  LockManager lm;
  rt::Object obj(0, "q", adt::MakeQueueSpec());
  rt::TxnNode t1(1, nullptr, UINT32_MAX, "T1");
  rt::TxnNode t2(2, nullptr, UINT32_MAX, "T2");
  LockManager::Request enq = OpReq(obj, "enqueue", {7});
  enq.ret = Value::None();
  ASSERT_EQ(lm.Acquire(t1, obj, enq), LockManager::Outcome::kGranted);

  LockManager::Request deq9 = OpReq(obj, "dequeue");
  deq9.ret = Value(9);
  EXPECT_EQ(lm.TryAcquire(t2, obj, deq9), LockManager::TryOutcome::kGranted);

  LockManager::Request deq7 = OpReq(obj, "dequeue");
  deq7.ret = Value(7);
  EXPECT_EQ(lm.TryAcquire(t2, obj, deq7),
            LockManager::TryOutcome::kWouldBlock);
}

TEST(LockManagerTest, OperationGranularityIsConservative) {
  LockManager lm;
  rt::Object obj(0, "q", adt::MakeQueueSpec());
  rt::TxnNode t1(1, nullptr, UINT32_MAX, "T1");
  rt::TxnNode t2(2, nullptr, UINT32_MAX, "T2");
  ASSERT_EQ(lm.Acquire(t1, obj, OpReq(obj, "enqueue", {7})),
            LockManager::Outcome::kGranted);
  // Without return values every dequeue blocks.
  EXPECT_EQ(lm.TryAcquire(t2, obj, OpReq(obj, "dequeue")),
            LockManager::TryOutcome::kWouldBlock);
}

TEST(LockManagerTest, AsymmetricConflictRespectsHeldDirection) {
  // Held: withdraw->true.  A later deposit commutes with it (withdraw-ok
  // conflicts-with deposit is FALSE), so the deposit is granted.
  LockManager lm;
  rt::Object obj(0, "acct", adt::MakeBankAccountSpec(100));
  rt::TxnNode t1(1, nullptr, UINT32_MAX, "T1");
  rt::TxnNode t2(2, nullptr, UINT32_MAX, "T2");
  LockManager::Request wd = OpReq(obj, "withdraw", {10});
  wd.ret = Value(true);
  ASSERT_EQ(lm.Acquire(t1, obj, wd), LockManager::Outcome::kGranted);
  LockManager::Request dep = OpReq(obj, "deposit", {10});
  dep.ret = Value::None();
  EXPECT_EQ(lm.TryAcquire(t2, obj, dep), LockManager::TryOutcome::kGranted);
  // The reverse held/request pair conflicts.
  LockManager lm2;
  rt::TxnNode u1(3, nullptr, UINT32_MAX, "U1");
  rt::TxnNode u2(4, nullptr, UINT32_MAX, "U2");
  ASSERT_EQ(lm2.Acquire(u1, obj, dep), LockManager::Outcome::kGranted);
  EXPECT_EQ(lm2.TryAcquire(u2, obj, wd),
            LockManager::TryOutcome::kWouldBlock);
}

TEST(LockManagerTest, ObjectsOfOneSpecShareOneConflictMaskTable) {
  // The request-conflict masks depend on the spec alone: two accounts of
  // one spec bind the same table, an account of another spec its own, and
  // grants and waits follow the held direction exactly as before.
  LockManager lm;
  auto spec = adt::MakeBankAccountSpec(100);
  rt::Object a(0, "a", spec);
  rt::Object b(1, "b", spec);
  rt::Object other(2, "other", adt::MakeBankAccountSpec(100));
  EXPECT_EQ(lm.ConflictMasksOf(a), nullptr) << "bound before first request";
  rt::TxnNode t1(1, nullptr, UINT32_MAX, "T1");
  rt::TxnNode t2(2, nullptr, UINT32_MAX, "T2");
  LockManager::Request dep = OpReq(a, "deposit", {10});
  dep.ret = Value::None();
  LockManager::Request wd = OpReq(a, "withdraw", {10});
  wd.ret = Value(true);
  // Held deposit blocks a later successful withdraw on either account.
  ASSERT_EQ(lm.Acquire(t1, a, dep), LockManager::Outcome::kGranted);
  ASSERT_EQ(lm.Acquire(t1, b, dep), LockManager::Outcome::kGranted);
  EXPECT_EQ(lm.TryAcquire(t2, a, wd), LockManager::TryOutcome::kWouldBlock);
  EXPECT_EQ(lm.TryAcquire(t2, b, wd), LockManager::TryOutcome::kWouldBlock);
  // A balance read conflicts with the held deposit too; a second deposit
  // commutes with it.
  EXPECT_EQ(lm.TryAcquire(t2, a, OpReq(a, "balance")),
            LockManager::TryOutcome::kWouldBlock);
  EXPECT_EQ(lm.TryAcquire(t2, b, dep), LockManager::TryOutcome::kGranted);
  ASSERT_EQ(lm.Acquire(t1, other, dep), LockManager::Outcome::kGranted);

  const uint64_t* masks = lm.ConflictMasksOf(a);
  ASSERT_NE(masks, nullptr);
  EXPECT_EQ(lm.ConflictMasksOf(b), masks);
  EXPECT_EQ(masks, spec->conflict_tables().request_masks.data());
  EXPECT_NE(lm.ConflictMasksOf(other), masks);
  EXPECT_NE(lm.ConflictMasksOf(other), nullptr);
  // Releasing T1 unblocks T2 on both accounts.
  lm.ReleaseSubtree(t1);
  EXPECT_EQ(lm.TryAcquire(t2, a, wd), LockManager::TryOutcome::kGranted);
  EXPECT_EQ(lm.TryAcquire(t2, b, wd), LockManager::TryOutcome::kGranted);
  lm.ReleaseSubtree(t2);
  EXPECT_EQ(lm.LockCount(), 0u);
}

TEST(LockManagerTest, ReleaseSubtreeDropsDescendantLocks) {
  LockManager lm;
  rt::Object obj = MakeRegisterObject();
  rt::TxnNode top(1, nullptr, UINT32_MAX, "T");
  rt::TxnNode child(2, &top, 0, "m");
  ASSERT_EQ(lm.Acquire(top, obj, OpReq(obj, "write", {1})),
            LockManager::Outcome::kGranted);
  ASSERT_EQ(lm.Acquire(child, obj, OpReq(obj, "write", {2})),
            LockManager::Outcome::kGranted);
  EXPECT_EQ(lm.LockCount(), 2u);
  lm.ReleaseSubtree(top);
  EXPECT_EQ(lm.LockCount(), 0u);
}

TEST(LockManagerTest, TwoThreadDeadlockDetected) {
  LockManager lm;
  rt::Object o1 = MakeRegisterObject(0);
  rt::Object o2 = MakeRegisterObject(1);
  rt::TxnNode t1(1, nullptr, UINT32_MAX, "T1");
  rt::TxnNode t2(2, nullptr, UINT32_MAX, "T2");
  std::atomic<int> deadlocks{0};
  std::atomic<int> grants{0};
  std::thread a([&]() {
    lm.NoteRunning(ThisThreadKey(), &t1);
    EXPECT_EQ(lm.Acquire(t1, o1, OpReq(o1, "write", {1})),
              LockManager::Outcome::kGranted);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    auto r = lm.Acquire(t1, o2, OpReq(o2, "write", {1}));
    (r == LockManager::Outcome::kDeadlock ? deadlocks : grants)++;
    lm.NoteFinished(ThisThreadKey());
    lm.ReleaseSubtree(t1);
  });
  std::thread b([&]() {
    lm.NoteRunning(ThisThreadKey(), &t2);
    EXPECT_EQ(lm.Acquire(t2, o2, OpReq(o2, "write", {2})),
              LockManager::Outcome::kGranted);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    auto r = lm.Acquire(t2, o1, OpReq(o1, "write", {2}));
    (r == LockManager::Outcome::kDeadlock ? deadlocks : grants)++;
    lm.NoteFinished(ThisThreadKey());
    lm.ReleaseSubtree(t2);
  });
  a.join();
  b.join();
  // At least one side must have been chosen as deadlock victim, and the
  // other must eventually have been granted (after the victim released).
  EXPECT_GE(deadlocks.load(), 1);
  EXPECT_EQ(deadlocks.load() + grants.load(), 2);
}

}  // namespace
}  // namespace objectbase::cc
