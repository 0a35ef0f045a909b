// The banking and queue FSM builders: their mixes are i.i.d. (every
// transition row is the state weights), they run under every protocol
// through FsmRunner, and their invariants hold.
#include <gtest/gtest.h>

#include "src/workload/fsm_scenarios.h"

namespace objectbase::workload {
namespace {

TEST(WorkloadTest, MixRowsEqualStateWeights) {
  BankingParams bp;
  bp.audit_weight = 0.25;
  FsmWorkload bank = MakeBankingFsm(bp);
  ASSERT_EQ(bank.transitions.size(), 2u);
  for (const std::vector<double>& row : bank.transitions) {
    EXPECT_DOUBLE_EQ(row[0], 0.75);
    EXPECT_DOUBLE_EQ(row[1], 0.25);
  }
  bp.audit_weight = 0;
  EXPECT_EQ(MakeBankingFsm(bp).states.size(), 1u) << "no audit state";

  QueueParams qp;
  qp.producer_weight = 3;
  qp.consumer_weight = 1;
  FsmWorkload queue = MakeQueueFsm(qp);
  ASSERT_EQ(queue.transitions.size(), 2u);
  for (const std::vector<double>& row : queue.transitions) {
    EXPECT_DOUBLE_EQ(row[0], 0.75);
    EXPECT_DOUBLE_EQ(row[1], 0.25);
  }
}

TEST(WorkloadTest, BankingRunsUnderAllProtocols) {
  BankingParams p;
  p.accounts = 8;
  p.branches = 2;
  for (rt::Protocol protocol :
       {rt::Protocol::kN2pl, rt::Protocol::kNto, rt::Protocol::kCert,
        rt::Protocol::kGemstone, rt::Protocol::kMixed}) {
    rt::ObjectBase base;
    SetupBanking(base, p);
    rt::Executor exec(base, {.protocol = protocol, .record = false});
    FsmWorkload w = MakeBankingFsm(p);
    w.threads = 3;
    w.iterations = 20;
    FsmRunResult r =
        FsmRunner(exec, {.mode = FsmMode::kParallel}).Run({&w});
    EXPECT_TRUE(r.ok()) << rt::ProtocolName(protocol) << ": "
                        << (r.failures.empty() ? "" : r.failures[0]);
    EXPECT_EQ(r.visits, static_cast<uint64_t>(w.threads * w.iterations));
    EXPECT_GT(r.committed, 0u) << rt::ProtocolName(protocol);
    EXPECT_GT(r.VisitsPerSecond(), 0.0);
  }
}

TEST(WorkloadTest, BankingConservesMoney) {
  BankingParams p;
  p.accounts = 6;
  p.branches = 2;
  p.audit_weight = 0.0;
  rt::ObjectBase base;
  SetupBanking(base, p);
  rt::Executor exec(base, {.protocol = rt::Protocol::kN2pl, .record = false});
  FsmWorkload w = MakeBankingFsm(p);
  w.threads = 4;
  w.iterations = 50;
  FsmRunResult r = FsmRunner(exec, {.mode = FsmMode::kParallel}).Run({&w});
  EXPECT_TRUE(r.ok()) << (r.failures.empty() ? "" : r.failures[0]);
  // The teardown audits too; this re-reads by name, independently of the
  // workload's own handles.
  int64_t total = 0;
  exec.RunTransaction("audit", [&](rt::MethodCtx& txn) {
    for (int i = 0; i < p.accounts; ++i) {
      total += txn.Invoke("acct:" + std::to_string(i), "balance").AsInt();
    }
    for (int i = 0; i < p.branches; ++i) {
      total += txn.Invoke("branch:" + std::to_string(i), "get").AsInt();
    }
    return Value();
  });
  EXPECT_EQ(total, p.initial * p.accounts);
}

TEST(WorkloadTest, QueueFsmPrefillsAndRuns) {
  QueueParams p;
  p.queues = 2;
  p.batch = 3;
  p.prefill = 5;
  rt::ObjectBase base;
  SetupQueues(base, p);
  rt::Executor exec(base, {.protocol = rt::Protocol::kN2pl,
                           .granularity = cc::Granularity::kStep,
                           .record = false});
  FsmWorkload w = MakeQueueFsm(p);
  w.threads = 2;
  w.iterations = 30;
  w.setup(exec);
  for (int q = 0; q < p.queues; ++q) {
    rt::TxnResult len = exec.RunTransaction("len", [q](rt::MethodCtx& txn) {
      return txn.Invoke("queue:" + std::to_string(q), "length");
    });
    EXPECT_EQ(len.ret, Value(p.prefill)) << "queue " << q;
  }
  // Run() calls setup again, which enqueues a second, distinct prefill.
  FsmRunResult r = FsmRunner(exec, {.mode = FsmMode::kParallel}).Run({&w});
  EXPECT_TRUE(r.ok());
  EXPECT_GT(r.committed, 0u);
}

TEST(WorkloadTest, BankingAbortsAreAttributed) {
  BankingParams p;
  p.accounts = 2;  // maximal contention
  p.branches = 1;
  rt::ObjectBase base;
  SetupBanking(base, p);
  rt::Executor exec(base, {.protocol = rt::Protocol::kNto, .record = false});
  FsmWorkload w = MakeBankingFsm(p);
  w.threads = 4;
  w.iterations = 40;
  FsmRunResult r = FsmRunner(exec, {.mode = FsmMode::kParallel}).Run({&w});
  EXPECT_TRUE(r.ok());
  // Every aborted attempt is charged to exactly one reason.
  uint64_t by_reason = 0;
  for (size_t i = 0; i < cc::kNumAbortReasons; ++i) {
    by_reason += exec.stats().AbortsFor(static_cast<cc::AbortReason>(i));
  }
  EXPECT_EQ(exec.stats().aborted.load(), by_reason);
}

}  // namespace
}  // namespace objectbase::workload
