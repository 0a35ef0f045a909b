// Executor basics, protocol-independent: invocation, nesting, implicit
// methods, parallel batches, recording, history well-formedness.
#include "src/runtime/executor.h"

#include <gtest/gtest.h>

#include "src/adt/bank_account_adt.h"
#include "src/adt/counter_adt.h"
#include "src/adt/register_adt.h"
#include "src/model/legality.h"
#include "src/model/serialiser.h"

namespace objectbase::rt {
namespace {

class ExecutorBasicTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(ExecutorBasicTest, SingleTransactionImplicitMethods) {
  ObjectBase base;
  base.CreateObject("acct", adt::MakeBankAccountSpec(100));
  Executor exec(base, {.protocol = GetParam()});
  TxnResult r = exec.RunTransaction("t", [](MethodCtx& txn) {
    Value ok = txn.Invoke("acct", "withdraw", {30});
    EXPECT_EQ(ok, Value(true));
    return txn.Invoke("acct", "balance");
  });
  ASSERT_TRUE(r.committed);
  EXPECT_EQ(r.ret, Value(70));
}

TEST_P(ExecutorBasicTest, RegisteredMethodsNestAndReturn) {
  ObjectBase base;
  base.CreateObject("acct", adt::MakeBankAccountSpec(100));
  base.CreateObject("log", adt::MakeCounterSpec(0));
  Executor exec(base, {.protocol = GetParam()});
  // A method of "acct" that performs local steps AND messages another
  // object — the Section 1 shape (methods send messages to other objects).
  ASSERT_TRUE(exec.DefineMethod("acct", "audited_withdraw", [](MethodCtx& m) -> Value {
    Value ok = m.Local("withdraw", m.args());
    m.Invoke("log", "add", {1});
    return ok;
  }));
  TxnResult r = exec.RunTransaction("t", [](MethodCtx& txn) {
    return txn.Invoke("acct", "audited_withdraw", {25});
  });
  ASSERT_TRUE(r.committed);
  EXPECT_EQ(r.ret, Value(true));
  TxnResult check = exec.RunTransaction("check", [](MethodCtx& txn) {
    EXPECT_EQ(txn.Invoke("log", "get"), Value(1));
    return txn.Invoke("acct", "balance");
  });
  EXPECT_EQ(check.ret, Value(75));
}

TEST_P(ExecutorBasicTest, ParallelBatchRunsAllBranches) {
  ObjectBase base;
  base.CreateObject("c0", adt::MakeCounterSpec(0));
  base.CreateObject("c1", adt::MakeCounterSpec(0));
  base.CreateObject("c2", adt::MakeCounterSpec(0));
  Executor exec(base, {.protocol = GetParam()});
  TxnResult r = exec.RunTransaction("t", [](MethodCtx& txn) {
    auto outcomes = txn.InvokeParallel({
        {"c0", "add", {1}},
        {"c1", "add", {2}},
        {"c2", "add", {3}},
    });
    EXPECT_EQ(outcomes.size(), 3u);
    for (const auto& o : outcomes) EXPECT_TRUE(o.ok);
    int64_t sum = 0;
    sum += txn.Invoke("c0", "get").AsInt();
    sum += txn.Invoke("c1", "get").AsInt();
    sum += txn.Invoke("c2", "get").AsInt();
    return Value(sum);
  });
  ASSERT_TRUE(r.committed);
  EXPECT_EQ(r.ret, Value(6));
}

TEST_P(ExecutorBasicTest, RecordedHistoryIsLegalAndSerialisable) {
  ObjectBase base;
  base.CreateObject("a", adt::MakeRegisterSpec(0));
  base.CreateObject("b", adt::MakeCounterSpec(0));
  Executor exec(base, {.protocol = GetParam()});
  for (int i = 0; i < 5; ++i) {
    exec.RunTransaction("t", [i](MethodCtx& txn) {
      txn.Invoke("a", "write", {i});
      txn.Invoke("b", "add", {i});
      return txn.Invoke("a", "read");
    });
  }
  model::History h = exec.recorder().Snapshot();
  EXPECT_EQ(h.TopLevel().size(), 5u);
  model::LegalityResult legal = model::CheckLegal(h, /*committed_only=*/true);
  EXPECT_TRUE(legal.legal) << legal.error;
  model::SerialisabilityCheck check = model::CheckSerialisable(h);
  EXPECT_TRUE(check.serialisable) << check.detail;
}

TEST_P(ExecutorBasicTest, UnknownObjectOrMethodAborts) {
  ObjectBase base;
  base.CreateObject("a", adt::MakeRegisterSpec(0));
  Executor exec(base, {.protocol = GetParam(), .max_top_retries = 2});
  TxnResult r1 = exec.RunTransaction("t", [](MethodCtx& txn) {
    return txn.Invoke("nonexistent", "read");
  });
  EXPECT_FALSE(r1.committed);
  TxnResult r2 = exec.RunTransaction("t", [](MethodCtx& txn) {
    return txn.Invoke("a", "frobnicate");
  });
  EXPECT_FALSE(r2.committed);
  EXPECT_EQ(r2.last_abort, cc::AbortReason::kUser);
}

TEST_P(ExecutorBasicTest, EnvironmentHasNoLocalSteps) {
  ObjectBase base;
  base.CreateObject("a", adt::MakeRegisterSpec(0));
  Executor exec(base, {.protocol = GetParam(), .max_top_retries = 1});
  TxnResult r = exec.RunTransaction("t", [](MethodCtx& txn) {
    return txn.Local("read");  // invalid at top level
  });
  EXPECT_FALSE(r.committed);
}

TEST_P(ExecutorBasicTest, StatsCountCommits) {
  ObjectBase base;
  base.CreateObject("c", adt::MakeCounterSpec(0));
  Executor exec(base, {.protocol = GetParam()});
  for (int i = 0; i < 7; ++i) {
    exec.RunTransaction("t", [](MethodCtx& txn) {
      return txn.Invoke("c", "add", {1});
    });
  }
  EXPECT_EQ(exec.stats().committed.load(), 7u);
}

// Objects keep their applied journals across executors, so a second
// executor on a used base meets the first one's timestamps and uids.  It
// must draw past them: with per-executor counters restarting at 1, every
// NTO step of the second executor lost to an older-looking remembered step
// and no transaction committed within its retry budget.
TEST_P(ExecutorBasicTest, SecondExecutorOnUsedBaseCommits) {
  ObjectBase base;
  base.CreateObject("c", adt::MakeCounterSpec(0));
  base.CreateObject("r", adt::MakeRegisterSpec(0));
  auto bump = [](int64_t v) {
    return [v](MethodCtx& txn) {
      txn.Invoke("c", "add", {1});
      txn.Invoke("r", "write", {v});
      return Value();
    };
  };
  {
    Executor first(base, {.protocol = GetParam(), .record = false});
    for (int i = 0; i < 2000; ++i) {
      ASSERT_TRUE(first.RunTransaction("first", bump(i)).committed);
    }
  }
  Executor second(base, {.protocol = GetParam(), .max_top_retries = 5});
  int committed = 0;
  for (int i = 0; i < 200; ++i) {
    if (second.RunTransaction("second", bump(i)).committed) ++committed;
  }
  EXPECT_EQ(committed, 200);
  TxnResult total = second.RunTransaction(
      "total", [](MethodCtx& txn) { return txn.Invoke("c", "get"); });
  ASSERT_TRUE(total.committed);
  EXPECT_EQ(total.ret, Value(int64_t{2000 + committed}));
  model::History h = second.recorder().Snapshot();
  model::LegalityResult legal = model::CheckLegal(h, /*committed_only=*/true);
  EXPECT_TRUE(legal.legal) << legal.error;
  model::SerialisabilityCheck check = model::CheckSerialisable(h);
  EXPECT_TRUE(check.serialisable) << check.detail;
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ExecutorBasicTest,
    ::testing::Values(Protocol::kN2pl, Protocol::kNto, Protocol::kCert,
                      Protocol::kGemstone, Protocol::kMixed),
    [](const ::testing::TestParamInfo<Protocol>& info) {
      return ProtocolName(info.param);
    });

TEST(ExecutorTest, HierarchicalTimestampsFollowRule2) {
  ObjectBase base;
  base.CreateObject("c", adt::MakeCounterSpec(0));
  Executor exec(base, {.protocol = Protocol::kNto});
  std::vector<cc::Hts> child_ts;
  ASSERT_TRUE(exec.DefineMethod("c", "noop", [](MethodCtx& m) -> Value {
    (void)m;
    return Value();
  }));
  exec.RunTransaction("t", [&](MethodCtx& txn) {
    txn.Invoke("c", "noop");
    txn.Invoke("c", "noop");
    return Value();
  });
  model::History h = exec.recorder().Snapshot();
  // Two sequential messages: type (b) edges exist, and the recorded
  // executions are in creation order.
  model::Digraph sg = model::BuildSerialisationGraph(h);
  ASSERT_EQ(h.executions.size(), 3u);
  EXPECT_TRUE(sg.HasEdge(1, 2));
}

}  // namespace
}  // namespace objectbase::rt
