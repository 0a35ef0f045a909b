// Shared harness for the protocol correctness tests.
//
// Each scenario runs a genuinely contended multi-threaded workload under a
// given protocol with history recording on, then checks the recorded
// history against the paper's machinery:
//   * CheckLegal on the committed projection (Definition 6 + Section 3(a));
//   * CheckSerialisable — SG(h) acyclic (Theorem 2) AND replay-equivalence
//     to the constructed serial history (Definition 7);
//   * CheckTheorem5 — the intra-/inter-object conditions;
// plus scenario-specific semantic invariants (conservation of money, no
// lost counter increments, queue items neither lost nor duplicated).
#ifndef OBJECTBASE_TESTS_PROTOCOL_HARNESS_H_
#define OBJECTBASE_TESTS_PROTOCOL_HARNESS_H_

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/adt/bank_account_adt.h"
#include "src/adt/counter_adt.h"
#include "src/adt/queue_adt.h"
#include "src/adt/register_adt.h"
#include "src/adt/set_adt.h"
#include "src/common/rng.h"
#include "src/model/legality.h"
#include "src/model/local_graphs.h"
#include "src/model/serialiser.h"
#include "src/runtime/executor.h"

namespace objectbase::rt {

inline void VerifyHistory(Executor& exec, const char* context) {
  model::History h = exec.recorder().Snapshot();
  model::LegalityResult legal = model::CheckLegal(h, /*committed_only=*/true);
  EXPECT_TRUE(legal.legal) << context << ": " << legal.error;
  model::SerialisabilityCheck check = model::CheckSerialisable(h);
  EXPECT_TRUE(check.serialisable) << context << ": " << check.detail;
  model::Theorem5Result t5 = model::CheckTheorem5(h);
  EXPECT_TRUE(t5.holds) << context << ": " << t5.detail;
}

/// Banking: `threads` workers transfer random amounts between `accounts`
/// hot accounts.  Verifies conservation of money and the formal oracle.
inline void RunBankingScenario(Protocol protocol, cc::Granularity granularity,
                               int threads, int txns_per_thread,
                               int accounts, uint64_t seed,
                               bool parallel_deposit = false) {
  ObjectBase base;
  const int64_t initial = 1000;
  for (int i = 0; i < accounts; ++i) {
    base.CreateObject("acct:" + std::to_string(i),
                      adt::MakeBankAccountSpec(initial));
  }
  Executor exec(base,
                {.protocol = protocol, .granularity = granularity});
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t]() {
      Rng rng(seed + t * 7919);
      for (int i = 0; i < txns_per_thread; ++i) {
        int from = static_cast<int>(rng.Uniform(accounts));
        int to = static_cast<int>(rng.Uniform(accounts));
        if (to == from) to = (to + 1) % accounts;
        int64_t amount = rng.Range(1, 50);
        std::string from_name = "acct:" + std::to_string(from);
        std::string to_name = "acct:" + std::to_string(to);
        exec.RunTransaction("transfer", [&, amount](MethodCtx& txn) -> Value {
          Value ok = txn.Invoke(from_name, "withdraw", {amount});
          if (!ok.AsBool()) return Value(false);
          if (parallel_deposit) {
            auto outcomes =
                txn.InvokeParallel({{to_name, "deposit", {amount}}});
            // Under partial-abort protocols (N2PL/CERT) a failed parallel
            // branch is reported, not propagated; conservation needs the
            // withdraw/deposit pair to be all-or-nothing, so abort (the
            // top-level retry loop re-runs the transfer).
            if (!outcomes[0].ok) txn.Abort();
          } else {
            txn.Invoke(to_name, "deposit", {amount});
          }
          return Value(true);
        });
      }
    });
  }
  for (auto& w : workers) w.join();

  // Conservation of money: withdraw/deposit pairs are atomic.
  int64_t total = 0;
  exec.RunTransaction("audit", [&](MethodCtx& txn) {
    for (int i = 0; i < accounts; ++i) {
      total += txn.Invoke("acct:" + std::to_string(i), "balance").AsInt();
    }
    return Value();
  });
  EXPECT_EQ(total, initial * accounts)
      << ProtocolName(protocol) << " lost or created money";
  EXPECT_GT(exec.stats().committed.load(), 0u);
  VerifyHistory(exec, ProtocolName(protocol));
}

/// Journal footprint: two workers run transfer rings over the first
/// `touched` of `accounts` accounts; the rest are never invoked.  A
/// journaled protocol (NTO, CERT) links an applied-journal chunk on every
/// touched object and on no other; a locking protocol (N2PL, GEMSTONE)
/// never journals, so no object links one.
inline void CheckJournalFootprint(Protocol protocol, bool journaled) {
  constexpr int kAccounts = 24;
  constexpr int kTouched = 16;
  constexpr int64_t kInitial = 1000;
  ObjectBase base;
  for (int i = 0; i < kAccounts; ++i) {
    base.CreateObject("acct:" + std::to_string(i),
                      adt::MakeBankAccountSpec(kInitial));
  }
  Executor exec(base, {.protocol = protocol});
  std::vector<std::thread> workers;
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&, t]() {
      for (int i = 0; i < kTouched; ++i) {
        const std::string from = "acct:" + std::to_string(i);
        const std::string to =
            "acct:" + std::to_string((i + 1 + t) % kTouched);
        TxnResult r = exec.RunTransaction("transfer", [&](MethodCtx& txn) {
          if (txn.Invoke(from, "withdraw", {5}).AsBool()) {
            txn.Invoke(to, "deposit", {5});
          }
          return Value();
        });
        EXPECT_TRUE(r.committed) << ProtocolName(protocol) << " " << from;
      }
    });
  }
  for (auto& w : workers) w.join();
  int64_t total = 0;
  for (int i = 0; i < kAccounts; ++i) {
    const std::string name = "acct:" + std::to_string(i);
    const size_t chunks = base.Find(name)->journal().LinkedChunks();
    if (journaled && i < kTouched) {
      EXPECT_GT(chunks, 0u) << ProtocolName(protocol) << " " << name;
    } else {
      EXPECT_EQ(chunks, 0u) << ProtocolName(protocol) << " " << name;
    }
    if (i < kTouched) {
      total += exec.RunTransaction("audit", [&](MethodCtx& txn) {
                     return txn.Invoke(name, "balance");
                   }).ret.AsInt();
    }
  }
  EXPECT_EQ(total, kInitial * kTouched) << ProtocolName(protocol);
}

/// Counters: concurrent semantic adds; the final value must equal the sum
/// of committed deltas exactly.
inline void RunCounterScenario(Protocol protocol, cc::Granularity granularity,
                               int threads, int txns_per_thread,
                               uint64_t seed) {
  ObjectBase base;
  base.CreateObject("hot", adt::MakeCounterSpec(0));
  Executor exec(base,
                {.protocol = protocol, .granularity = granularity});
  std::vector<int64_t> committed_sum(threads, 0);
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t]() {
      Rng rng(seed + t);
      int64_t sum = 0;
      for (int i = 0; i < txns_per_thread; ++i) {
        int64_t d = rng.Range(1, 9);
        TxnResult r = exec.RunTransaction("bump", [d](MethodCtx& txn) {
          txn.Invoke("hot", "add", {d});
          return Value();
        });
        if (r.committed) sum += d;
      }
      committed_sum[t] = sum;
    });
  }
  for (auto& w : workers) w.join();
  int64_t expected = 0;
  for (int64_t s : committed_sum) expected += s;
  TxnResult check = exec.RunTransaction("check", [](MethodCtx& txn) {
    return txn.Invoke("hot", "get");
  });
  EXPECT_EQ(check.ret, Value(expected))
      << ProtocolName(protocol) << " lost increments";
  VerifyHistory(exec, ProtocolName(protocol));
}

/// Queues: producers enqueue unique tags, consumers drain.  Items must be
/// neither lost nor duplicated across committed transactions.
inline void RunQueueScenario(Protocol protocol, cc::Granularity granularity,
                             int threads, int txns_per_thread,
                             uint64_t seed) {
  ObjectBase base;
  base.CreateObject("q", adt::MakeQueueSpec());
  Executor exec(base,
                {.protocol = protocol, .granularity = granularity});
  std::atomic<int64_t> next_tag{1};
  std::mutex seen_mu;
  std::vector<int64_t> consumed;
  std::atomic<int64_t> produced{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t]() {
      Rng rng(seed + t * 31);
      for (int i = 0; i < txns_per_thread; ++i) {
        if (rng.Bernoulli(0.55)) {
          int64_t tag = next_tag.fetch_add(1);
          TxnResult r = exec.RunTransaction("produce", [tag](MethodCtx& txn) {
            txn.Invoke("q", "enqueue", {tag});
            return Value();
          });
          if (r.committed) produced.fetch_add(1);
        } else {
          TxnResult r = exec.RunTransaction("consume", [](MethodCtx& txn) {
            return txn.Invoke("q", "dequeue");
          });
          if (r.committed && !r.ret.is_none()) {
            std::lock_guard<std::mutex> g(seen_mu);
            consumed.push_back(r.ret.AsInt());
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  // No duplicates among consumed tags.
  std::sort(consumed.begin(), consumed.end());
  EXPECT_TRUE(std::adjacent_find(consumed.begin(), consumed.end()) ==
              consumed.end())
      << ProtocolName(protocol) << " delivered a duplicate item";
  // Remaining queue length = produced - consumed.
  TxnResult len = exec.RunTransaction("len", [](MethodCtx& txn) {
    return txn.Invoke("q", "length");
  });
  EXPECT_EQ(len.ret.AsInt(),
            produced.load() - static_cast<int64_t>(consumed.size()))
      << ProtocolName(protocol) << " lost items";
  VerifyHistory(exec, ProtocolName(protocol));
}

/// Random mixed-ADT stress with nesting and occasional parallel batches.
inline void RunMixedStressScenario(Protocol protocol,
                                   cc::Granularity granularity, int threads,
                                   int txns_per_thread, uint64_t seed) {
  ObjectBase base;
  base.CreateObject("reg", adt::MakeRegisterSpec(0));
  base.CreateObject("ctr", adt::MakeCounterSpec(0));
  base.CreateObject("set", adt::MakeSetSpec());
  base.CreateObject("acct", adt::MakeBankAccountSpec(10'000));
  Executor exec(base,
                {.protocol = protocol, .granularity = granularity});
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t]() {
      Rng rng(seed + t * 1237);
      for (int i = 0; i < txns_per_thread; ++i) {
        int64_t k = rng.Range(0, 9);
        int64_t d = rng.Range(1, 5);
        int shape = static_cast<int>(rng.Uniform(4));
        exec.RunTransaction("stress", [=](MethodCtx& txn) -> Value {
          switch (shape) {
            case 0:
              txn.Invoke("set", "insert", {k});
              txn.Invoke("ctr", "add", {1});
              break;
            case 1:
              txn.Invoke("set", "erase", {k});
              txn.Invoke("reg", "increment", {d});
              break;
            case 2: {
              Value ok = txn.Invoke("acct", "withdraw", {d});
              if (ok.AsBool()) txn.Invoke("ctr", "add", {d});
              break;
            }
            default:
              txn.InvokeParallel({{"ctr", "add", {d}},
                                  {"reg", "increment", {d}}});
              break;
          }
          return Value();
        });
      }
    });
  }
  for (auto& w : workers) w.join();
  VerifyHistory(exec, ProtocolName(protocol));
}

}  // namespace objectbase::rt

#endif  // OBJECTBASE_TESTS_PROTOCOL_HARNESS_H_
