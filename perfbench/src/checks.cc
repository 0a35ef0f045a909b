#include "perfbench/src/checks.h"

#include <sys/stat.h>

#include <chrono>
#include <numeric>

#include "src/model/legality.h"
#include "src/model/local_graphs.h"
#include "src/model/serialisation_graph.h"
#include "src/model/serialiser.h"

namespace perfbench {

namespace ob = objectbase;

namespace {

double SecondsOf(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::string Num(int64_t v) { return std::to_string(v); }

/// Top-level executions of `h` that committed.
uint64_t CommittedTops(const ob::model::History& h) {
  uint64_t n = 0;
  for (ob::model::ExecId e : h.TopLevel()) {
    if (!h.EffectivelyAborted(e)) ++n;
  }
  return n;
}

}  // namespace

std::vector<int64_t> ReadInts(ob::rt::Executor& exec,
                              const std::vector<ob::rt::MethodRef>& refs,
                              ReadBack* rb) {
  static const std::string kName = "perfbench_read";
  constexpr size_t kBatch = 256;
  std::vector<int64_t> out(refs.size(), 0);
  for (size_t lo = 0; lo < refs.size(); lo += kBatch) {
    const size_t hi = std::min(refs.size(), lo + kBatch);
    bool batch_ok = true;
    ob::rt::TxnResult r =
        exec.RunTransaction(kName, [&](ob::rt::MethodCtx& txn) {
          batch_ok = true;
          for (size_t i = lo; i < hi; ++i) {
            ob::Value v = txn.Invoke(refs[i]);
            if (v.is_int()) {
              out[i] = v.AsInt();
            } else {
              batch_ok = false;
            }
          }
          return ob::Value();
        });
    if (r.committed) ++rb->commits;
    if (!r.committed || !batch_ok) rb->ok = false;
  }
  return out;
}

std::string CheckBankTally(const std::vector<int64_t>& balances,
                           const std::vector<int64_t>& branch_counters,
                           int64_t initial,
                           const std::vector<int64_t>& delta) {
  if (balances.size() != delta.size()) return "account count differs";
  const size_t branches = branch_counters.size();
  if (branches == 0) return "no branch counters";
  std::vector<int64_t> branch_expected(branches, 0);
  int64_t money = 0;
  for (size_t i = 0; i < balances.size(); ++i) {
    if (balances[i] != initial + delta[i]) {
      return "account " + Num(static_cast<int64_t>(i)) + " holds " +
             Num(balances[i]) + ", tally says " + Num(initial + delta[i]);
    }
    branch_expected[i % branches] += delta[i];
    money += balances[i];
  }
  const int64_t expected_money = initial * static_cast<int64_t>(balances.size());
  if (money != expected_money) {
    return "money not conserved: " + Num(money) + " != " + Num(expected_money);
  }
  for (size_t b = 0; b < branches; ++b) {
    if (branch_counters[b] != branch_expected[b]) {
      return "branch " + Num(static_cast<int64_t>(b)) + " counter " +
             Num(branch_counters[b]) + ", tally says " +
             Num(branch_expected[b]);
    }
  }
  return "";
}

std::string CheckDictTotals(int64_t counter, const std::vector<int64_t>& sizes,
                            int64_t expected_entries) {
  const int64_t sum = std::accumulate(sizes.begin(), sizes.end(), int64_t{0});
  if (counter != sum) {
    return "total counter " + Num(counter) + " != sum of dictionary sizes " +
           Num(sum);
  }
  if (sum != expected_entries) {
    return "dictionaries hold " + Num(sum) + " entries, tally says " +
           Num(expected_entries);
  }
  return "";
}

std::vector<std::unique_ptr<ob::adt::AdtState>> CloneStates(
    const ob::rt::ObjectBase& base) {
  std::vector<std::unique_ptr<ob::adt::AdtState>> out;
  out.reserve(base.size());
  for (uint32_t id = 0; id < base.size(); ++id) {
    out.push_back(base.Get(id).state().Clone());
  }
  return out;
}

std::string CompareStates(
    const std::vector<std::unique_ptr<ob::adt::AdtState>>& expected,
    const ob::rt::ObjectBase& base) {
  if (expected.size() != base.size()) return "object count differs";
  for (uint32_t id = 0; id < base.size(); ++id) {
    if (!expected[id]->Equals(base.Get(id).state())) {
      return "object " + base.Get(id).name() + " differs: " +
             base.Get(id).state().ToString() + " vs " +
             expected[id]->ToString();
    }
  }
  return "";
}

std::string CheckRecovery(const ob::rt::WalRecoveryResult& r,
                          uint64_t expected_commits) {
  if (!r.ok) return "recovery could not read the log";
  if (r.torn) return "recovery found a torn log after a clean shutdown";
  if (r.ret_mismatches != 0) {
    return "recovery replayed " + Num(static_cast<int64_t>(r.ret_mismatches)) +
           " steps with a different return value";
  }
  if (r.unknown_objects != 0) return "recovery met unknown objects";
  if (r.committed_tops != expected_commits) {
    return "recovery found " + Num(static_cast<int64_t>(r.committed_tops)) +
           " commits, the run made " +
           Num(static_cast<int64_t>(expected_commits));
  }
  return "";
}

std::string CheckLogFiles(const std::string& base_path, uint32_t shards,
                          uint64_t* bytes) {
  *bytes = 0;
  for (uint32_t s = 0; s < shards; ++s) {
    const std::string path = ob::rt::ShardWalPath(base_path, s);
    struct stat st {};
    if (::stat(path.c_str(), &st) != 0) return "log " + path + " is missing";
    if (st.st_size <= 0) return "log " + path + " is empty";
    *bytes += static_cast<uint64_t>(st.st_size);
  }
  return "";
}

std::string VerifyHistory(const ob::model::History& h, uint64_t acknowledged,
                          bool time_sg_build, ModelTimes* times) {
  using Clock = std::chrono::steady_clock;
  times->execs = h.executions.size();
  times->steps = h.steps.size();

  auto t0 = Clock::now();
  ob::model::LegalityResult legal =
      ob::model::CheckLegal(h, /*committed_only=*/true);
  times->legality_s = SecondsOf(t0);

  t0 = Clock::now();
  ob::model::SerialisabilityCheck ser = ob::model::CheckSerialisable(h);
  times->serialise_s = SecondsOf(t0);

  t0 = Clock::now();
  ob::model::Theorem5Result t5 = ob::model::CheckTheorem5(h);
  times->theorem5_s = SecondsOf(t0);

  if (time_sg_build) {
    t0 = Clock::now();
    ob::model::Digraph sg = ob::model::BuildSerialisationGraph(h);
    times->sg_build_s = SecondsOf(t0);
    if (sg.size() == 0 && !h.executions.empty()) return "empty SG(h)";
  }

  if (!legal.legal) return "history not legal: " + legal.error;
  if (!ser.serialisable) return "history not serialisable: " + ser.detail;
  if (!t5.holds) return "Theorem 5 fails: " + t5.detail;
  const uint64_t committed = CommittedTops(h);
  if (committed != acknowledged) {
    return "history holds " + Num(static_cast<int64_t>(committed)) +
           " committed transactions, clients saw " +
           Num(static_cast<int64_t>(acknowledged)) + " acknowledged";
  }
  return "";
}

}  // namespace perfbench
