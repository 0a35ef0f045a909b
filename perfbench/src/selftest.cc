// perfbench_selftest: shows that each output check of the benchmark accepts
// a correct result and rejects a deliberately perturbed one — a tally off by
// one unit, a recovered base missing one commit, a history whose committed
// count disagrees with the acknowledged count, a missing or empty log.
//
//   perfbench_selftest [--scratch <dir>]     (exit 0 = every case behaved)
#include <stdlib.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "perfbench/src/checks.h"
#include "src/adt/bank_account_adt.h"
#include "src/adt/counter_adt.h"
#include "src/runtime/executor.h"
#include "src/runtime/wal.h"

namespace {

namespace ob = objectbase;
namespace rt = objectbase::rt;
namespace fs = std::filesystem;
using perfbench::CheckBankTally;
using perfbench::CheckDictTotals;
using perfbench::CheckLogFiles;
using perfbench::CheckRecovery;
using perfbench::CloneStates;
using perfbench::CompareStates;
using perfbench::ReadInts;
using perfbench::VerifyHistory;

int failures = 0;

void Expect(bool passes, const std::string& detail, const char* what) {
  const bool ok = passes == detail.empty();
  std::printf("%-4s %s%s%s\n", ok ? "ok" : "FAIL", what,
              detail.empty() ? "" : " -> ", detail.c_str());
  if (!ok) ++failures;
}

rt::ExecutorOptions N2pl(bool record) {
  rt::ExecutorOptions o;
  o.protocol = rt::Protocol::kN2pl;
  o.record = record;
  return o;
}

constexpr int kAccounts = 8;
constexpr int kBranches = 4;
constexpr int64_t kInitial = 1000;

void BuildBank(rt::ObjectBase& base) {
  auto account = ob::adt::MakeBankAccountSpec(kInitial);
  auto counter = ob::adt::MakeCounterSpec(0);
  for (int i = 0; i < kAccounts; ++i) {
    base.CreateObject("a" + std::to_string(i), account);
  }
  for (int b = 0; b < kBranches; ++b) {
    base.CreateObject("branch" + std::to_string(b), counter);
  }
}

/// Transfer i moves (i % 7 + 1) from account i % 8 to (i + 3) % 8; returns
/// the committed amount (0 when the withdraw failed or nothing committed).
int64_t Transfer(rt::Executor& exec, int i) {
  const int src = i % kAccounts;
  const int dst = (i + 3) % kAccounts;
  const int64_t amount = i % 7 + 1;
  rt::TxnResult r = exec.RunTransaction("transfer", [&](rt::MethodCtx& txn) {
    const std::string s = "a" + std::to_string(src);
    if (!txn.Invoke(s, "withdraw", {amount}).AsBool()) return ob::Value(int64_t{0});
    txn.Invoke("a" + std::to_string(dst), "deposit", {amount});
    txn.Invoke("branch" + std::to_string(src % kBranches), "add", {-amount});
    txn.Invoke("branch" + std::to_string(dst % kBranches), "add", {amount});
    return ob::Value(amount);
  });
  return r.committed ? r.ret.AsInt() : 0;
}

std::vector<rt::MethodRef> Refs(rt::Executor& exec, const char* prefix, int n,
                                const char* method) {
  std::vector<rt::MethodRef> refs;
  for (int i = 0; i < n; ++i) {
    refs.push_back(exec.Resolve(prefix + std::to_string(i), method));
  }
  return refs;
}

void BankTallyCases() {
  rt::ObjectBase base;
  BuildBank(base);
  rt::Executor exec(base, N2pl(/*record=*/true));
  exec.ResetRecorder();
  std::vector<int64_t> delta(kAccounts, 0);
  uint64_t acked = 0;
  for (int i = 0; i < 40; ++i) {
    const int64_t moved = Transfer(exec, i);
    delta[i % kAccounts] -= moved;
    delta[(i + 3) % kAccounts] += moved;
    ++acked;
  }
  ob::model::History h = exec.recorder().Snapshot();
  perfbench::ModelTimes times;
  Expect(true, VerifyHistory(h, acked, true, &times), "recorded history verifies");
  Expect(false, VerifyHistory(h, acked + 1, false, &times),
         "history with one commit fewer than acknowledged is rejected");

  perfbench::ReadBack rb;
  std::vector<int64_t> balances = ReadInts(exec, Refs(exec, "a", kAccounts, "balance"), &rb);
  std::vector<int64_t> branches =
      ReadInts(exec, Refs(exec, "branch", kBranches, "get"), &rb);
  Expect(true, rb.ok ? "" : "read-back failed", "balances read back");
  Expect(true, CheckBankTally(balances, branches, kInitial, delta),
         "bank tally matches the program");
  std::vector<int64_t> off = delta;
  off[3] += 1;
  Expect(false, CheckBankTally(balances, branches, kInitial, off),
         "tally off by one unit is rejected");
  std::vector<int64_t> bad_branch = branches;
  bad_branch[1] -= 1;
  Expect(false, CheckBankTally(balances, bad_branch, kInitial, delta),
         "branch counter off by one unit is rejected");
}

void DictTotalCases() {
  Expect(true, CheckDictTotals(10, {4, 6}, 10), "dictionary totals match");
  Expect(false, CheckDictTotals(11, {4, 6}, 10), "total counter off by one is rejected");
  Expect(false, CheckDictTotals(10, {4, 6}, 9), "entry tally off by one is rejected");
}

void RecoveryCases(const std::string& dir) {
  const std::string log = (fs::path(dir) / "selftest.wal").string();
  rt::ObjectBase live;
  BuildBank(live);
  constexpr int kLogged = 20;
  {
    rt::ExecutorOptions o = N2pl(/*record=*/false);
    o.durability = rt::Durability::kGroup;
    o.wal_path = log;
    rt::Executor exec(live, o);
    for (int i = 0; i < kLogged; ++i) Transfer(exec, i);
  }  // clean shutdown: the log holds every commit
  auto logged_states = CloneStates(live);
  {
    // One more commit the log never sees.
    rt::Executor exec(live, N2pl(/*record=*/false));
    Transfer(exec, kLogged);
  }
  auto live_states = CloneStates(live);

  rt::ObjectBase recovered;
  BuildBank(recovered);
  rt::WalRecoveryResult r = rt::RecoverShardedWalInto(log, 1, recovered);
  Expect(true, CheckRecovery(r, kLogged), "recovery reads every logged commit");
  Expect(false, CheckRecovery(r, kLogged + 1), "recovery with a commit missing is rejected");
  Expect(true, CompareStates(logged_states, recovered),
         "recovered base equals the base the log describes");
  Expect(false, CompareStates(live_states, recovered),
         "recovered base missing one commit is rejected");

  uint64_t bytes = 0;
  Expect(true, CheckLogFiles(log, 1, &bytes), "log file present and non-empty");
  Expect(false, CheckLogFiles(log + ".absent", 1, &bytes), "missing log is rejected");
  const std::string empty = (fs::path(dir) / "empty.wal").string();
  std::ofstream(empty).close();
  Expect(false, CheckLogFiles(empty, 1, &bytes), "empty log is rejected");
}

}  // namespace

int main(int argc, char** argv) {
  std::string parent = ".";
  if (argc == 3 && std::string(argv[1]) == "--scratch") parent = argv[2];
  fs::create_directories(parent);
  std::string templ = (fs::path(parent) / "perfbench-selftest-XXXXXX").string();
  if (mkdtemp(templ.data()) == nullptr) {
    std::fprintf(stderr, "cannot create a directory under %s\n", parent.c_str());
    return 2;
  }
  BankTallyCases();
  DictTotalCases();
  RecoveryCases(templ);
  std::error_code ec;
  fs::remove_all(templ, ec);
  std::printf("%s: %d case(s) misbehaved\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
