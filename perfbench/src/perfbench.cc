// perfbench: the ObjectBase benchmark driver.
//
//   perfbench --workload <bank-spread|bank-hot|dict-durable> --seed <n>
//             --seconds <s> --trace <0|1> --scratch <dir>
//             [--sha <git sha>] [--digest <source digest>]
//
// One process: set up the workload's base several times (setup_s is the
// median), drive it with closed-loop clients for a warm-up and then
// `--seconds` measured seconds, check the outputs against the benchmark's
// tally, produce and check fixed-size recorded runs on fresh bases
// (verify_s), then make a fixed-size logged run on a fresh base and recover
// its log into freshly built bases (recover_s).  perfbench/run.py runs
// several processes and takes medians.  `--trace 0` reports the end-to-end
// metrics; `--trace 1` times every Invoke and transaction body from here and
// reports the per-layer metrics.  The last line of standard output is
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the line before it ({"perfbench": ...}) holds the same run with its
// stamps, sample counts and details, for perfbench/compare.py.  The exit
// code is 0 only when every check passed.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/checks.h"
#include "perfbench/src/workloads.h"
#include "src/adt/bank_account_adt.h"
#include "src/adt/btree_dictionary_adt.h"
#include "src/adt/counter_adt.h"
#include "src/runtime/wal.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace ob = objectbase;
namespace rt = objectbase::rt;
namespace fs = std::filesystem;

constexpr int kClients = 4;
// Size of the recorded run the model layer checks (its cost grows faster
// than linearly, so it is fixed) and of the logged run recovery replays.
constexpr int kVerifyTxns = 600;
constexpr int kVerifyReps = 3;
constexpr int kLoggedTxns = 4000;
// Set-up and recovery repeat at least kMinReps times and until they have
// taken kRepSeconds (at most kMaxReps times); the median is reported.
constexpr int kMinReps = 3;
constexpr int kMaxReps = 1001;
constexpr double kRepSeconds = 1.0;
constexpr double kWarmupSeconds = 1.0;
// The measured phase is cut into windows of this length.  commit_tput and
// the latency percentiles are medians over the windows of each window's
// rate and exact percentiles, so a stretch of lost CPU time or a slow disk
// (another tenant, a stolen vCPU) moves them less.
constexpr double kWindowSeconds = 0.1;

struct Cli {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch = ".";
  std::string sha = "unknown";
  std::string digest = "unknown";
};

// ------------------------------------------------------------ measurement --

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of the samples (exact; reorders `v`): the
/// smallest sample with at least p% of the samples at or below it.
template <typename T>
double Percentile(std::vector<T>& v, double p) {
  if (v.empty()) return 0;
  const double r = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  size_t rank = r < 1 ? 0 : static_cast<size_t>(r) - 1;
  if (rank >= v.size()) rank = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank), v.end());
  return static_cast<double>(v[rank]);
}

struct Usage {
  double user_s = 0;
  double sys_s = 0;
  long voluntary_cs = 0;
  long involuntary_cs = 0;
  long max_rss_kb = 0;
};

Usage ReadUsage() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return {tv(ru.ru_utime), tv(ru.ru_stime), ru.ru_nvcsw, ru.ru_nivcsw,
          ru.ru_maxrss};
}

/// Resident set size of this process now, from /proc/self/statm.
uint64_t CurrentRssBytes() {
  std::ifstream in("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  in >> size >> resident;
  return resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// ------------------------------------------------------------------ JSON --

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(ms[i].name) + ": {\"value\": " + Number(ms[i].value) +
           ", \"unit\": " + Quote(ms[i].unit) + "}";
  }
  return out + "}";
}

/// Flat JSON object from (key, already-encoded value) pairs.
std::string Object(const std::vector<std::pair<std::string, std::string>>& kv) {
  std::string out = "{";
  for (size_t i = 0; i < kv.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(kv[i].first) + ": " + kv[i].second;
  }
  return out + "}";
}

// -------------------------------------------------------------- scratch --

/// A private directory for one run's logs, removed when the run ends.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& parent) {
    fs::create_directories(parent);
    std::string templ = (fs::path(parent) / "perfbench-XXXXXX").string();
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    if (mkdtemp(buf.data()) != nullptr) path_ = buf.data();
  }
  ~ScratchDir() {
    std::error_code ec;
    if (!path_.empty()) fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  bool ok() const { return !path_.empty(); }
  std::string File(const std::string& name) const {
    return (fs::path(path_) / name).string();
  }

 private:
  std::string path_;
};

// ---------------------------------------------------------------- driver --

class Bench {
 public:
  Bench(const Cli& cli, Workload& w, const ScratchDir& dir)
      : cli_(cli), w_(w), log_path_(dir.File("wal")), clients_(kClients) {
    for (int i = 0; i < kClients; ++i) {
      Client& c = clients_[i];
      c.id = i;
      c.rng = Rng::Stream(cli.seed, static_cast<uint64_t>(i));
      Workload* wp = &w_;
      Client* cp = &c;
      c.body = [wp, cp](rt::MethodCtx& txn) -> ob::Value {
        if (!cp->tracing) return wp->Body(*cp, txn);
        const auto t0 = Clock::now();
        ob::Value v = wp->Body(*cp, txn);
        cp->body_ns = NsBetween(t0, Clock::now());
        return v;
      };
    }
  }

  void Run() {
    Setup();
    Measure();
    CheckLive("measured phase");
    Verify();
    Recover();
    if (cli_.trace) ApplyFloor();
  }

  bool correct() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

  uint64_t attempted() const {
    uint64_t n = 0;
    for (const Client& c : clients_) n += c.attempted;
    return n;
  }
  uint64_t failed() const {
    uint64_t n = 0;
    for (const Client& c : clients_) n += c.failed;
    return n;
  }

  void Print() {
    std::vector<Metric> e2e = EndToEnd();
    std::vector<Metric> layer = PerLayer();
    const std::vector<Metric>& reported = cli_.trace ? layer : e2e;
    const Usage u = ReadUsage();
    std::string failures = "[";
    for (size_t i = 0; i < failures_.size(); ++i) {
      failures += (i ? ", " : "") + Quote(failures_[i]);
    }
    failures += "]";
    const std::string stamp = Object({
        {"git_sha", Quote(cli_.sha)},
        {"source_digest", Quote(cli_.digest)},
        {"nproc", std::to_string(std::thread::hardware_concurrency())},
        {"build_type", Quote(PERFBENCH_BUILD_TYPE)},
        {"compiler", Quote(std::string("g++ ") + __VERSION__)},
        {"cpu_model", Quote(CpuModel())},
        {"user_s", Number(u.user_s)},
        {"sys_s", Number(u.sys_s)},
        {"voluntary_cs", std::to_string(u.voluntary_cs)},
        {"involuntary_cs", std::to_string(u.involuntary_cs)},
        {"measured_user_s", Number(m_usage_.user_s)},
        {"measured_sys_s", Number(m_usage_.sys_s)},
        {"measured_voluntary_cs", std::to_string(m_usage_.voluntary_cs)},
        {"measured_involuntary_cs", std::to_string(m_usage_.involuntary_cs)},
    });
    const std::string samples = Object({
        {"txn", std::to_string(txn_samples_)},
        {"invoke", std::to_string(invoke_samples_)},
        {"commit", std::to_string(commit_samples_)},
        {"setup", std::to_string(setup_reps_)},
        {"recover", std::to_string(recover_reps_)},
    });
    for (size_t r = 0; r < ob::cc::kNumAbortReasons; ++r) {
      uint64_t n = 0;
      for (const Client& c : clients_) n += c.failed_by_reason[r];
      if (n > 0) {
        info_[std::string("failed_") +
              ob::cc::AbortReasonName(static_cast<ob::cc::AbortReason>(r))] =
            static_cast<double>(n);
      }
    }
    std::vector<std::pair<std::string, std::string>> info_kv;
    for (const auto& [k, v] : info_) info_kv.push_back({k, Number(v)});
    std::printf(
        "{\"perfbench\": %s}\n",
        Object({{"workload", Quote(cli_.workload)},
                {"seed", std::to_string(cli_.seed)},
                {"seconds", Number(cli_.seconds)},
                {"trace", cli_.trace ? "1" : "0"},
                {"clients", std::to_string(kClients)},
                {"correct", correct() ? "true" : "false"},
                {"failures", failures},
                {"attempted", std::to_string(attempted())},
                {"failed", std::to_string(failed())},
                {"stamp", stamp},
                {"samples", samples},
                {"info", Object(info_kv)},
                {"metrics", MetricsJson(reported)}})
            .c_str());
    std::printf("%s\n",
                Object({{"correct", correct() ? "true" : "false"},
                        {"attempted", std::to_string(attempted())},
                        {"failed", std::to_string(failed())},
                        {"metrics", MetricsJson(reported)}})
                    .c_str());
    std::fflush(stdout);
  }

 private:
  void Fail(const std::string& what) { failures_.push_back(what); }

  void Expect(const std::string& stage, const std::string& detail) {
    if (!detail.empty()) Fail(stage + ": " + detail);
  }

  void CheckWriters(rt::Executor& exec) {
    for (uint32_t s = 0; s < w_.shards(); ++s) {
      rt::WalWriter* wal = w_.shards() == 1 ? exec.wal() : exec.shard_wal(s);
      if (wal == nullptr || !wal->ok()) {
        Fail("log of shard " + std::to_string(s) + " did not open");
      }
    }
  }

  uint64_t Syncs(rt::Executor& exec) const {
    uint64_t n = 0;
    for (uint32_t s = 0; s < w_.shards(); ++s) {
      rt::WalWriter* wal = w_.shards() == 1 ? exec.wal() : exec.shard_wal(s);
      if (wal != nullptr) n += wal->syncs();
    }
    return n;
  }

  void DropBase() {
    exec_.reset();
    base_.reset();
  }

  static bool MoreReps(const std::vector<double>& times) {
    const int n = static_cast<int>(times.size());
    double sum = 0;
    for (double t : times) sum += t;
    return n < kMinReps || (n < kMaxReps && sum < kRepSeconds);
  }

  // Populate, construct the executor, resolve handles and prefill —
  // repeatedly; the last set-up is kept.
  void Setup() {
    std::vector<double> total, create, executor, prefill;
    for (int r = 0; MoreReps(total); ++r) {
      DropBase();
      w_.ResetTally();
      const uint64_t rss0 = CurrentRssBytes();
      const auto t0 = Clock::now();
      base_ = w_.MakeBase();
      const auto t1 = Clock::now();
      if (r == 0) {
        const uint64_t rss1 = CurrentRssBytes();
        rss_per_object_ = rss1 > rss0 ? static_cast<double>(rss1 - rss0) /
                                            static_cast<double>(base_->size())
                                      : 0.0;
      }
      exec_ = std::make_unique<rt::Executor>(*base_, w_.Options());
      w_.Resolve(*exec_);
      const auto t2 = Clock::now();
      prefill_commits_ = w_.Prefill(*exec_);
      const auto t3 = Clock::now();
      total.push_back(Seconds(t0, t3));
      create.push_back(Seconds(t0, t1));
      executor.push_back(Seconds(t1, t2));
      prefill.push_back(Seconds(t2, t3));
    }
    setup_reps_ = total.size();
    setup_s_ = Median(total);
    setup_create_s_ = Median(create);
    setup_executor_s_ = Median(executor);
    setup_prefill_s_ = Median(prefill);
    info_["objects"] = static_cast<double>(base_->size());
    info_["prefill_commits"] = static_cast<double>(prefill_commits_);
  }

  // One transaction from client `c`: executes, acknowledges and, if it
  // started and completed inside the measured phase, takes its samples.
  void RunOne(Client& c, const std::atomic<int>* phase) {
    static const std::string kName = "perfbench_txn";
    const bool measuring = phase != nullptr && phase->load() == 1;
    c.tracing = cli_.trace && measuring;
    const auto t0 = Clock::now();
    rt::TxnResult r;
    bool first_committed = false;
    if (cli_.trace) {
      // Traced runs take the first attempt alone, to learn why it aborted
      // (a committed result carries no reason), then hand the transaction
      // to the executor's own retry loop.
      r = exec_->RunTransactionOnce(kName, c.body);
      first_committed = r.committed;
      if (!r.committed) {
        if (measuring) ++c.first_abort[static_cast<size_t>(r.last_abort)];
        r = exec_->RunTransaction(kName, c.body);
        r.attempts += 1;
      }
    } else {
      r = exec_->RunTransaction(kName, c.body);
      first_committed = r.committed && r.attempts == 1;
    }
    const auto t1 = Clock::now();
    ++c.attempted;
    if (r.committed) {
      ++c.committed;
    } else {
      ++c.failed;
      ++c.failed_by_reason[static_cast<size_t>(r.last_abort)];
    }
    if (!w_.Acknowledge(c, r)) ++c.bad_outputs;
    if (phase == nullptr || phase->load() != 1 || !measuring) return;
    ++c.m_attempted;
    c.m_attempts += static_cast<uint64_t>(r.attempts);
    if (w_.CrossShard(c)) ++c.m_cross_shard;
    if (!r.committed) return;
    ++c.m_committed;
    const uint64_t ns = NsBetween(t0, t1);
    const uint64_t window = static_cast<uint64_t>(
        Seconds(measure_start_, t1) / kWindowSeconds);
    if (window < c.window_ns.size()) c.window_ns[window].push_back(ns);
    if (cli_.trace && first_committed) {
      c.commit_ns.push_back(ns > c.body_ns ? ns - c.body_ns : 0);
    }
  }

  // Closed loop: each client sends its next transaction as soon as the
  // previous one returned.
  void Measure() {
    std::atomic<int> phase{0};  // 0 warm-up, 1 measured, 2 stop
    std::vector<std::thread> threads;
    const size_t windows = static_cast<size_t>(cli_.seconds / kWindowSeconds);
    for (Client& c : clients_) {
      c.window_ns.assign(windows, {});
      threads.emplace_back([this, &c, &phase] {
        while (phase.load(std::memory_order_relaxed) != 2) {
          w_.Next(c);
          RunOne(c, &phase);
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
    const Usage u0 = ReadUsage();
    const auto t0 = Clock::now();
    measure_start_ = t0;  // published to the clients by the store below
    phase.store(1);
    std::this_thread::sleep_for(std::chrono::duration<double>(cli_.seconds));
    const auto t1 = Clock::now();
    phase.store(2);
    const Usage u1 = ReadUsage();
    for (std::thread& t : threads) t.join();
    measured_s_ = Seconds(t0, t1);
    info_["failed_by_measured_end"] = static_cast<double>(failed());
    m_usage_ = {u1.user_s - u0.user_s, u1.sys_s - u0.sys_s,
                u1.voluntary_cs - u0.voluntary_cs,
                u1.involuntary_cs - u0.involuntary_cs, u1.max_rss_kb};
    peak_rss_mb_ = static_cast<double>(u1.max_rss_kb) / 1024.0;
  }

  // Fixed-size closed-loop run of `txns` transactions over all clients;
  // returns the commits acknowledged.  Each fixed run draws from its own
  // streams, so its inputs do not depend on how far the measured phase got.
  uint64_t RunFixed(int txns) {
    ++fixed_runs_;
    for (Client& c : clients_) {
      c.rng = Rng::Stream(cli_.seed, fixed_runs_ * kClients + c.id);
    }
    std::vector<std::thread> threads;
    uint64_t before = 0;
    for (const Client& c : clients_) before += c.committed;
    for (Client& c : clients_) {
      const int n = txns / kClients + (c.id < txns % kClients ? 1 : 0);
      threads.emplace_back([this, &c, n] {
        for (int i = 0; i < n; ++i) {
          w_.Next(c);
          RunOne(c, nullptr);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    uint64_t after = 0;
    for (const Client& c : clients_) after += c.committed;
    return after - before;
  }

  void CheckBadOutputs(const std::string& stage) {
    uint64_t bad = 0;
    for (Client& c : clients_) {
      bad += c.bad_outputs;
      c.bad_outputs = 0;
    }
    if (bad != 0) {
      Fail(stage + ": " + std::to_string(bad) +
           " acknowledged results impossible for their input");
    }
  }

  // A fresh base and executor, handles resolved, prefilled; the tally
  // restarts with the base.  Every stage gets its own: a second executor
  // on a used base inherits the first one's journal timestamps.
  void Build(const rt::ExecutorOptions& o) {
    DropBase();
    base_ = w_.MakeBase();
    w_.ResetTally();
    exec_ = std::make_unique<rt::Executor>(*base_, o);
    w_.Resolve(*exec_);
    prefill_commits_ = w_.Prefill(*exec_);
  }

  // Reads the base back through the live executor and compares it with
  // the tally; returns the read transactions that committed.
  uint64_t CheckLive(const std::string& stage) {
    CheckBadOutputs(stage);
    uint64_t read_commits = 0;
    Expect(stage, w_.CheckLive(*exec_, &read_commits));
    return read_commits;
  }

  // Ends a logged stage: the clean shutdown drains and syncs every log,
  // which must then hold the stage's commits.
  void CloseLog(const std::string& stage, const std::string& path,
                uint64_t client_commits) {
    live_states_ = CloneStates(*base_);
    log_commits_ = prefill_commits_ + client_commits + CheckLive(stage);
    syncs_ = Syncs(*exec_);
    exec_.reset();
    Expect(stage, CheckLogFiles(path, w_.shards(), &log_bytes_));
  }

  // A fixed number of recorded transactions from the same clients under the
  // same protocol and topology on a fresh base, checked against Definition
  // 6 and Theorems 2 and 5.  No log: the recorded run measures the model.
  // Repeated kVerifyReps times; every figure is the median over the reps.
  void Verify() {
    rt::ExecutorOptions o = w_.Options();
    o.record = true;
    o.durability = rt::Durability::kNone;
    std::vector<double> total, run, snapshot, legality, serialise, theorem5,
        sg_build, execs, steps;
    const uint64_t failed_before = failed();
    for (int rep = 0; rep < kVerifyReps; ++rep) {
      Build(o);
      const auto t0 = Clock::now();
      exec_->ResetRecorder();  // the history starts after the prefill
      const uint64_t acked = RunFixed(kVerifyTxns);
      const auto t1 = Clock::now();
      ob::model::History h = exec_->recorder().Snapshot();
      const auto t2 = Clock::now();
      ModelTimes m;
      Expect("recorded run", VerifyHistory(h, acked, cli_.trace, &m));
      const auto t3 = Clock::now();
      total.push_back(Seconds(t0, t3) - m.sg_build_s);
      run.push_back(Seconds(t0, t1));
      snapshot.push_back(Seconds(t1, t2));
      legality.push_back(m.legality_s);
      serialise.push_back(m.serialise_s);
      theorem5.push_back(m.theorem5_s);
      sg_build.push_back(m.sg_build_s);
      execs.push_back(static_cast<double>(m.execs));
      steps.push_back(static_cast<double>(m.steps));
      CheckLive("recorded run");
    }
    info_["recorded_failed"] = static_cast<double>(failed() - failed_before);
    verify_s_ = Median(total);
    recorder_run_s_ = Median(run);
    recorder_snapshot_s_ = Median(snapshot);
    model_.legality_s = Median(legality);
    model_.serialise_s = Median(serialise);
    model_.theorem5_s = Median(theorem5);
    model_.sg_build_s = Median(sg_build);
    model_.execs = static_cast<uint64_t>(Median(execs));
    model_.steps = static_cast<uint64_t>(Median(steps));
  }

  // A fixed number of transactions from the same clients on a fresh base,
  // logged with group commit (default window) and shut down cleanly; then
  // recovery of that log into freshly built bases, repeated (recover_s is
  // the median), each compared object by object with the live base.
  void Recover() {
    rt::ExecutorOptions o = w_.Options();
    o.durability = rt::Durability::kGroup;
    o.wal_path = log_path_;
    Build(o);
    CheckWriters(*exec_);
    CloseLog("logged run", log_path_, RunFixed(kLoggedTxns));
    DropBase();  // one base at a time: recovery targets are full-size
    std::vector<double> times;
    for (int r = 0; MoreReps(times); ++r) {
      std::unique_ptr<rt::ObjectBase> fresh = w_.MakeBase();
      const auto t0 = Clock::now();
      rt::WalRecoveryResult res =
          rt::RecoverShardedWalInto(log_path_, w_.shards(), *fresh);
      times.push_back(Seconds(t0, Clock::now()));
      if (r == 0) {
        Expect("recovery", CheckRecovery(res, log_commits_));
        Expect("recovery", CompareStates(live_states_, *fresh));
      }
    }
    recover_reps_ = times.size();
    recover_s_ = Median(times);
    live_states_.clear();
  }

  // Single-threaded OpDescriptor::apply on states of the workloads' sizes:
  // the floor under runtime.invoke_us.
  void ApplyFloor() {
    Rng rng = Rng::Stream(cli_.seed, 3000);
    auto account = ob::adt::MakeBankAccountSpec(1'000'000'000);
    auto counter = ob::adt::MakeCounterSpec(0);
    auto dict = ob::adt::MakeBTreeDictionarySpec();
    // A dictionary as dict-durable holds one: half of its 8,192 keys.
    auto dict_state = dict->MakeInitialState();
    const ob::adt::OpDescriptor* put = dict->FindOp("put");
    for (int64_t k = 0; k < 8192; k += 2) put->apply(*dict_state, {k * 8, k});
    auto amount = [&] { return ob::Args{int64_t(1 + rng.Below(100))}; };
    auto key = [&] { return ob::Args{int64_t(rng.Below(8192) * 8)}; };
    struct Probe {
      Op op;
      const ob::adt::AdtSpec* spec;
      ob::adt::AdtState* state;
      const char* name;
      std::function<ob::Args()> args;
    };
    auto acct_state = account->MakeInitialState();
    auto ctr_state = counter->MakeInitialState();
    const std::vector<Probe> probes = {
        {kWithdraw, account.get(), acct_state.get(), "withdraw", amount},
        {kDeposit, account.get(), acct_state.get(), "deposit", amount},
        {kBalance, account.get(), acct_state.get(), "balance", [] { return ob::Args{}; }},
        {kCounterAdd, counter.get(), ctr_state.get(), "add", amount},
        {kCounterGet, counter.get(), ctr_state.get(), "get", [] { return ob::Args{}; }},
        {kDictGet, dict.get(), dict_state.get(), "get", key},
        {kDictPut, dict.get(), dict_state.get(), "put",
         [&] { return ob::Args{int64_t(rng.Below(8192) * 8), int64_t(rng.Next() >> 1)}; }},
        {kDictDel, dict.get(), dict_state.get(), "del", key},
    };
    constexpr int kBatch = 256;
    constexpr int kRounds = 200;
    for (const Probe& p : probes) {
      const ob::adt::OpDescriptor* d = p.spec->FindOp(p.name);
      std::vector<ob::Args> args(kBatch);
      std::vector<ob::adt::UndoFn> undo(kBatch);
      std::vector<double> per_op;
      for (int round = 0; round < kRounds; ++round) {
        for (ob::Args& a : args) a = p.args();
        const auto t0 = Clock::now();
        for (int i = 0; i < kBatch; ++i) undo[i] = d->apply(*p.state, args[i]).undo;
        per_op.push_back(static_cast<double>(NsBetween(t0, Clock::now())) / kBatch);
        // Undo newest first, so the state keeps the workload's size.
        for (int i = kBatch - 1; i >= 0; --i) {
          if (undo[i]) undo[i](*p.state);
        }
      }
      apply_ns_[p.op] = Median(per_op);
    }
  }

  std::vector<Metric> EndToEnd() {
    std::vector<uint64_t> all;
    std::vector<double> rates, p50s, p95s, p99s;
    uint64_t committed = 0, fewest = UINT64_MAX;
    for (const Client& c : clients_) committed += c.m_committed;
    for (size_t w = 0; w < clients_[0].window_ns.size(); ++w) {
      std::vector<uint64_t> lat;
      for (const Client& c : clients_) {
        lat.insert(lat.end(), c.window_ns[w].begin(), c.window_ns[w].end());
      }
      all.insert(all.end(), lat.begin(), lat.end());
      fewest = std::min<uint64_t>(fewest, lat.size());
      rates.push_back(static_cast<double>(lat.size()) / kWindowSeconds);
      p50s.push_back(Percentile(lat, 50) / 1e3);
      p95s.push_back(Percentile(lat, 95) / 1e3);
      p99s.push_back(Percentile(lat, 99) / 1e3);
    }
    const double tput = Median(rates);
    window_tput_ = tput;
    const double p50 = Median(p50s);
    const double p95 = Median(p95s);
    txn_samples_ = all.size();
    info_["windows"] = static_cast<double>(rates.size());
    info_["fewest_samples_in_a_window"] = static_cast<double>(fewest);
    info_["run_txn_p50_us"] = Percentile(all, 50) / 1e3;
    info_["run_txn_p99_us"] = Percentile(all, 99) / 1e3;
    // p99 is not an end-to-end metric: on dict-durable it moves with how
    // often the host preempts a client that holds an object latch.
    info_["window_txn_p99_us"] = Median(p99s);
    info_["mean_commit_tput"] = measured_s_ > 0 ? committed / measured_s_ : 0;
    const double cpu_us =
        committed > 0
            ? (m_usage_.user_s + m_usage_.sys_s) * 1e6 / static_cast<double>(committed)
            : 0;
    uint64_t cross = 0, attempted = 0;
    for (const Client& c : clients_) {
      cross += c.m_cross_shard;
      attempted += c.m_attempted;
    }
    info_["cross_shard_share"] =
        attempted > 0 ? static_cast<double>(cross) / static_cast<double>(attempted) : 0;
    info_["measured_s"] = measured_s_;
    info_["log_bytes"] = static_cast<double>(log_bytes_);
    info_["log_commits"] = static_cast<double>(log_commits_);
    return {{"setup_s", setup_s_, "s"},
            {"commit_tput", tput, "txn/s"},
            {"txn_p50_us", p50, "us"},
            {"txn_p95_us", p95, "us"},
            {"cpu_us_per_txn", cpu_us, "us"},
            {"peak_rss_mb", peak_rss_mb_, "MB"},
            {"verify_s", verify_s_, "s"},
            {"recover_s", recover_s_, "s"}};
  }

  std::vector<Metric> PerLayer() {
    std::vector<uint32_t> all_invoke;
    std::array<std::vector<uint32_t>, kNumOps> by_op;
    std::vector<uint64_t> commit;
    uint64_t committed = 0, attempts = 0;
    std::array<uint64_t, ob::cc::kNumAbortReasons> first_abort{};
    for (Client& c : clients_) {
      for (int op = 0; op < kNumOps; ++op) {
        by_op[op].insert(by_op[op].end(), c.invoke_ns[op].begin(), c.invoke_ns[op].end());
      }
      commit.insert(commit.end(), c.commit_ns.begin(), c.commit_ns.end());
      committed += c.m_committed;
      attempts += c.m_attempts;
      for (size_t r = 0; r < first_abort.size(); ++r) first_abort[r] += c.first_abort[r];
    }
    // Protocol and runtime tax per step: each op's median Invoke time minus
    // its bare apply time, weighted by how often the workload invokes it.
    double overhead = 0;
    uint64_t weight = 0;
    for (int op = 0; op < kNumOps; ++op) {
      if (by_op[op].empty()) continue;
      const double p50 = Percentile(by_op[op], 50);
      info_[std::string("invoke_p99_us.") + kOpMetric[op]] =
          Percentile(by_op[op], 99) / 1e3;
      overhead += (p50 - apply_ns_[op]) * static_cast<double>(by_op[op].size());
      weight += by_op[op].size();
      all_invoke.insert(all_invoke.end(), by_op[op].begin(), by_op[op].end());
    }
    invoke_samples_ = all_invoke.size();
    commit_samples_ = commit.size();
    const double per_1k = committed > 0 ? 1000.0 / static_cast<double>(committed) : 0;
    auto reason = [&](ob::cc::AbortReason r) {
      return static_cast<double>(first_abort[static_cast<size_t>(r)]) * per_1k;
    };
    std::vector<Metric> m = {
        {"runtime.invoke_us.p50", Percentile(all_invoke, 50) / 1e3, "us"},
        {"runtime.invoke_us.p99", Percentile(all_invoke, 99) / 1e3, "us"},
        {"runtime.commit_us.p50", Percentile(commit, 50) / 1e3, "us"},
        {"runtime.commit_us.p99", Percentile(commit, 99) / 1e3, "us"},
        {"runtime.attempts_per_commit",
         committed > 0 ? static_cast<double>(attempts) / static_cast<double>(committed) : 0,
         "count"},
        {"runtime.step_overhead_ns", weight > 0 ? overhead / static_cast<double>(weight) : 0,
         "ns"},
        {"runtime.traced_commit_tput", window_tput_, "txn/s"},
        {"cc.aborts_per_1k_commits",
         static_cast<double>(attempts - std::min(attempts, committed)) * per_1k,
         "1/1k_commits"},
        {"cc.abort.validation", reason(ob::cc::AbortReason::kValidation), "1/1k_commits"},
        {"cc.abort.cascade", reason(ob::cc::AbortReason::kCascade), "1/1k_commits"},
        {"cc.abort.doomed", reason(ob::cc::AbortReason::kDoomed), "1/1k_commits"},
        {"cc.abort.timestamp_order", reason(ob::cc::AbortReason::kTimestampOrder),
         "1/1k_commits"},
        {"cc.abort.deadlock", reason(ob::cc::AbortReason::kDeadlock), "1/1k_commits"},
        {"cc.abort.wounded", reason(ob::cc::AbortReason::kWounded), "1/1k_commits"},
    };
    for (int op = 0; op < kNumOps; ++op) {
      m.push_back({std::string("adt.apply_ns.") + kOpMetric[op], apply_ns_[op], "ns"});
    }
    const double recover_mb = static_cast<double>(log_bytes_) / 1e6;
    m.insert(m.end(), {
        {"wal.bytes_per_commit",
         log_commits_ > 0 ? static_cast<double>(log_bytes_) / static_cast<double>(log_commits_) : 0,
         "B"},
        {"wal.commits_per_sync",
         syncs_ > 0 ? static_cast<double>(log_commits_) / static_cast<double>(syncs_) : 0,
         "count"},
        {"wal.recover_mb_per_s", recover_s_ > 0 ? recover_mb / recover_s_ : 0, "MB/s"},
        {"recorder.run_s", recorder_run_s_, "s"},
        {"recorder.snapshot_s", recorder_snapshot_s_, "s"},
        {"model.legality_s", model_.legality_s, "s"},
        {"model.sg_build_s", model_.sg_build_s, "s"},
        {"model.serialise_s", model_.serialise_s, "s"},
        {"model.theorem5_s", model_.theorem5_s, "s"},
        {"model.execs", static_cast<double>(model_.execs), "count"},
        {"model.steps", static_cast<double>(model_.steps), "count"},
        {"setup.create_s", setup_create_s_, "s"},
        {"setup.executor_s", setup_executor_s_, "s"},
        {"setup.prefill_s", setup_prefill_s_, "s"},
        {"setup.rss_bytes_per_object", rss_per_object_, "B"},
    });
    return m;
  }

  const Cli& cli_;
  Workload& w_;
  const std::string log_path_;  // the logged run's log (shard 0's path)
  std::vector<Client> clients_;
  std::unique_ptr<rt::ObjectBase> base_;
  std::unique_ptr<rt::Executor> exec_;  // declared after base_: dies first
  std::vector<std::unique_ptr<ob::adt::AdtState>> live_states_;
  std::vector<std::string> failures_;
  std::map<std::string, double> info_;

  double setup_s_ = 0, setup_create_s_ = 0, setup_executor_s_ = 0,
         setup_prefill_s_ = 0, rss_per_object_ = 0;
  uint64_t prefill_commits_ = 0;
  Clock::time_point measure_start_;
  uint64_t fixed_runs_ = 0;
  double measured_s_ = 0, peak_rss_mb_ = 0, window_tput_ = 0;
  Usage m_usage_;
  uint64_t syncs_ = 0, log_bytes_ = 0, log_commits_ = 0;
  double verify_s_ = 0, recorder_run_s_ = 0, recorder_snapshot_s_ = 0;
  ModelTimes model_;
  double recover_s_ = 0;
  std::array<double, kNumOps> apply_ns_{};
  size_t setup_reps_ = 0, recover_reps_ = 0;
  size_t txn_samples_ = 0, invoke_samples_ = 0, commit_samples_ = 0;
};

bool ParseCli(int argc, char** argv, Cli* cli) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      cli->workload = v;
    } else if (k == "--seed") {
      cli->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      cli->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      cli->trace = v == "1";
    } else if (k == "--scratch") {
      cli->scratch = v;
    } else if (k == "--sha") {
      cli->sha = v;
    } else if (k == "--digest") {
      cli->digest = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !cli->workload.empty() && cli->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Keep freed memory in the process: repeated set-ups and recoveries then
  // reuse pages instead of faulting them in again, and page faults, whose
  // cost in a virtual machine wanders with the host, stay out of the
  // medians.  Memory use still shows in peak_rss_mb and the per-object RSS.
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
  perfbench::Cli cli;
  if (!perfbench::ParseCli(argc, argv, &cli)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--scratch <dir>] [--sha <sha>] "
                 "[--digest <digest>]\n");
    return 2;
  }
  std::unique_ptr<perfbench::Workload> w =
      perfbench::MakeWorkload(cli.workload, cli.seed, perfbench::kClients);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", cli.workload.c_str());
    return 2;
  }
  perfbench::ScratchDir dir(cli.scratch);
  if (!dir.ok()) {
    std::fprintf(stderr, "cannot create a run directory under %s\n",
                 cli.scratch.c_str());
    return 2;
  }
  perfbench::Bench bench(cli, *w, dir);
  bench.Run();
  bench.Print();
  for (const std::string& f : bench.failures()) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  return bench.correct() ? 0 : 1;
}
