// The benchmark's workloads.  A workload builds its object base, draws each
// client's next transaction from the run seed, executes it through the
// library's public API (MethodCtx::Invoke inside Executor::RunTransaction)
// and keeps its own tally of what the acknowledged transactions did, which
// the checks in checks.h compare with the program's outputs.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/loadgen.h"
#include "src/cc/controller.h"
#include "src/runtime/executor.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline uint64_t NsBetween(Clock::time_point a, Clock::time_point b) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// The ADT operations the workloads invoke; traced runs time each Invoke
/// per operation.  kOpMetric names them as adt.apply_ns.<type>.<op>.
enum Op : uint8_t {
  kWithdraw,
  kDeposit,
  kBalance,
  kCounterAdd,
  kCounterGet,
  kDictGet,
  kDictPut,
  kDictDel,
  kNumOps
};
inline constexpr const char* kOpMetric[kNumOps] = {
    "bank_account.withdraw", "bank_account.deposit", "bank_account.balance",
    "counter.add",           "counter.get",          "btree_dictionary.get",
    "btree_dictionary.put",  "btree_dictionary.del"};

/// One closed-loop client: its input stream, its share of the tally, and
/// the samples it took.  Only its own thread touches it while running.
struct Client {
  int id = 0;
  Rng rng;
  /// The body handed to RunTransaction; built once, executes the input the
  /// workload drew last for this client.
  objectbase::rt::MethodFn body;
  /// Time Invoke calls and the body in the current transaction.
  bool tracing = false;
  uint64_t body_ns = 0;  ///< Body wall time of the last attempt.

  // Whole run (warm-up, measured phase and fixed-size runs).
  uint64_t attempted = 0;
  uint64_t committed = 0;
  uint64_t failed = 0;
  uint64_t bad_outputs = 0;  ///< Acknowledged results the tally rejected.
  std::array<uint64_t, objectbase::cc::kNumAbortReasons> failed_by_reason{};

  // Measured phase only.
  uint64_t m_attempted = 0;
  uint64_t m_committed = 0;
  uint64_t m_attempts = 0;  ///< Attempts summed over measured transactions.
  uint64_t m_cross_shard = 0;
  // Samples grow in chunks (no copying pauses while measuring).
  /// Per committed transaction, by measured window.
  std::vector<std::deque<uint64_t>> window_ns;
  // Traced runs only.
  std::array<std::deque<uint32_t>, kNumOps> invoke_ns;
  std::deque<uint64_t> commit_ns;  ///< First-attempt commits.
  std::array<uint64_t, objectbase::cc::kNumAbortReasons> first_abort{};
};

/// Sends one message through the public API, timing it in traced runs.
inline objectbase::Value Call(Client& c, objectbase::rt::MethodCtx& txn,
                              const objectbase::rt::MethodRef& m, Op op,
                              objectbase::Args args = {}) {
  if (!c.tracing) return txn.Invoke(m, std::move(args));
  const auto t0 = Clock::now();
  objectbase::Value v = txn.Invoke(m, std::move(args));
  const uint64_t ns = NsBetween(t0, Clock::now());
  c.invoke_ns[op].push_back(ns > UINT32_MAX ? UINT32_MAX
                                            : static_cast<uint32_t>(ns));
  return v;
}

class Workload {
 public:
  virtual ~Workload() = default;

  /// Shards of the base (1 = the classic single-controller wiring).
  virtual uint32_t shards() const = 0;
  /// Protocol and options of the measured phase (unrecorded, unlogged).
  virtual objectbase::rt::ExecutorOptions Options() const = 0;

  /// A freshly built base, every object in its initial state.
  virtual std::unique_ptr<objectbase::rt::ObjectBase> MakeBase() const = 0;
  /// Resolves the handles the bodies use against `exec`.
  virtual void Resolve(objectbase::rt::Executor& exec) = 0;
  /// Loads the initial data through `exec`; returns the commits it made.
  virtual uint64_t Prefill(objectbase::rt::Executor& exec) = 0;
  /// Forgets what was acknowledged (the base was reset to initial states).
  virtual void ResetTally() = 0;

  /// Draws client `c`'s next transaction from its stream.
  virtual void Next(Client& c) = 0;
  /// Executes the drawn transaction; may run several times (retries).
  virtual objectbase::Value Body(Client& c, objectbase::rt::MethodCtx& txn) = 0;
  /// Adds an outcome to the tally; false if a committed result is
  /// impossible for the drawn input.
  virtual bool Acknowledge(Client& c, const objectbase::rt::TxnResult& r) = 0;
  /// Whether the drawn transaction touches objects on more than one shard.
  virtual bool CrossShard(const Client& c) const = 0;

  /// Reads the base back through `exec` and compares it with the tally;
  /// adds the read transactions that committed to *read_commits.
  virtual std::string CheckLive(objectbase::rt::Executor& exec,
                                uint64_t* read_commits) = 0;
};

/// "bank-spread", "bank-hot" or "dict-durable"; nullptr for other names.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       int clients);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
