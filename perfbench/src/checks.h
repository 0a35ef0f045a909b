// Output checks of the benchmark: every workload's result is compared with a
// computation made apart from the program (the benchmark's own tally) or
// with a property the paper proves (Definition 6, Theorems 2 and 5).  Each
// check returns an empty string when it passes and a description of the
// first disagreement otherwise; perfbench_selftest feeds each one a
// deliberately perturbed input to show that it rejects it.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/adt/adt.h"
#include "src/model/history.h"
#include "src/runtime/executor.h"
#include "src/runtime/object_base.h"
#include "src/runtime/wal.h"

namespace perfbench {

/// Outcome of ReadInts calls: whether every read committed with an integer,
/// and how many transactions committed (a logging executor logs them too).
struct ReadBack {
  bool ok = true;
  uint64_t commits = 0;
};

/// Reads one integer-valued method per ref through read-only transactions
/// of the program (batches of 256 refs per transaction).
std::vector<int64_t> ReadInts(objectbase::rt::Executor& exec,
                              const std::vector<objectbase::rt::MethodRef>& refs,
                              ReadBack* rb);

/// Banking oracle.  `delta[i]` is the net amount the benchmark saw
/// acknowledged into account i; account i belongs to branch i % branches.
/// Every balance must equal initial + delta, every branch counter the sum of
/// its accounts' deltas, and the total money must be conserved.
std::string CheckBankTally(const std::vector<int64_t>& balances,
                           const std::vector<int64_t>& branch_counters,
                           int64_t initial,
                           const std::vector<int64_t>& delta);

/// Dictionary oracle: the total-entries counter must equal the sum of the
/// dictionary sizes, and both must equal the benchmark's own count of
/// entries (prefill plus the net size change of every acknowledged
/// transaction).
std::string CheckDictTotals(int64_t counter, const std::vector<int64_t>& sizes,
                            int64_t expected_entries);

/// Deep copies of every object's state, in object-id order.
std::vector<std::unique_ptr<objectbase::adt::AdtState>> CloneStates(
    const objectbase::rt::ObjectBase& base);

/// The base must hold, object by object, states equal to `expected`.
std::string CompareStates(
    const std::vector<std::unique_ptr<objectbase::adt::AdtState>>& expected,
    const objectbase::rt::ObjectBase& base);

/// A recovery must read a whole, undamaged log, replay every recorded
/// return value identically, and find exactly the commits that were made.
std::string CheckRecovery(const objectbase::rt::WalRecoveryResult& r,
                          uint64_t expected_commits);

/// Every log file of the run must exist and hold at least one byte: a
/// writer that silently failed to open or write would otherwise read as a
/// fast run.  Returns the total size in *bytes.
std::string CheckLogFiles(const std::string& base_path, uint32_t shards,
                          uint64_t* bytes);

/// Wall time of each step of VerifyHistory, and the history's size.
struct ModelTimes {
  double legality_s = 0;
  double serialise_s = 0;
  double theorem5_s = 0;
  double sg_build_s = 0;  ///< Only when asked for (traced runs).
  uint64_t execs = 0;
  uint64_t steps = 0;
};

/// The recorded history must be legal (Definition 6), serialisable with
/// replay equivalence (Theorem 2), satisfy Theorem 5, and its committed
/// top-level count must equal the number of commits the clients saw
/// acknowledged.  `time_sg_build` also times BuildSerialisationGraph alone.
std::string VerifyHistory(const objectbase::model::History& h,
                          uint64_t acknowledged, bool time_sg_build,
                          ModelTimes* times);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
