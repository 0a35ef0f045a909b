// The seeded FSM scenarios.  Two are the i.i.d. load mixes the examples
// and handle tests drive:
//
//   * banking: transfers and audits over BankAccount objects and branch
//     Counters; the teardown checks that money is conserved;
//   * queue load: producers and consumers over FIFO Queues (the Section 5.1
//     Enqueue/Dequeue story).
//
// In both, every transition row equals the state weights, so the state a
// walker visits next never depends on the one it just visited.  Walker
// count and visits per walker are the returned workload's `threads` and
// `iterations`.  The other
// three are structural workloads whose transition tables carry meaning:
//
//   * secondary-index maintenance: a BTreeDictionary catalogue and a Set
//     secondary index kept MUTUALLY CONSISTENT (index contains exactly the
//     dictionary's keys) by every mutating transaction; the per-state check
//     re-reads both objects in one transaction, so any serialisation point
//     at which they disagree is an invariant failure;
//   * queue-graph pipeline with backpressure: a chain of bounded queues
//     with producer / stage-mover / consumer states plus an explicit
//     producer STALL state; enqueues are guarded by in-transaction length
//     checks, so "every queue's length <= bound" and "produced - consumed
//     == items in flight" hold at every serial point;
//   * read-mostly catalogue serving: zipf-hot gets over a BTreeDictionary
//     with occasional hot-key writes that also bump a version counter;
//     checks pin per-walker version monotonicity and version >= entries
//     added.
//
// Call SetupX on the base BEFORE constructing the executor; the returned
// workload's `setup` hook resolves MethodRefs and prefills via the executor
// (resolve once, execute many: state bodies touch no name maps).  The three
// structural scenarios prefix their object names, so any combination can
// share one ObjectBase (the composed-mode requirement).
#ifndef OBJECTBASE_WORKLOAD_FSM_SCENARIOS_H_
#define OBJECTBASE_WORKLOAD_FSM_SCENARIOS_H_

#include <string>

#include "src/workload/fsm.h"

namespace objectbase::workload {

// --- banking ------------------------------------------------------------------
// Objects: acct:0 .. acct:<accounts-1> (BankAccounts opening at `initial`),
// branch:0 .. branch:<branches-1> (Counters).
// States: transfer (withdraw one account, deposit another, move the amount
// through both accounts' branch counters), audit (read `audit_scan`
// balances; present only when audit_weight > 0).  Key skew `theta`
// (0 = uniform) controls contention.  Teardown: accounts plus branch
// counters still sum to accounts * initial.
struct BankingParams {
  int accounts = 64;
  int branches = 4;
  int64_t initial = 10'000;
  double theta = 0.0;
  double audit_weight = 0.2;
  int audit_scan = 8;  ///< Balances read per audit.
};
void SetupBanking(rt::ObjectBase& base, const BankingParams& p);
FsmWorkload MakeBankingFsm(const BankingParams& p);

// --- queue load -----------------------------------------------------------------
// Objects: queue:0 .. queue:<queues-1> (Queues).
// States: produce (enqueue `batch` distinct tags on one queue), consume
// (dequeue `batch` times from one queue).  Under operation-granularity
// locking every enqueue blocks every dequeue on the same queue; under step
// granularity they only conflict when the dequeue returns the enqueued item
// or sees an empty queue (Section 5.1).  Setup enqueues `prefill` items per
// queue so dequeues rarely hit empty.
struct QueueParams {
  int queues = 8;
  int batch = 4;
  double producer_weight = 1.0;
  double consumer_weight = 1.0;
  int64_t prefill = 64;
};
void SetupQueues(rt::ObjectBase& base, const QueueParams& p);
FsmWorkload MakeQueueFsm(const QueueParams& p);

// --- secondary-index maintenance --------------------------------------------
// Objects: <prefix>:dict (BTreeDictionary), <prefix>:index (Set).
// States: upsert (put + index insert on fresh keys), remove (del + index
// erase), lookup (read-only get/contains pair).
struct SecondaryIndexParams {
  std::string prefix = "si";
  int keyspace = 64;
  double theta = 0.4;   ///< Zipf skew over the keyspace.
  int prefill = 16;     ///< Keys present (and indexed) before the walk.
  int threads = 3;
  int iterations = 40;
};
void SetupSecondaryIndex(rt::ObjectBase& base, const SecondaryIndexParams& p);
FsmWorkload MakeSecondaryIndexFsm(const SecondaryIndexParams& p);

// --- queue-graph pipeline with backpressure ----------------------------------
// Objects: <prefix>:q0 .. :q<stages-1> (Queues), <prefix>:produced and
// <prefix>:consumed (Counters).
// States: produce (bounded enqueue into q0), stall (the producer's
// backpressure state: observes q0's length, mutates nothing), move:<i>
// (dequeue q<i-1> -> enqueue q<i>, also bounded), consume (dequeue tail).
struct QueuePipelineParams {
  std::string prefix = "qp";
  int stages = 3;  ///< Queue count; >= 2 gives at least one mover state.
  int bound = 6;   ///< Backpressure bound per queue.
  int threads = 3;
  int iterations = 40;
};
void SetupQueuePipeline(rt::ObjectBase& base, const QueuePipelineParams& p);
FsmWorkload MakeQueuePipelineFsm(const QueuePipelineParams& p);

// --- read-mostly catalogue serving -------------------------------------------
// Objects: <prefix>:cat (BTreeDictionary), <prefix>:version (Counter).
// States: serve (a handful of zipf gets, read-only), write (hot-key put +
// version bump), audit (version/count consistency read).
struct CatalogueParams {
  std::string prefix = "cat";
  int keyspace = 256;
  double theta = 0.9;  ///< Hot-key skew for writes AND reads.
  int prefill = 64;    ///< Entries served before the walk starts.
  int reads_per_serve = 3;
  int threads = 4;
  int iterations = 50;
};
void SetupCatalogue(rt::ObjectBase& base, const CatalogueParams& p);
FsmWorkload MakeCatalogueFsm(const CatalogueParams& p);

}  // namespace objectbase::workload

#endif  // OBJECTBASE_WORKLOAD_FSM_SCENARIOS_H_
