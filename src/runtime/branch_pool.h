// BranchPool: the pooled scheduler behind MethodCtx::InvokeParallel and the
// FsmRunner's walker threads.
//
// The paper's internal parallelism (Section 1(c)) was implemented as one
// std::thread per parallel branch — a full thread create/join per message
// batch, which dwarfs the branch body for small fanouts.  The pool keeps a
// set of long-lived workers instead; a parallel batch stages its branches,
// wakes the workers, and (in caller-inline mode) the invoking thread works
// the batch too, so a batch never waits on thread creation and a pool with
// zero spare workers still makes progress.
//
// Shard affinity: under a sharded executor (docs/sharding.md) each worker
// is tagged with a shard (worker index mod shard count) and prefers tasks
// whose branch targets an object of its shard — branches of a shard tend to
// run on the same workers, keeping each shard's controller state warm.
// Affinity is a scheduling hint only; any worker may take any task, so
// skewed footprints cannot strand work.
//
// Deadlock freedom: in caller-inline mode the invoking thread runs every
// task no worker has claimed, so a batch completes even if every worker is
// busy (nested InvokeParallel under a worker falls back to serial inline
// execution — blocking between siblings only arises under true concurrency,
// where the blocking holder is itself running on a live thread).  Genuine
// lock cycles among branches stay visible to the waits-for detector: pool
// workers declare their waits under their own thread keys like any thread.
#ifndef OBJECTBASE_RUNTIME_BRANCH_POOL_H_
#define OBJECTBASE_RUNTIME_BRANCH_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace objectbase::rt {

class BranchPool {
 public:
  /// Affinity wildcard: the task has no shard preference.
  static constexpr uint32_t kAnyShard = ~uint32_t{0};

  explicit BranchPool(uint32_t num_shards = 1)
      : num_shards_(num_shards < 1 ? 1 : num_shards) {}
  ~BranchPool();

  BranchPool(const BranchPool&) = delete;
  BranchPool& operator=(const BranchPool&) = delete;

  /// Grows the worker set to at least `n` threads (never shrinks; workers
  /// are joined at destruction).  Called lazily by the first parallel
  /// batch, so an executor that never fans out owns zero threads.
  void EnsureWorkers(size_t n);
  size_t workers() const;

  /// One parallel batch.  Stack-allocated by the invoking call; Add stages
  /// branches, RunAndWait publishes them to the pool and blocks until all
  /// have run.  `on_caller` tells the branch whether it is executing on the
  /// invoking thread (true only in caller-inline mode) — InvokeParallel
  /// uses it to pick the thread-registry restore semantics.
  class Batch {
   public:
    explicit Batch(BranchPool& pool) : pool_(pool) {}
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;

    void Add(uint32_t shard, std::function<void(bool on_caller)> fn) {
      staged_.emplace_back(shard, std::move(fn));
    }

    /// Publishes the staged branches and blocks until every one has run.
    /// `caller_inline`: the invoking thread claims unstarted tasks of THIS
    /// batch while it waits (InvokeParallel).  The runner's dedicated
    /// worker mode passes false — its tasks are whole worker loops that
    /// must all run concurrently, so the caller only waits.
    void RunAndWait(bool caller_inline);

   private:
    friend class BranchPool;
    BranchPool& pool_;
    std::vector<std::pair<uint32_t, std::function<void(bool)>>> staged_;
    std::mutex done_mu_;
    std::condition_variable done_cv_;
    size_t pending_ = 0;  // guarded by done_mu_
  };

 private:
  struct Task {
    std::function<void(bool)>* fn;  // owned by the batch's staged_ vector
    uint32_t shard;
    Batch* batch;
  };

  void WorkerLoop(uint32_t index);
  /// Pops one queued task: restricted to `only_batch` when non-null,
  /// otherwise preferring `prefer_shard` before taking the oldest.
  /// Requires mu_ held; returns false when nothing matches.
  bool PopTaskLocked(uint32_t prefer_shard, Batch* only_batch, Task* out);
  static void FinishTask(Batch* batch);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Task> queue_;  // guarded by mu_
  std::vector<std::thread> workers_;  // guarded by mu_ (growth only)
  const uint32_t num_shards_;
  bool stop_ = false;  // guarded by mu_
};

}  // namespace objectbase::rt

#endif  // OBJECTBASE_RUNTIME_BRANCH_POOL_H_
