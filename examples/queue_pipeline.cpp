// Queue pipeline: the Section 5.1 Enqueue/Dequeue story.
//
// Producers and consumers share FIFO queues.  With operation-granularity
// locks every Enqueue delays every Dequeue on the same queue; with
// step-granularity (return-value-aware) locks an Enqueue only delays the
// Dequeue that returns its item.  This example runs both and prints the
// difference.
//
// Build & run:  ./build/examples/example_queue_pipeline
#include <cstdio>

#include "src/common/table_printer.h"
#include "src/model/legality.h"
#include "src/model/serialiser.h"
#include "src/workload/fsm_scenarios.h"

using namespace objectbase;  // NOLINT: example brevity

int main() {
  workload::QueueParams params;
  params.queues = 2;       // few queues: contention is the point
  params.batch = 3;
  // Prefill so dequeues rarely observe an empty queue (an empty-queue
  // dequeue conflicts with every enqueue even at step granularity).
  params.prefill = 64;

  TablePrinter table(
      {"granularity", "committed", "tput/s", "abort-ratio", "verified"});

  for (cc::Granularity g :
       {cc::Granularity::kOperation, cc::Granularity::kStep}) {
    rt::ObjectBase base;
    workload::SetupQueues(base, params);
    rt::Executor exec(base, {.protocol = rt::Protocol::kN2pl,
                             .granularity = g,
                             .record = true});
    workload::FsmWorkload w = workload::MakeQueueFsm(params);
    w.threads = 4;
    w.iterations = 120;
    workload::FsmRunResult r =
        workload::FsmRunner(exec, {.mode = workload::FsmMode::kParallel})
            .Run({&w});

    model::History h = exec.recorder().Snapshot();
    bool verified = r.ok() && model::CheckLegal(h, true).legal &&
                    model::CheckSerialisable(h).serialisable;

    const double tput = r.seconds > 0 ? r.committed / r.seconds : 0;
    table.AddRow({g == cc::Granularity::kOperation ? "operation" : "step",
                  TablePrinter::Fmt(r.committed), TablePrinter::Fmt(tput, 0),
                  TablePrinter::Fmt(
                      static_cast<double>(exec.stats().aborted.load()) /
                          static_cast<double>(r.committed),
                      3),
                  verified ? "yes" : "NO"});
  }
  std::printf("Producer/consumer pipeline, 2 queues, 4 threads, N2PL\n");
  table.Print();
  std::printf("\nSection 5.1: \"if we locked operations with no regard to "
              "their return values, an Enqueue\nwould delay any Dequeue of "
              "an incomparable method execution\" — step locks avoid it.\n");
  return 0;
}
