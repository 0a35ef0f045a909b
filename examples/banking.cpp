// Banking: a contended multi-threaded workload compared across protocols.
//
// Runs the same transfer/audit mix under GEMSTONE (the paper's Section 1
// conservative reduction), N2PL, NTO and CERT, printing throughput and the
// abort breakdown, with the recorded history verified.
//
// Build & run:  ./build/examples/example_banking
#include <cstdio>

#include "src/common/table_printer.h"
#include "src/model/legality.h"
#include "src/model/serialiser.h"
#include "src/workload/fsm_scenarios.h"

using namespace objectbase;  // NOLINT: example brevity

int main() {
  workload::BankingParams params;
  params.accounts = 16;
  params.branches = 4;
  params.theta = 0.6;  // skewed: hot accounts
  params.audit_weight = 0.25;

  TablePrinter table({"protocol", "committed", "tput/s", "abort-ratio",
                      "deadlocks", "ts-rejects", "validation", "verified"});

  for (rt::Protocol protocol :
       {rt::Protocol::kGemstone, rt::Protocol::kN2pl, rt::Protocol::kNto,
        rt::Protocol::kCert}) {
    rt::ObjectBase base;
    workload::SetupBanking(base, params);
    rt::Executor exec(base, {.protocol = protocol,
                             .granularity = cc::Granularity::kStep,
                             .record = true});
    workload::FsmWorkload w = workload::MakeBankingFsm(params);
    w.threads = 4;
    w.iterations = 150;
    workload::FsmRunResult r =
        workload::FsmRunner(exec, {.mode = workload::FsmMode::kParallel})
            .Run({&w});

    model::History h = exec.recorder().Snapshot();
    bool verified = r.ok() && model::CheckLegal(h, true).legal &&
                    model::CheckSerialisable(h).serialisable;

    const rt::Executor::Stats& s = exec.stats();
    const double tput = r.seconds > 0 ? r.committed / r.seconds : 0;
    table.AddRow(
        {rt::ProtocolName(protocol), TablePrinter::Fmt(r.committed),
         TablePrinter::Fmt(tput, 0),
         TablePrinter::Fmt(static_cast<double>(s.aborted.load()) /
                               static_cast<double>(r.committed),
                           3),
         TablePrinter::Fmt(s.AbortsFor(cc::AbortReason::kDeadlock)),
         TablePrinter::Fmt(s.AbortsFor(cc::AbortReason::kTimestampOrder)),
         TablePrinter::Fmt(s.AbortsFor(cc::AbortReason::kValidation)),
         verified ? "yes" : "NO"});
  }
  std::printf("Banking mix: 75%% transfers / 25%% audits, 16 accounts, "
              "zipf 0.6, 4 threads\n");
  table.Print();
  std::printf("\nExpected shape: GEMSTONE trails the semantic "
              "protocols; N2PL aborts only on deadlock;\nNTO pays "
              "timestamp rejections; CERT pays validation aborts.\n");
  return 0;
}
