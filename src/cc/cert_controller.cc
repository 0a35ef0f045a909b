#include "src/cc/cert_controller.h"

#include <algorithm>

#include "src/adt/apply_order.h"
#include "src/model/serialisation_graph.h"
#include "src/runtime/apply.h"

namespace objectbase::cc {

std::atomic<uint64_t>& CertStepExclusiveAcquisitions() {
  static std::atomic<uint64_t> counter{0};
  return counter;
}

OpOutcome CertController::ExecuteLocal(rt::TxnNode& txn, rt::Object& obj,
                                       const adt::OpDescriptor& op,
                                       const Args& args) {
  const uint64_t my_top = txn.top()->uid();
  const DepRef my_ref = DepRef::FromRaw(DepHandleOf(*txn.top()));
  if (!AdmitStep(obj, my_ref)) return OpOutcome::Abort(AbortReason::kDoomed);
  const std::vector<uint64_t>& chain = txn.AncestorChain();

  // Objects that synchronise internally (the latch-crabbing B-tree) run
  // their operations concurrently, recorded or not — the application order
  // the formal oracle needs is the journal position, reserved at the ADT's
  // internal linearization point via the apply-order hook.  Only ops the
  // spec marked exclusive_apply (non-linearizable scans) escalate.
  const bool exclusive = !obj.concurrent_apply() || op.exclusive_apply;
  std::unique_lock<std::shared_mutex> excl_guard(obj.state_mu(),
                                                 std::defer_lock);
  std::shared_lock<std::shared_mutex> shared_guard(obj.state_mu(),
                                                   std::defer_lock);
  if (exclusive) {
    CertStepExclusiveAcquisitions().fetch_add(1, std::memory_order_relaxed);
    excl_guard.lock();
  } else {
    shared_guard.lock();
  }
  // Apply first (optimistic), then PUBLISH the journal entry, then scan the
  // window below it.  Publish-before-scan is what replaces the old log
  // mutex's scan/append atomicity: of two concurrent conflicting appenders
  // the one with the larger position is guaranteed to see the other
  // (docs/journal.md), so no conflict edge is ever missed.  Under the
  // exclusive latch the window is exactly the old "everything before me".
  //
  // Position reservation: under the shared latch two applies race, so the
  // position must be reserved at the instant the ADT's effect becomes
  // visible (its internal linearization point) — the armed hook does that
  // from inside the B-tree's terminal leaf latch.  Under the exclusive
  // latch reserving after apply is equivalent.  Either way this thread
  // publishes the reserved slot before scanning, while still inside the
  // apply critical section (journal.h Reserve/PublishAt contract).
  adt::ApplyResult applied;
  uint64_t my_pos;
  if (exclusive) {
    applied = op.apply(obj.state(), args);
    my_pos = obj.journal().Reserve();
  } else {
    adt::ApplyOrderScope hook(
        +[](void* j) { return static_cast<rt::AppliedJournal*>(j)->Reserve(); },
        &obj.journal());
    applied = op.apply(obj.state(), args);
    // Defensive fallback: a concurrent-apply spec that never stamped.
    my_pos = hook.fired() ? hook.key() : obj.journal().Reserve();
  }
  Value ret = rt::AcceptStep(txn, obj, op, args, std::move(applied), my_pos,
                             my_ref.raw(), recorder_, wal_);
  bool doomed = false;
  RivalEdges edges{deps_, my_ref};
  ForEachRival(
      obj, op, args, granularity_ == Granularity::kStep ? &ret : nullptr,
      chain, my_pos, exclusive, [&](const rt::AppliedJournal::Entry& e) {
        if (e.top_uid != my_top) {
          if (edges.Add(e)) return true;
          doomed = true;
          return false;
        }
        // Parallel siblings of one transaction racing on the object:
        // genuine intra-transaction contention.
        edges.conflict = true;
        SiblingStripe& stripe = StripeFor(my_top);
        std::lock_guard<std::mutex> sg(stripe.mu);
        stripe.edges[my_top].push_back(SiblingEdge{*e.chain, chain});
        return true;
      });
  edges.ChargeTelemetry(obj);
  if (doomed) return OpOutcome::Abort(AbortReason::kDoomed);
  return OpOutcome::Ok(std::move(ret));
}

void CertController::AppendSiblingEdges(uint64_t top_uid,
                                        std::vector<SiblingEdge>& out) {
  SiblingStripe& stripe = StripeFor(top_uid);
  std::lock_guard<std::mutex> g(stripe.mu);
  auto it = stripe.edges.find(top_uid);
  if (it == stripe.edges.end()) return;
  out.insert(out.end(), it->second.begin(), it->second.end());
}

bool CertController::SiblingGraphAcyclic(uint64_t top_uid) {
  std::vector<SiblingEdge> edges;
  AppendSiblingEdges(top_uid, edges);
  if (edges.empty()) return true;
  return EdgesAcyclic(edges);
}

bool CertController::EdgesAcyclic(const std::vector<SiblingEdge>& edges) {
  // Lift each observation to the pair of executions just below the least
  // common ancestor (chains are self..top, so compare from the back).
  std::vector<std::pair<uint64_t, uint64_t>> lifted;
  std::vector<uint64_t> uids;
  lifted.reserve(edges.size());
  uids.reserve(edges.size() * 2);
  for (const SiblingEdge& e : edges) {
    size_t i = e.from_chain.size();
    size_t j = e.to_chain.size();
    while (i > 0 && j > 0 && e.from_chain[i - 1] == e.to_chain[j - 1]) {
      --i;
      --j;
    }
    if (i == 0 || j == 0) continue;  // comparable (defensive)
    lifted.emplace_back(e.from_chain[i - 1], e.to_chain[j - 1]);
    uids.push_back(e.from_chain[i - 1]);
    uids.push_back(e.to_chain[j - 1]);
  }
  if (lifted.empty()) return true;
  // Compact the uids into dense indices and run the flat Digraph's
  // scratch-reusing cycle check (the PR-1 SG machinery) instead of a
  // map-of-sets DFS.
  std::sort(uids.begin(), uids.end());
  uids.erase(std::unique(uids.begin(), uids.end()), uids.end());
  auto index_of = [&uids](uint64_t u) {
    return static_cast<uint32_t>(
        std::lower_bound(uids.begin(), uids.end(), u) - uids.begin());
  };
  model::Digraph graph(uids.size());
  for (const auto& [from, to] : lifted) {
    graph.AddEdge(index_of(from), index_of(to));
  }
  return graph.IsAcyclic();
}

bool CertController::OnTopCommit(rt::TxnNode& top, AbortReason* reason) {
  if (!SiblingGraphAcyclic(top.uid())) {
    *reason = AbortReason::kValidation;
    return false;
  }
  return OptimisticController::OnTopCommit(top, reason);
}

void CertController::OnTopFinished(rt::TxnNode& top) {
  // Settled registry slots retire incrementally inside MarkCommitted /
  // MarkAborted; only the sibling-edge buffer needs explicit cleanup.
  SiblingStripe& stripe = StripeFor(top.uid());
  std::lock_guard<std::mutex> g(stripe.mu);
  stripe.edges.erase(top.uid());
}

}  // namespace objectbase::cc
