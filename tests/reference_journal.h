// Single-threaded REFERENCE implementation of the applied-step journal —
// the pre-PR-5 `log_mu`-guarded std::deque, retained in spirit so the
// semantic-equivalence test can replay randomized append/scan/fold/abort
// scripts through both implementations and assert identical scan results,
// fold counts/streams and GC-visible lengths
// (tests/journal_equivalence_test.cc — the PR-3
// reference_dependency_graph.h pattern applied to the journal).
//
// Differences from the production rt::AppliedJournal are representational
// only: a locked deque instead of chunked lock-free storage, eager erase
// on fold instead of epoch-retired chunks, no per-op-class conflict
// indices (scans filter the whole deque).  The mutex makes the reference
// usable as the linearized oracle for the multi-threaded rounds too.
#ifndef OBJECTBASE_TESTS_REFERENCE_JOURNAL_H_
#define OBJECTBASE_TESTS_REFERENCE_JOURNAL_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "src/adt/adt.h"
#include "src/cc/hts.h"
#include "src/common/value.h"
#include "src/runtime/journal.h"

namespace objectbase::rt {

/// The O(depth) kin test the journal's conflict scans used before the
/// packed-stamp fast path (AppliedJournal::Entry::IncomparableWith):
/// comparable iff one execution's uid appears in the other's self..top
/// chain.  Works on any entry with `exec_uid` and `chain` fields — the
/// production Entry (differential test) and ReferenceJournal::Entry.
template <typename EntryT>
bool IncomparableByChainWalk(const EntryT& e,
                             const std::vector<uint64_t>& other_chain) {
  if (std::find(other_chain.begin(), other_chain.end(), e.exec_uid) !=
      other_chain.end()) {
    return false;
  }
  if (!other_chain.empty() &&
      std::find(e.chain->begin(), e.chain->end(), other_chain.front()) !=
          e.chain->end()) {
    return false;
  }
  return true;
}

class ReferenceJournal {
 public:
  struct Entry {
    uint64_t seq = 0;
    uint64_t exec_uid = 0;
    uint64_t top_uid = 0;
    uint64_t dep = 0;
    std::shared_ptr<const std::vector<uint64_t>> chain;
    std::shared_ptr<const cc::Hts> hts;
    adt::OpId op_id = adt::kNoOp;
    Args args;
    Value ret;
    bool aborted = false;

    bool IncomparableWith(const std::vector<uint64_t>& other_chain) const {
      return IncomparableByChainWalk(*this, other_chain);
    }
  };

  void Append(JournalRecord r) {
    std::lock_guard<std::mutex> g(mu_);
    Entry e;
    e.seq = r.seq;
    e.exec_uid = r.exec_uid;
    e.top_uid = r.top_uid;
    e.dep = r.dep;
    e.chain = std::move(r.chain);
    e.hts = std::move(r.hts);
    e.op_id = r.op_id;
    e.args = std::move(r.args);
    e.ret = std::move(r.ret);
    log_.push_back(std::move(e));
  }

  /// The old controllers' conflict scan: every live non-aborted entry of
  /// an op class in `row` issued by an execution incomparable with
  /// `chain`, in journal order.  Returns the visited entries' seqs.
  std::vector<uint64_t> ConflictScan(
      const std::vector<adt::OpId>& row,
      const std::vector<uint64_t>& chain) const {
    std::lock_guard<std::mutex> g(mu_);
    std::vector<uint64_t> seqs;
    for (const Entry& e : log_) {
      if (e.aborted) continue;
      if (std::find(row.begin(), row.end(), e.op_id) == row.end()) continue;
      if (!e.IncomparableWith(chain)) continue;
      seqs.push_back(e.seq);
    }
    return seqs;
  }

  /// Every live entry's seq in journal order (aborted included — mirrors
  /// AppliedJournal::Scan::ForEachLive).
  std::vector<uint64_t> LiveSeqs() const {
    std::lock_guard<std::mutex> g(mu_);
    std::vector<uint64_t> seqs;
    for (const Entry& e : log_) seqs.push_back(e.seq);
    return seqs;
  }

  /// Non-aborted live seqs in order (the rebuild replay).
  std::vector<uint64_t> ReplaySeqs() const {
    std::lock_guard<std::mutex> g(mu_);
    std::vector<uint64_t> seqs;
    for (const Entry& e : log_) {
      if (!e.aborted) seqs.push_back(e.seq);
    }
    return seqs;
  }

  bool MarkSubtreeAborted(uint64_t subtree_root_uid) {
    std::lock_guard<std::mutex> g(mu_);
    bool any = false;
    for (Entry& e : log_) {
      if (!e.aborted &&
          std::find(e.chain->begin(), e.chain->end(), subtree_root_uid) !=
              e.chain->end()) {
        e.aborted = true;
        any = true;
      }
    }
    return any;
  }

  /// The old Object::FoldPrefix: pops the maximal prefix below `watermark`,
  /// reporting each non-aborted folded entry's seq (the base-apply stream).
  size_t Fold(uint64_t watermark, std::vector<uint64_t>* applied) {
    std::lock_guard<std::mutex> g(mu_);
    size_t folded = 0;
    while (!log_.empty()) {
      const Entry& e = log_.front();
      if (e.hts->top_component() >= watermark) break;
      if (!e.aborted && applied != nullptr) applied->push_back(e.seq);
      log_.pop_front();
      ++folded;
    }
    return folded;
  }

  size_t LiveCount() const {
    std::lock_guard<std::mutex> g(mu_);
    return log_.size();
  }

 private:
  mutable std::mutex mu_;
  std::deque<Entry> log_;
};

}  // namespace objectbase::rt

#endif  // OBJECTBASE_TESTS_REFERENCE_JOURNAL_H_
