// Targeted races on the lock-free AppliedJournal, meant to run under
// ThreadSanitizer (the CI tsan job includes this suite):
//
//   * readers racing Fold across chunk boundaries — a pinned Scan must
//     keep dereferencing valid memory while the folder unlinks the chunks
//     under it (epoch retirement: unlink != free);
//   * 8-thread append/scan churn under the production latch discipline
//     (appenders shared, folders exclusive, scanners lock-free);
//   * chunk-retirement use-after-free probes: hold a pinned Scan across a
//     fold that retires multiple chunks, walk the stale window afterwards,
//     then release the pin and verify a later fold actually frees limbo
//     (the retirement path is live, not a leak);
//   * scanners racing the first appends on a chunkless journal — a window
//     must cover every position reserved before it was taken, waiting for
//     the first chunk's link, and visit entry 0 first.
#include "src/runtime/journal.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "src/common/rng.h"

namespace objectbase::rt {
namespace {

constexpr size_t kNumOps = 3;

JournalRecord MakeRecord(uint64_t uid, uint64_t counter, adt::OpId op,
                         int64_t arg) {
  JournalRecord r;
  r.seq = uid;
  r.exec_uid = uid;
  r.top_uid = uid;
  r.dep = uid;
  r.chain = std::make_shared<const std::vector<uint64_t>>(
      std::vector<uint64_t>{uid});
  r.hts = std::make_shared<const cc::Hts>(cc::Hts::TopLevel(counter));
  r.op_id = op;
  r.args = {Value(arg)};
  r.ret = Value(arg);
  return r;
}

TEST(JournalMtTest, ReadersRaceFoldAcrossChunkBoundaries) {
  AppliedJournal journal(kNumOps);
  std::shared_mutex state_mu;
  std::atomic<uint64_t> appended{0};
  std::atomic<bool> stop{false};

  std::thread appender([&]() {
    // ~20 chunks of entries, counters ascending so folds always make
    // progress right behind the appender.
    for (uint64_t i = 1; i <= 20 * AppliedJournal::kChunkSize; ++i) {
      std::shared_lock<std::shared_mutex> g(state_mu);
      journal.Append(MakeRecord(i, i, static_cast<adt::OpId>(i % kNumOps),
                                static_cast<int64_t>(i)));
      appended.store(i, std::memory_order_release);
    }
  });
  std::thread folder([&]() {
    while (!stop.load(std::memory_order_relaxed)) {
      const uint64_t mark = appended.load(std::memory_order_acquire);
      if (mark < AppliedJournal::kChunkSize) continue;
      std::lock_guard<std::shared_mutex> g(state_mu);
      // Fold right up to the appender's heels: retires whole chunks while
      // the reader threads below are mid-walk.
      journal.Fold(mark, [](const AppliedJournal::Entry&) {});
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&]() {
      while (!stop.load(std::memory_order_relaxed)) {
        uint64_t prev_pos = 0;
        bool first = true;
        uint64_t visited = 0;
        AppliedJournal::Scan scan(journal);
        scan.ForEachLive(scan.end_pos(), [&](const AppliedJournal::Entry& e) {
          // Entry fields must be fully published and positions ascending
          // even while chunks retire underneath the walk.
          if (e.args.size() != 1 || e.args[0] != e.ret) {
            ADD_FAILURE() << "torn entry at pos " << e.pos;
            return false;
          }
          if (!first && e.pos <= prev_pos) {
            ADD_FAILURE() << "order regressed at pos " << e.pos;
            return false;
          }
          first = false;
          prev_pos = e.pos;
          ++visited;
          return true;
        });
        (void)visited;
      }
    });
  }
  appender.join();
  stop.store(true, std::memory_order_relaxed);
  folder.join();
  for (auto& r : readers) r.join();
  EXPECT_EQ(journal.reserved(), 20 * AppliedJournal::kChunkSize);
}

TEST(JournalMtTest, EightThreadAppendScanChurn) {
  AppliedJournal journal(kNumOps);
  std::shared_mutex state_mu;
  std::atomic<uint64_t> next_uid{0};
  constexpr int kPerThread = 2000;

  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&, t]() {
      Rng rng(911 + t);
      for (int i = 0; i < kPerThread; ++i) {
        const uint64_t uid = next_uid.fetch_add(1) + 1;
        {
          std::shared_lock<std::shared_mutex> g(state_mu);
          journal.Append(MakeRecord(uid, uid,
                                    static_cast<adt::OpId>(rng.Uniform(kNumOps)),
                                    static_cast<int64_t>(uid)));
        }
        if (rng.Bernoulli(0.2)) {
          // Lock-free conflict scan against the window below our append —
          // the publish-then-scan shape of the CERT shared path.
          std::vector<adt::OpId> row{static_cast<adt::OpId>(0),
                                     static_cast<adt::OpId>(1)};
          std::vector<uint64_t> chain{uid};
          AppliedJournal::Scan scan(journal);
          scan.ForEachConflicting(row, scan.end_pos(), /*exclusive=*/false,
                                  [&](const AppliedJournal::Entry& e) {
                                    if (e.args.size() != 1 ||
                                        e.args[0] != e.ret) {
                                      ADD_FAILURE()
                                          << "torn entry at pos " << e.pos;
                                      return false;
                                    }
                                    return true;
                                  });
        }
        if (rng.Bernoulli(0.02)) {
          std::lock_guard<std::shared_mutex> g(state_mu);
          journal.Fold(next_uid.load() / 2,
                       [](const AppliedJournal::Entry&) {});
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(journal.reserved(), 8u * kPerThread);
  // Everything folds once no transaction is active.
  journal.Fold(UINT64_MAX, [](const AppliedJournal::Entry&) {});
  EXPECT_EQ(journal.LiveCount(), 0u);
}

TEST(JournalMtTest, PinnedScanSurvivesRetirementAndLimboDrains) {
  AppliedJournal journal(kNumOps);
  // Fill five chunks.
  const uint64_t total = 5 * AppliedJournal::kChunkSize;
  for (uint64_t i = 1; i <= total; ++i) {
    journal.Append(MakeRecord(i, i, static_cast<adt::OpId>(i % kNumOps),
                              static_cast<int64_t>(i)));
  }
  {
    // Pin a scan over the whole window, then fold four chunks away under
    // it.  The pinned walk must still see every pre-fold entry intact —
    // its view is "the scan ran before the fold".
    AppliedJournal::Scan scan(journal);
    size_t folded = journal.Fold(4 * AppliedJournal::kChunkSize + 1,
                                 [](const AppliedJournal::Entry&) {});
    EXPECT_EQ(folded, 4 * AppliedJournal::kChunkSize);
    // The retired chunks must be parked, not freed: a reader is pinned.
    EXPECT_GT(journal.LimboChunks(), 0u);
    uint64_t sum = 0;
    scan.ForEachLive(scan.end_pos(), [&](const AppliedJournal::Entry& e) {
      // Use-after-free probe: touch every field of the stale window (TSan
      // or ASan would flag freed memory; the value check flags recycling).
      if (e.args[0] != e.ret) {
        ADD_FAILURE() << "recycled entry at pos " << e.pos;
        return false;
      }
      sum += static_cast<uint64_t>(e.args[0].AsInt());
      return true;
    });
    EXPECT_EQ(sum, total * (total + 1) / 2);  // saw every pre-fold entry
  }
  // Pin released: the next fold's limbo sweep frees the parked chunks.
  const uint64_t freed_before = journal.FreedChunks();
  journal.Fold(UINT64_MAX, [](const AppliedJournal::Entry&) {});
  EXPECT_EQ(journal.LiveCount(), 0u);
  EXPECT_GT(journal.FreedChunks(), freed_before);
  EXPECT_EQ(journal.LimboChunks(), 0u);
}

TEST(JournalMtTest, ConcurrentAppendersPublishDensely) {
  // The crabbing-object shape: concurrent appenders under the shared
  // latch; a racing scanner bounded by a position it read AFTER an append
  // must see every smaller position published (the publish-then-scan
  // guarantee the CERT shared path relies on).
  AppliedJournal journal(kNumOps);
  std::shared_mutex state_mu;
  std::atomic<uint64_t> next_uid{0};
  constexpr int kPerThread = 3000;
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&]() {
      for (int i = 0; i < kPerThread; ++i) {
        const uint64_t uid = next_uid.fetch_add(1) + 1;
        uint64_t my_pos;
        {
          std::shared_lock<std::shared_mutex> g(state_mu);
          my_pos = journal.Append(MakeRecord(
              uid, uid, static_cast<adt::OpId>(uid % kNumOps),
              static_cast<int64_t>(uid)));
        }
        // Scan the window below our own entry: every position must be
        // present (the spin on reserved-but-unpublished entries resolves).
        uint64_t expect = 0;
        bool dense = true;
        AppliedJournal::Scan scan(journal);
        scan.ForEachLive(my_pos, [&](const AppliedJournal::Entry& e) {
          if (e.pos != expect) {
            dense = false;
            return false;
          }
          ++expect;
          return true;
        });
        if (!dense || expect != my_pos) {
          ADD_FAILURE() << "hole below position " << my_pos << " (reached "
                        << expect << ")";
          return;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(journal.reserved(), 4u * kPerThread);
}

TEST(JournalMtTest, ScansRacingTheFirstAppendsVisitEntryZero) {
  // Every round starts chunkless (fresh, then Reset).  Appender 0 holds its
  // first reservation open across a few yields, widening the window in
  // which positions are reserved but no chunk is linked yet.
  constexpr int kRounds = 150;
  constexpr int kAppenders = 2;
  constexpr int kScanners = 2;
  constexpr int kPerAppender = 8;  // all inside the first chunk
  static_assert(kAppenders * kPerAppender <= AppliedJournal::kChunkSize,
                "dense check assumes one chunk");
  AppliedJournal journal(kNumOps);
  std::atomic<uint64_t> nonempty_scans{0};
  for (int round = 0; round < kRounds; ++round) {
    ASSERT_EQ(journal.LinkedChunks(), 0u) << "round " << round;
    std::shared_mutex state_mu;
    std::atomic<bool> go{false};
    std::atomic<bool> appended{false};
    std::atomic<uint64_t> next_uid{0};
    std::vector<std::thread> scanners;
    for (int s = 0; s < kScanners; ++s) {
      scanners.emplace_back([&]() {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        bool last = false;
        while (!last) {
          last = appended.load(std::memory_order_acquire);
          // The window covers every position reserved before the scan
          // began, linked chunk or not.
          const uint64_t reserved_before = journal.reserved();
          AppliedJournal::Scan scan(journal);
          if (scan.end_pos() < reserved_before) {
            ADD_FAILURE() << "window [0, " << scan.end_pos() << ") misses "
                          << reserved_before << " reserved positions";
            return;
          }
          if (scan.end_pos() == 0) continue;
          nonempty_scans.fetch_add(1, std::memory_order_relaxed);
          uint64_t expect = 0;
          scan.ForEachLive(scan.end_pos(),
                           [&](const AppliedJournal::Entry& e) {
                             if (e.pos != expect) return false;
                             ++expect;
                             return true;
                           });
          if (expect != scan.end_pos()) {
            ADD_FAILURE() << "window [0, " << scan.end_pos()
                          << ") visited only " << expect << " entries";
            return;
          }
        }
      });
    }
    std::vector<std::thread> appenders;
    for (int a = 0; a < kAppenders; ++a) {
      appenders.emplace_back([&, a]() {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        for (int i = 0; i < kPerAppender; ++i) {
          const uint64_t uid = next_uid.fetch_add(1) + 1;
          std::shared_lock<std::shared_mutex> g(state_mu);
          const uint64_t pos = journal.Reserve();
          if (a == 0 && i == 0) {
            for (int k = 0; k < 4; ++k) std::this_thread::yield();
          }
          journal.PublishAt(pos, MakeRecord(uid, uid,
                                            static_cast<adt::OpId>(uid %
                                                                   kNumOps),
                                            static_cast<int64_t>(uid)));
        }
      });
    }
    go.store(true, std::memory_order_release);
    for (auto& t : appenders) t.join();
    appended.store(true, std::memory_order_release);
    for (auto& t : scanners) t.join();
    if (::testing::Test::HasFailure()) return;
    EXPECT_EQ(journal.reserved(),
              static_cast<uint64_t>(kAppenders * kPerAppender));
    EXPECT_EQ(journal.LinkedChunks(), 1u);
    journal.Reset();  // quiescent: the next round starts chunkless again
  }
  // Every scanner's final scan follows the last append.
  EXPECT_GE(nonempty_scans.load(),
            static_cast<uint64_t>(kRounds * kScanners));
}

}  // namespace
}  // namespace objectbase::rt
