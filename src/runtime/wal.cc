#include "src/runtime/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "src/cc/waits_for.h"
#include "src/runtime/object_base.h"

namespace objectbase::rt {

namespace {

constexpr uint8_t kMagic[4] = {'O', 'B', 'W', 'L'};
constexpr size_t kFrameHeaderBytes = 12;  // magic + payload_len + crc32

bool WriteAll(int fd, const uint8_t* p, size_t n) {
  while (n > 0) {
    ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

// --- codec (host-endian; the log is read back on the same machine) ---------

void AppendBytes(std::vector<uint8_t>& out, const void* p, size_t n) {
  const uint8_t* b = static_cast<const uint8_t*>(p);
  out.insert(out.end(), b, b + n);
}
void AppendU8(std::vector<uint8_t>& out, uint8_t v) { out.push_back(v); }
void AppendU16(std::vector<uint8_t>& out, uint16_t v) {
  AppendBytes(out, &v, 2);
}
void AppendU32(std::vector<uint8_t>& out, uint32_t v) {
  AppendBytes(out, &v, 4);
}
void AppendU64(std::vector<uint8_t>& out, uint64_t v) {
  AppendBytes(out, &v, 8);
}

void AppendValue(std::vector<uint8_t>& out, const Value& v) {
  if (v.is_none()) {
    AppendU8(out, 0);
  } else if (v.is_int()) {
    AppendU8(out, 1);
    AppendU64(out, static_cast<uint64_t>(v.AsInt()));
  } else if (v.is_bool()) {
    AppendU8(out, 2);
    AppendU8(out, v.AsBool() ? 1 : 0);
  } else {
    const std::string& s = v.AsString();
    AppendU8(out, 3);
    AppendU32(out, static_cast<uint32_t>(s.size()));
    AppendBytes(out, s.data(), s.size());
  }
}

/// Bounds-checked sequential reader; any overrun latches `fail`.
struct Cursor {
  const uint8_t* p;
  size_t n;
  size_t off = 0;
  bool fail = false;

  bool Take(void* out, size_t k) {
    if (fail || n - off < k) {
      fail = true;
      return false;
    }
    memcpy(out, p + off, k);
    off += k;
    return true;
  }
  uint8_t U8() {
    uint8_t v = 0;
    Take(&v, 1);
    return v;
  }
  uint16_t U16() {
    uint16_t v = 0;
    Take(&v, 2);
    return v;
  }
  uint32_t U32() {
    uint32_t v = 0;
    Take(&v, 4);
    return v;
  }
  uint64_t U64() {
    uint64_t v = 0;
    Take(&v, 8);
    return v;
  }
  Value ReadValue() {
    switch (U8()) {
      case 0: return Value::None();
      case 1: return Value(static_cast<int64_t>(U64()));
      case 2: return Value(U8() != 0);
      case 3: {
        uint32_t len = U32();
        if (fail || n - off < len) {
          fail = true;
          return Value::None();
        }
        std::string s(reinterpret_cast<const char*>(p + off), len);
        off += len;
        return Value(std::move(s));
      }
      default: fail = true; return Value::None();
    }
  }
};

bool DecodeRecord(Cursor& c, WalRecord* out) {
  const uint8_t kind = c.U8();
  if (c.fail) return false;
  switch (static_cast<WalRecordKind>(kind)) {
    case WalRecordKind::kRedo: {
      out->kind = WalRecordKind::kRedo;
      out->object_id = c.U32();
      out->order_key = c.U64();
      out->top_uid = c.U64();
      out->exec_uid = c.U64();
      out->op_id = static_cast<adt::OpId>(c.U32());
      const uint16_t chain_len = c.U16();
      out->chain.clear();
      out->chain.reserve(chain_len);
      for (uint16_t i = 0; i < chain_len && !c.fail; ++i) {
        out->chain.push_back(c.U64());
      }
      const uint16_t argc = c.U16();
      out->args.clear();
      out->args.reserve(argc);
      for (uint16_t i = 0; i < argc && !c.fail; ++i) {
        out->args.push_back(c.ReadValue());
      }
      out->ret = c.ReadValue();
      return !c.fail;
    }
    case WalRecordKind::kCommit:
      out->kind = WalRecordKind::kCommit;
      out->top_uid = c.U64();
      out->order_key = c.U64();  // touched-shard mask (0 = single-log)
      return !c.fail;
    case WalRecordKind::kAbort:
      out->kind = WalRecordKind::kAbort;
      out->exec_uid = c.U64();
      return !c.fail;
    default:
      return false;
  }
}

}  // namespace

uint32_t WalCrc32(const uint8_t* data, size_t n) {
  // IEEE 802.3 reflected polynomial, slicing-by-8: t[k][b] is byte b's CRC
  // advanced k more zero bytes, so one step folds eight input bytes (every
  // logged byte is checksummed on write and again on recovery).  Tables
  // generated once.
  static const auto t = [] {
    std::array<std::array<uint32_t, 256>, 8> tab{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      tab[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (size_t k = 1; k < 8; ++k) {
        tab[k][i] = (tab[k - 1][i] >> 8) ^ tab[0][tab[k - 1][i] & 0xFFu];
      }
    }
    return tab;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; data += 8, n -= 8) {
    uint8_t b[8];
    memcpy(b, data, 8);
    const uint32_t lo = crc ^ (uint32_t{b[0]} | uint32_t{b[1]} << 8 |
                               uint32_t{b[2]} << 16 | uint32_t{b[3]} << 24);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][b[4]] ^
          t[2][b[5]] ^ t[1][b[6]] ^ t[0][b[7]];
  }
  for (; n > 0; ++data, --n) {
    crc = t[0][(crc ^ *data) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// --- WalWriter --------------------------------------------------------------

WalWriter::WalWriter(WalOptions options) : options_(std::move(options)) {
  size_t cap = options_.ring_capacity;
  if (cap < 2 || (cap & (cap - 1)) != 0) cap = size_t{1} << 14;
  mask_ = cap - 1;
  slots_ = std::make_unique<Slot[]>(cap);
  for (size_t i = 0; i < cap; ++i) {
    slots_[i].turn.store(i, std::memory_order_relaxed);
  }
  fd_ = ::open(options_.path.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC,
               0644);
  writer_ = std::thread([this] { WriterLoop(); });
}

WalWriter::~WalWriter() {
  {
    std::lock_guard<std::mutex> g(writer_mu_);
    stop_ = true;
  }
  writer_cv_.notify_one();
  writer_.join();
  if (fd_ >= 0) ::close(fd_);
}

WalWriter::Slot& WalWriter::Claim(uint64_t* pos) {
  *pos = reserved_.fetch_add(1, std::memory_order_acq_rel);
  Slot& s = slots_[*pos & mask_];
  // Ring-full backpressure: spin until the writer has retired the slot's
  // previous lap.  The writer never blocks on transaction state, so it
  // always makes progress.
  for (int spins = 0; s.turn.load(std::memory_order_acquire) != *pos;
       ++spins) {
    if (spins > 128) std::this_thread::yield();
  }
  return s;
}

void WalWriter::Publish(Slot& slot, uint64_t pos) {
  slot.turn.store(pos + 1, std::memory_order_release);
}

uint64_t WalWriter::StageRedo(
    uint32_t object_id, uint64_t order_key, uint64_t top_uid,
    uint64_t exec_uid, std::shared_ptr<const std::vector<uint64_t>> chain,
    adt::OpId op_id, const Args& args, const Value& ret) {
  uint64_t pos;
  Slot& s = Claim(&pos);
  s.kind = WalRecordKind::kRedo;
  s.object_id = object_id;
  s.order_key = order_key == kOrderByStagePos ? pos : order_key;
  s.top_uid = top_uid;
  s.exec_uid = exec_uid;
  s.op_id = op_id;
  s.chain = std::move(chain);
  s.args = args;
  s.ret = ret;
  Publish(s, pos);
  return pos;
}

uint64_t WalWriter::StageCommit(uint64_t top_uid, uint64_t shard_mask) {
  uint64_t pos;
  Slot& s = Claim(&pos);
  s.kind = WalRecordKind::kCommit;
  s.top_uid = top_uid;
  s.order_key = shard_mask;  // see the header: mask rides order_key
  Publish(s, pos);
  return pos;
}

uint64_t WalWriter::StageAbort(uint64_t subtree_root_uid) {
  uint64_t pos;
  Slot& s = Claim(&pos);
  s.kind = WalRecordKind::kAbort;
  s.exec_uid = subtree_root_uid;
  Publish(s, pos);
  return pos;
}

void WalWriter::WaitDurable(uint64_t pos, cc::WaitsForGraph* wf,
                            uint64_t thread_key) {
  if (durable_.load(std::memory_order_acquire) > pos) return;
  bool declared = false;
  if (wf != nullptr) {
    // Declare the commit-wait like PR 5's certifier waits so composite
    // wait states stay visible.  The pseudo-holder uid names no running
    // execution, so this can never report (or participate in) a cycle.
    declared = !wf->SetWaitingWouldDeadlock(
        thread_key, std::vector<uint64_t>{kWalPseudoHolderUid});
  }
  // The writer parks on a timed wait, so a bare notify (no writer_mu_ held
  // — keep the commit path off that mutex) at worst costs one poll period.
  writer_cv_.notify_one();
  {
    std::unique_lock<std::mutex> lk(waiter_mu_);
    waiter_cv_.wait(lk, [&] {
      return durable_.load(std::memory_order_acquire) > pos;
    });
  }
  if (declared) wf->ClearWaiting(thread_key);
}

void WalWriter::WriterLoop() {
  std::unique_lock<std::mutex> lk(writer_mu_);
  for (;;) {
    writer_cv_.wait_for(lk, std::chrono::microseconds(500), [&] {
      return stop_ || reserved_.load(std::memory_order_relaxed) != drained_;
    });
    const bool stopping = stop_;
    if (reserved_.load(std::memory_order_relaxed) != drained_) {
      lk.unlock();
      if (!stopping && options_.group_window_us > 0) {
        // Group-commit accumulation window: commits arriving while we
        // sleep (and while the sync below runs) share one fsync.
        std::this_thread::sleep_for(
            std::chrono::microseconds(options_.group_window_us));
      }
      DrainAndSync();
      lk.lock();
    }
    if (stop_ && reserved_.load(std::memory_order_relaxed) == drained_) break;
  }
}

void WalWriter::DrainAndSync() {
  const uint64_t end = reserved_.load(std::memory_order_acquire);
  if (end == drained_) return;
  batch_buf_.clear();
  for (uint64_t pos = drained_; pos != end; ++pos) {
    Slot& s = slots_[pos & mask_];
    // The producer that claimed `pos` is past its fetch_add; wait out its
    // field stores (published with release on `turn`).
    for (int spins = 0; s.turn.load(std::memory_order_acquire) != pos + 1;
         ++spins) {
      if (spins > 128) std::this_thread::yield();
    }
    AppendU8(batch_buf_, static_cast<uint8_t>(s.kind));
    switch (s.kind) {
      case WalRecordKind::kRedo: {
        AppendU32(batch_buf_, s.object_id);
        AppendU64(batch_buf_, s.order_key);
        AppendU64(batch_buf_, s.top_uid);
        AppendU64(batch_buf_, s.exec_uid);
        AppendU32(batch_buf_, static_cast<uint32_t>(s.op_id));
        const std::vector<uint64_t>* chain = s.chain ? s.chain.get() : nullptr;
        const size_t chain_len = chain ? chain->size() : 0;
        AppendU16(batch_buf_, static_cast<uint16_t>(chain_len));
        for (size_t i = 0; i < chain_len; ++i) {
          AppendU64(batch_buf_, (*chain)[i]);
        }
        AppendU16(batch_buf_, static_cast<uint16_t>(s.args.size()));
        for (const Value& a : s.args) AppendValue(batch_buf_, a);
        AppendValue(batch_buf_, s.ret);
        break;
      }
      case WalRecordKind::kCommit:
        AppendU64(batch_buf_, s.top_uid);
        AppendU64(batch_buf_, s.order_key);  // touched-shard mask
        break;
      case WalRecordKind::kAbort:
        AppendU64(batch_buf_, s.exec_uid);
        break;
    }
    // Retire the slot for the next lap (and drop payload memory early).
    s.chain.reset();
    s.args.clear();
    s.ret = Value();
    s.turn.store(pos + mask_ + 1, std::memory_order_release);
  }
  if (fd_ >= 0) {
    uint8_t header[kFrameHeaderBytes];
    memcpy(header, kMagic, 4);
    const uint32_t len = static_cast<uint32_t>(batch_buf_.size());
    const uint32_t crc = WalCrc32(batch_buf_.data(), batch_buf_.size());
    memcpy(header + 4, &len, 4);
    memcpy(header + 8, &crc, 4);
    if (WriteAll(fd_, header, kFrameHeaderBytes) &&
        WriteAll(fd_, batch_buf_.data(), batch_buf_.size())) {
      ::fsync(fd_);
      frames_.fetch_add(1, std::memory_order_relaxed);
      syncs_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  drained_ = end;
  durable_.store(end, std::memory_order_release);
  // Empty critical section: pairs the store with waiters' predicate check.
  { std::lock_guard<std::mutex> g(waiter_mu_); }
  waiter_cv_.notify_all();
}

// --- scan / recovery --------------------------------------------------------

WalScanResult ScanWal(const std::string& path) {
  WalScanResult result;
  FILE* f = ::fopen(path.c_str(), "rb");
  if (f == nullptr) return result;
  std::vector<uint8_t> bytes;
  struct stat st;
  if (::fstat(::fileno(f), &st) == 0 && st.st_size > 0) {
    bytes.reserve(static_cast<size_t>(st.st_size));  // one buffer, no regrowth
  }
  uint8_t chunk[1 << 16];
  size_t got;
  while ((got = ::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + got);
  }
  ::fclose(f);
  result.ok = true;
  result.file_bytes = bytes.size();

  size_t off = 0;
  while (off < bytes.size()) {
    // Frame header: magic, payload length, payload CRC.  Anything short,
    // mismatched or checksum-failing ends the valid prefix — the frame was
    // torn mid-write (its fsync never completed, so no transaction in it
    // was acknowledged) or damaged.
    if (bytes.size() - off < kFrameHeaderBytes) break;
    if (memcmp(bytes.data() + off, kMagic, 4) != 0) break;
    uint32_t len, crc;
    memcpy(&len, bytes.data() + off + 4, 4);
    memcpy(&crc, bytes.data() + off + 8, 4);
    if (bytes.size() - off - kFrameHeaderBytes < len) break;
    const uint8_t* payload = bytes.data() + off + kFrameHeaderBytes;
    if (WalCrc32(payload, len) != crc) break;
    // Decode the frame's records in place; a decode overrun (impossible
    // without a CRC collision, but checked anyway) drops the whole frame and
    // also ends the prefix.
    Cursor c{payload, len};
    const size_t frame_begin = result.records.size();
    bool decode_ok = true;
    while (c.off < c.n) {
      if (!DecodeRecord(c, &result.records.emplace_back())) {
        decode_ok = false;
        break;
      }
    }
    if (!decode_ok) {
      result.records.resize(frame_begin);
      break;
    }
    for (size_t i = frame_begin; i < result.records.size(); ++i) {
      const WalRecord& r = result.records[i];
      switch (r.kind) {
        case WalRecordKind::kCommit:
          result.committed_tops.push_back(r.top_uid);
          break;
        case WalRecordKind::kAbort:
          result.aborted_subtrees.push_back(r.exec_uid);
          break;
        case WalRecordKind::kRedo:
          break;
      }
    }
    off += kFrameHeaderBytes + len;
    result.frames += 1;
  }
  result.valid_bytes = off;
  result.torn = off < bytes.size();
  return result;
}

namespace {

// Replays one log: partitions `scan`'s surviving redo records per object
// and replays them onto `base`, accumulating counters into `result`.  The
// caller decides, across every log, which tops are committed.
void ReplayScan(const WalScanResult& scan,
                const std::unordered_set<uint64_t>& committed,
                const std::unordered_set<uint64_t>& aborted, ObjectBase& base,
                WalRecoveryResult& result) {
  // Partition surviving redo records per object.  A record survives iff
  // its top committed durably AND no execution on its ancestor chain was
  // partially aborted (the kAbort excision rule).
  std::unordered_map<uint32_t, std::vector<const WalRecord*>> by_object;
  for (const WalRecord& r : scan.records) {
    if (r.kind != WalRecordKind::kRedo) continue;
    if (committed.count(r.top_uid) == 0) {
      ++result.skipped_uncommitted;
      continue;
    }
    bool excised = false;
    if (!aborted.empty()) {
      for (uint64_t uid : r.chain) {
        if (aborted.count(uid) != 0) {
          excised = true;
          break;
        }
      }
    }
    if (excised) {
      ++result.skipped_aborted;
      continue;
    }
    if (r.object_id >= base.size()) {
      ++result.unknown_objects;
      continue;
    }
    by_object[r.object_id].push_back(&r);
  }

  // Per object: replay in order-key order (the application order — journal
  // position or staging position, both assigned inside the apply critical
  // section), re-checking each recorded return value.  ret_mismatches == 0
  // iff the replay is step-level legal (Definition 6 condition 3 restricted
  // to the committed projection).
  for (auto& [object_id, records] : by_object) {
    std::stable_sort(records.begin(), records.end(),
                     [](const WalRecord* a, const WalRecord* b) {
                       return a->order_key < b->order_key;
                     });
    Object& obj = base.Get(object_id);
    for (const WalRecord* r : records) {
      if (r->op_id >= obj.spec().NumOps()) {
        ++result.unknown_objects;
        continue;
      }
      Value replayed = obj.ApplyRedo(r->op_id, r->args);
      if (replayed != r->ret) ++result.ret_mismatches;
      ++result.applied;
    }
    obj.SealRecoveredState();
  }
}

}  // namespace

std::string ShardWalPath(const std::string& base_path, uint32_t shard) {
  if (shard == 0) return base_path;
  return base_path + ".s" + std::to_string(shard);
}

WalRecoveryResult RecoverShardedWalInto(const std::string& base_path,
                                        uint32_t num_shards, ObjectBase& base) {
  WalRecoveryResult result;
  if (num_shards < 1) num_shards = 1;
  std::vector<WalScanResult> scans;
  scans.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    scans.push_back(ScanWal(ShardWalPath(base_path, s)));
  }
  // A missing/unreadable shard-0 log is the single-log failure mode; a
  // missing higher shard's log just contributes nothing (a shard that never
  // staged a record may have an empty or absent file after a crash).
  result.ok = scans[0].ok;
  for (const WalScanResult& s : scans) {
    result.torn = result.torn || s.torn;
    result.valid_bytes += s.valid_bytes;
    result.frames += s.frames;
  }
  if (!result.ok) return result;

  // Commit rule (cross-log atomicity): a mask-0 marker commits its top by
  // itself; a masked marker commits only if EVERY log named by the mask
  // holds a marker for the same top.  A crash between the per-shard marker
  // syncs of a cross-shard commit therefore recovers as an abort — which is
  // sound, because commit was never acknowledged (the committer waits for
  // ALL touched shards' durability before MarkCommitted / returning).
  std::unordered_map<uint64_t, uint64_t> mask_of;  // top uid -> union mask
  std::vector<std::unordered_set<uint64_t>> present(num_shards);
  std::unordered_set<uint64_t> committed;
  for (uint32_t s = 0; s < num_shards; ++s) {
    for (const WalRecord& r : scans[s].records) {
      if (r.kind != WalRecordKind::kCommit) continue;
      if (r.order_key == 0) {
        committed.insert(r.top_uid);
      } else {
        present[s].insert(r.top_uid);  // only masked markers are looked up
        mask_of[r.top_uid] |= r.order_key;
      }
    }
  }
  for (const auto& [uid, mask] : mask_of) {
    bool all = true;
    for (uint32_t s = 0; s < num_shards && all; ++s) {
      if ((mask >> s) & 1) all = present[s].count(uid) != 0;
    }
    if (all) committed.insert(uid);
  }
  result.committed_tops = committed.size();

  // Aborted subtrees union over logs (the abort path stages its marker on
  // every shard's log, but a crash can leave only some of them).
  std::unordered_set<uint64_t> aborted;
  for (const WalScanResult& s : scans) {
    aborted.insert(s.aborted_subtrees.begin(), s.aborted_subtrees.end());
  }

  // Objects are partitioned across shards, so each object's redos live in
  // exactly one log and per-log replay order is the true per-object
  // application order.
  for (const WalScanResult& s : scans) {
    ReplayScan(s, committed, aborted, base, result);
  }
  return result;
}

}  // namespace objectbase::rt
