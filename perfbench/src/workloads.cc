#include "perfbench/src/workloads.h"

#include <algorithm>

#include "perfbench/src/checks.h"
#include "src/adt/bank_account_adt.h"
#include "src/adt/btree_dictionary_adt.h"
#include "src/adt/counter_adt.h"

namespace perfbench {

namespace ob = objectbase;
namespace rt = objectbase::rt;
using ob::Value;

namespace {

// ---------------------------------------------------------------- banking --
//
// Accounts a0..a{n-1} (BankAccount, opening balance kInitialBalance) and
// branch counters branch0..branch3; account i belongs to branch i % 4.
// 90% transfers (withdraw from src; if it succeeded, deposit to dst and move
// the amount between the two branch counters), 10% audits reading four
// balances.  The opening balance is far above what a run can move, so
// every withdraw succeeds and every transfer does the same four steps.

constexpr int kBranches = 4;
constexpr int64_t kInitialBalance = 1'000'000'000;
constexpr int kAuditReads = 4;

struct BankParams {
  rt::Protocol protocol;
  uint32_t accounts;
  double theta;
};

class BankWorkload : public Workload {
 public:
  BankWorkload(BankParams p, uint64_t seed, int clients)
      : p_(p),
        zipf_(p.accounts, p.theta),
        perm_(Permutation(p.accounts, Rng::Stream(seed, 1000))),
        inputs_(clients),
        delta_(clients) {
    ResetTally();
  }

  uint32_t shards() const override { return 1; }
  rt::ExecutorOptions Options() const override {
    rt::ExecutorOptions o;
    o.protocol = p_.protocol;
    o.record = false;
    return o;
  }

  std::unique_ptr<rt::ObjectBase> MakeBase() const override {
    auto base = std::make_unique<rt::ObjectBase>();
    auto account = ob::adt::MakeBankAccountSpec(kInitialBalance);
    auto counter = ob::adt::MakeCounterSpec(0);
    for (uint32_t i = 0; i < p_.accounts; ++i) {
      base->CreateObject("a" + std::to_string(i), account);
    }
    for (int b = 0; b < kBranches; ++b) {
      base->CreateObject("branch" + std::to_string(b), counter);
    }
    return base;
  }

  void Resolve(rt::Executor& exec) override {
    withdraw_.assign(p_.accounts, {});
    deposit_.assign(p_.accounts, {});
    balance_.assign(p_.accounts, {});
    for (uint32_t i = 0; i < p_.accounts; ++i) {
      rt::ObjectHandle h = exec.FindObject("a" + std::to_string(i));
      withdraw_[i] = exec.Resolve(h, "withdraw");
      deposit_[i] = exec.Resolve(h, "deposit");
      balance_[i] = exec.Resolve(h, "balance");
    }
    branch_add_.assign(kBranches, {});
    branch_get_.assign(kBranches, {});
    for (int b = 0; b < kBranches; ++b) {
      rt::ObjectHandle h = exec.FindObject("branch" + std::to_string(b));
      branch_add_[b] = exec.Resolve(h, "add");
      branch_get_[b] = exec.Resolve(h, "get");
    }
  }

  uint64_t Prefill(rt::Executor&) override { return 0; }

  void ResetTally() override {
    for (auto& d : delta_) d.assign(p_.accounts, 0);
  }

  void Next(Client& c) override {
    Input& in = inputs_[c.id];
    in.audit = c.rng.Below(10) == 0;
    if (in.audit) {
      for (uint32_t& a : in.read) a = Pick(c.rng);
      return;
    }
    in.src = Pick(c.rng);
    do {
      in.dst = Pick(c.rng);
    } while (in.dst == in.src);
    in.amount = 1 + static_cast<int64_t>(c.rng.Below(100));
  }

  Value Body(Client& c, rt::MethodCtx& txn) override {
    const Input& in = inputs_[c.id];
    if (in.audit) {
      int64_t sum = 0;
      for (uint32_t a : in.read) {
        const int64_t b = Call(c, txn, balance_[a], kBalance).AsInt();
        if (b < 0) return Value(int64_t{-1});
        sum += b;
      }
      return Value(sum);
    }
    if (!Call(c, txn, withdraw_[in.src], kWithdraw, {in.amount}).AsBool()) {
      return Value(int64_t{0});
    }
    Call(c, txn, deposit_[in.dst], kDeposit, {in.amount});
    Call(c, txn, branch_add_[in.src % kBranches], kCounterAdd, {-in.amount});
    Call(c, txn, branch_add_[in.dst % kBranches], kCounterAdd, {in.amount});
    return Value(in.amount);
  }

  bool Acknowledge(Client& c, const rt::TxnResult& r) override {
    if (!r.committed) return true;
    if (!r.ret.is_int()) return false;
    const Input& in = inputs_[c.id];
    const int64_t v = r.ret.AsInt();
    if (in.audit) return v >= 0;
    if (v != 0 && v != in.amount) return false;
    delta_[c.id][in.src] -= v;
    delta_[c.id][in.dst] += v;
    return true;
  }

  bool CrossShard(const Client&) const override { return false; }

  std::string CheckLive(rt::Executor& exec, uint64_t* read_commits) override {
    ReadBack rb;
    std::vector<int64_t> balances = ReadInts(exec, balance_, &rb);
    std::vector<int64_t> branches = ReadInts(exec, branch_get_, &rb);
    *read_commits += rb.commits;
    if (!rb.ok) return "read-back transactions did not commit";
    std::vector<int64_t> delta(p_.accounts, 0);
    for (const auto& d : delta_) {
      for (uint32_t i = 0; i < p_.accounts; ++i) delta[i] += d[i];
    }
    return CheckBankTally(balances, branches, kInitialBalance, delta);
  }

 private:
  struct Input {
    bool audit = false;
    uint32_t src = 0;
    uint32_t dst = 0;
    int64_t amount = 0;
    std::array<uint32_t, kAuditReads> read{};
  };

  uint32_t Pick(Rng& rng) const { return perm_[zipf_.Sample(rng)]; }

  BankParams p_;
  Zipf zipf_;
  std::vector<uint32_t> perm_;
  std::vector<Input> inputs_;                // by client
  std::vector<std::vector<int64_t>> delta_;  // by client, by account
  std::vector<rt::MethodRef> withdraw_, deposit_, balance_;
  std::vector<rt::MethodRef> branch_add_, branch_get_;
};

// ----------------------------------------------------------- dictionaries --
//
// B-tree dictionaries d0..d7 on a 4-shard base (placement id % 4) plus a
// counter `total` of all entries.  Key k of the 65,536-key space lives in
// dictionary k % 8.  A seeded half of the keys is prefilled.  Each
// transaction does four operations, get:put:del = 4:2:1, on Zipf(0.6) keys,
// then adds its net size change to `total`.

constexpr uint32_t kDicts = 8;
constexpr uint32_t kDictShards = 4;
constexpr uint32_t kKeys = 65536;
constexpr double kDictTheta = 0.6;
constexpr int kOpsPerTxn = 4;
constexpr uint32_t kPrefillBatch = 512;

class DictWorkload : public Workload {
 public:
  DictWorkload(uint64_t seed, int clients)
      : zipf_(kKeys, kDictTheta),
        perm_(Permutation(kKeys, Rng::Stream(seed, 2000))),
        inputs_(clients),
        net_(clients, 0) {
    Rng r = Rng::Stream(seed, 2001);
    for (uint32_t k = 0; k < kKeys; ++k) {
      if (r.Below(2) == 0) prefill_.push_back({k, static_cast<int64_t>(r.Next() >> 1)});
    }
  }

  uint32_t shards() const override { return kDictShards; }
  rt::ExecutorOptions Options() const override {
    rt::ExecutorOptions o;
    o.protocol = rt::Protocol::kNto;
    o.record = false;
    return o;
  }

  std::unique_ptr<rt::ObjectBase> MakeBase() const override {
    auto base = std::make_unique<rt::ShardedBase>(kDictShards);
    auto dict = ob::adt::MakeBTreeDictionarySpec();
    for (uint32_t d = 0; d < kDicts; ++d) {
      base->CreateObject("d" + std::to_string(d), dict);
    }
    base->CreateObject("total", ob::adt::MakeCounterSpec(0));
    return base;
  }

  void Resolve(rt::Executor& exec) override {
    for (uint32_t d = 0; d < kDicts; ++d) {
      rt::ObjectHandle h = exec.FindObject("d" + std::to_string(d));
      get_[d] = exec.Resolve(h, "get");
      put_[d] = exec.Resolve(h, "put");
      del_[d] = exec.Resolve(h, "del");
      count_[d] = exec.Resolve(h, "count");
      dict_shard_[d] = exec.base().Get(h.id()).shard();
    }
    rt::ObjectHandle t = exec.FindObject("total");
    total_add_ = exec.Resolve(t, "add");
    total_get_ = exec.Resolve(t, "get");
    total_shard_ = exec.base().Get(t.id()).shard();
  }

  uint64_t Prefill(rt::Executor& exec) override {
    static const std::string kName = "perfbench_prefill";
    std::array<std::vector<std::pair<uint32_t, int64_t>>, kDicts> by_dict;
    for (const auto& kv : prefill_) by_dict[kv.first % kDicts].push_back(kv);
    uint64_t commits = 0;
    for (const auto& entries : by_dict) {
      for (size_t lo = 0; lo < entries.size(); lo += kPrefillBatch) {
        const size_t hi = std::min(entries.size(), lo + kPrefillBatch);
        rt::TxnResult r = exec.RunTransaction(kName, [&](rt::MethodCtx& txn) {
          int64_t added = 0;
          for (size_t i = lo; i < hi; ++i) {
            const uint32_t k = entries[i].first;
            if (txn.Invoke(put_[k % kDicts], {int64_t{k}, entries[i].second})
                    .is_none()) {
              ++added;
            }
          }
          txn.Invoke(total_add_, {added});
          return Value(added);
        });
        if (!r.committed || r.ret.AsInt() != static_cast<int64_t>(hi - lo)) {
          return commits;  // CheckLive reports the missing entries
        }
        ++commits;
      }
    }
    return commits;
  }

  void ResetTally() override { std::fill(net_.begin(), net_.end(), 0); }

  void Next(Client& c) override {
    Input& in = inputs_[c.id];
    for (DictOp& op : in.ops) {
      const uint64_t kind = c.rng.Below(7);
      op.op = kind < 4 ? kDictGet : (kind < 6 ? kDictPut : kDictDel);
      op.key = perm_[zipf_.Sample(c.rng)];
      op.value = static_cast<int64_t>(c.rng.Next() >> 1);
    }
  }

  Value Body(Client& c, rt::MethodCtx& txn) override {
    const Input& in = inputs_[c.id];
    int64_t net = 0;
    for (const DictOp& op : in.ops) {
      const uint32_t d = op.key % kDicts;
      const int64_t k = op.key;
      switch (op.op) {
        case kDictGet:
          Call(c, txn, get_[d], kDictGet, {k});
          break;
        case kDictPut:
          if (Call(c, txn, put_[d], kDictPut, {k, op.value}).is_none()) ++net;
          break;
        default:
          if (Call(c, txn, del_[d], kDictDel, {k}).AsBool()) --net;
          break;
      }
    }
    Call(c, txn, total_add_, kCounterAdd, {net});
    return Value(net);
  }

  bool Acknowledge(Client& c, const rt::TxnResult& r) override {
    if (!r.committed) return true;
    if (!r.ret.is_int()) return false;
    const int64_t net = r.ret.AsInt();
    if (net < -kOpsPerTxn || net > kOpsPerTxn) return false;
    net_[c.id] += net;
    return true;
  }

  bool CrossShard(const Client& c) const override {
    for (const DictOp& op : inputs_[c.id].ops) {
      if (dict_shard_[op.key % kDicts] != total_shard_) return true;
    }
    return false;
  }

  std::string CheckLive(rt::Executor& exec, uint64_t* read_commits) override {
    ReadBack rb;
    std::vector<int64_t> sizes = ReadInts(
        exec, std::vector<rt::MethodRef>(count_.begin(), count_.end()), &rb);
    std::vector<int64_t> total = ReadInts(exec, {total_get_}, &rb);
    *read_commits += rb.commits;
    if (!rb.ok) return "read-back transactions did not commit";
    int64_t expected = static_cast<int64_t>(prefill_.size());
    for (int64_t n : net_) expected += n;
    return CheckDictTotals(total[0], sizes, expected);
  }

 private:
  struct DictOp {
    Op op = kDictGet;
    uint32_t key = 0;
    int64_t value = 0;
  };
  struct Input {
    std::array<DictOp, kOpsPerTxn> ops{};
  };

  Zipf zipf_;
  std::vector<uint32_t> perm_;
  std::vector<std::pair<uint32_t, int64_t>> prefill_;  // (key, value)
  std::vector<Input> inputs_;                          // by client
  std::vector<int64_t> net_;                           // by client
  std::array<rt::MethodRef, kDicts> get_{}, put_{}, del_{}, count_{};
  std::array<uint32_t, kDicts> dict_shard_{};
  rt::MethodRef total_add_, total_get_;
  uint32_t total_shard_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       int clients) {
  if (name == "bank-spread") {
    return std::make_unique<BankWorkload>(
        BankParams{.protocol = rt::Protocol::kN2pl,
                   .accounts = 65536,
                   .theta = 0.0},
        seed, clients);
  }
  if (name == "bank-hot") {
    // 64 accounts: 4% of attempts abort.  At 16, 12% abort and sleep in
    // the retry backoff, and throughput followed how fast the host woke
    // sleeping vCPUs (38k-122k txn/s between processes of one run set).
    return std::make_unique<BankWorkload>(
        BankParams{.protocol = rt::Protocol::kCert,
                   .accounts = 64,
                   .theta = 0.9},
        seed, clients);
  }
  if (name == "dict-durable") return std::make_unique<DictWorkload>(seed, clients);
  return nullptr;
}

}  // namespace perfbench
