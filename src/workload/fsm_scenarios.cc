#include "src/workload/fsm_scenarios.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/adt/bank_account_adt.h"
#include "src/adt/btree_dictionary_adt.h"
#include "src/adt/counter_adt.h"
#include "src/adt/queue_adt.h"
#include "src/adt/set_adt.h"

// Every scenario follows the resolve-once/execute-many discipline: the
// workload's `setup` hook resolves MethodRefs into a shared Handles struct,
// so state bodies and checks touch no name maps.  Checks
// read THROUGH transactions (one read-only txn per check) — a check that
// fails to commit under contention observed no serialisation point and
// passes no judgment.

namespace objectbase::workload {
namespace {

std::string Obj(const std::string& prefix, const char* suffix) {
  return prefix + ":" + suffix;
}

std::string Numbered(const char* prefix, int i) {
  return std::string(prefix) + ":" + std::to_string(i);
}

// An i.i.d. mix: every row of the transition table is the state weights, so
// the next state is drawn independently of the current one.
std::vector<std::vector<double>> IidRows(const std::vector<double>& weights) {
  std::vector<std::vector<double>> rows(weights.size(), weights);
  NormalizeTransitionRows(rows);
  return rows;
}

}  // namespace

// --- banking ---------------------------------------------------------------------

namespace {
struct BankingHandles {
  std::vector<rt::MethodRef> withdraw, deposit, balance;  // per account
  std::vector<rt::MethodRef> branch_add, branch_get;      // per branch
};
}  // namespace

void SetupBanking(rt::ObjectBase& base, const BankingParams& p) {
  for (int i = 0; i < p.accounts; ++i) {
    base.CreateObject(Numbered("acct", i), adt::MakeBankAccountSpec(p.initial));
  }
  for (int i = 0; i < p.branches; ++i) {
    base.CreateObject(Numbered("branch", i), adt::MakeCounterSpec(0));
  }
}

FsmWorkload MakeBankingFsm(const BankingParams& p) {
  const BankingParams params = p;
  auto zipf = std::make_shared<ZipfGenerator>(p.accounts, p.theta);
  auto handles = std::make_shared<BankingHandles>();

  FsmWorkload w;
  w.name = "banking";

  w.setup = [params, handles](rt::Executor& exec) {
    *handles = BankingHandles{};
    for (int i = 0; i < params.accounts; ++i) {
      rt::ObjectHandle acct = exec.FindObject(Numbered("acct", i));
      handles->withdraw.push_back(exec.Resolve(acct, "withdraw"));
      handles->deposit.push_back(exec.Resolve(acct, "deposit"));
      handles->balance.push_back(exec.Resolve(acct, "balance"));
    }
    for (int i = 0; i < params.branches; ++i) {
      rt::ObjectHandle branch = exec.FindObject(Numbered("branch", i));
      handles->branch_add.push_back(exec.Resolve(branch, "add"));
      handles->branch_get.push_back(exec.Resolve(branch, "get"));
    }
  };

  FsmState transfer;
  transfer.name = "transfer";
  transfer.make = [params, zipf, handles](Rng& rng) -> rt::MethodFn {
    int from = static_cast<int>(zipf->Next(rng));
    int to = static_cast<int>(zipf->Next(rng));
    if (to == from) to = (to + 1) % params.accounts;
    int64_t amount = rng.Range(1, 20);
    int branch_from = from % params.branches;
    int branch_to = to % params.branches;
    return [handles, from, to, amount, branch_from,
            branch_to](rt::MethodCtx& txn) -> Value {
      if (!txn.Invoke(handles->withdraw[from], {amount}).AsBool()) {
        return Value(false);  // insufficient funds: no-op txn
      }
      txn.Invoke(handles->deposit[to], {amount});
      txn.Invoke(handles->branch_add[branch_from], {-amount});
      txn.Invoke(handles->branch_add[branch_to], {amount});
      return Value(true);
    };
  };
  w.states.push_back(transfer);
  std::vector<double> weights{1.0 - p.audit_weight};

  if (p.audit_weight > 0) {
    FsmState audit;
    audit.name = "audit";
    audit.make = [params, zipf, handles](Rng& rng) -> rt::MethodFn {
      std::vector<int> targets;
      for (int i = 0; i < params.audit_scan; ++i) {
        targets.push_back(static_cast<int>(zipf->Next(rng)));
      }
      return [handles, targets](rt::MethodCtx& txn) -> Value {
        int64_t sum = 0;
        for (int t : targets) sum += txn.Invoke(handles->balance[t]).AsInt();
        return Value(sum);
      };
    };
    w.states.push_back(audit);
    weights.push_back(p.audit_weight);
  }
  w.transitions = IidRows(weights);

  // Each transfer debits one account, credits another and moves the amount
  // through the branch counters with net zero, so the total never changes.
  w.teardown = [params, handles](FsmCheckCtx& ctx) {
    auto total = std::make_shared<int64_t>(0);
    rt::TxnResult r = ctx.exec().RunTransaction(
        "banking/audit-all", [handles, total](rt::MethodCtx& txn) -> Value {
          *total = 0;
          for (const rt::MethodRef& b : handles->balance) {
            *total += txn.Invoke(b).AsInt();
          }
          for (const rt::MethodRef& g : handles->branch_get) {
            *total += txn.Invoke(g).AsInt();
          }
          return Value();
        });
    if (!r.committed) {
      ctx.Fail("teardown audit transaction failed to commit");
      return;
    }
    const int64_t expected = params.initial * params.accounts;
    if (*total != expected) {
      ctx.Fail("money not conserved: total " + std::to_string(*total) +
               " != " + std::to_string(expected));
    }
  };
  return w;
}

// --- queue load ------------------------------------------------------------------

namespace {
struct QueueHandles {
  std::vector<rt::MethodRef> enqueue, dequeue;  // per queue
};
}  // namespace

void SetupQueues(rt::ObjectBase& base, const QueueParams& p) {
  for (int i = 0; i < p.queues; ++i) {
    base.CreateObject(Numbered("queue", i), adt::MakeQueueSpec());
  }
}

FsmWorkload MakeQueueFsm(const QueueParams& p) {
  const QueueParams params = p;
  // A global tag source keeps enqueued values distinct, which is what lets
  // step-granularity conflict tests tell items apart.
  auto tag = std::make_shared<std::atomic<int64_t>>(1'000'000);
  auto handles = std::make_shared<QueueHandles>();

  FsmWorkload w;
  w.name = "queue-load";

  w.setup = [params, tag, handles](rt::Executor& exec) {
    *handles = QueueHandles{};
    for (int i = 0; i < params.queues; ++i) {
      rt::ObjectHandle q = exec.FindObject(Numbered("queue", i));
      handles->enqueue.push_back(exec.Resolve(q, "enqueue"));
      handles->dequeue.push_back(exec.Resolve(q, "dequeue"));
    }
    if (params.prefill <= 0) return;
    const int64_t first = tag->fetch_add(params.prefill * params.queues);
    exec.RunTransaction("queue-load/prefill",
                        [params, handles, first](rt::MethodCtx& txn) -> Value {
                          int64_t next = first;
                          for (const rt::MethodRef& enq : handles->enqueue) {
                            for (int64_t i = 0; i < params.prefill; ++i) {
                              txn.Invoke(enq, {next++});
                            }
                          }
                          return Value();
                        });
  };

  FsmState produce;
  produce.name = "produce";
  produce.make = [params, tag, handles](Rng& rng) -> rt::MethodFn {
    int q = static_cast<int>(rng.Uniform(params.queues));
    int64_t base_tag = tag->fetch_add(params.batch);
    return [params, handles, q, base_tag](rt::MethodCtx& txn) -> Value {
      for (int i = 0; i < params.batch; ++i) {
        txn.Invoke(handles->enqueue[q], {base_tag + i});
      }
      return Value(static_cast<int64_t>(params.batch));
    };
  };

  FsmState consume;
  consume.name = "consume";
  consume.make = [params, handles](Rng& rng) -> rt::MethodFn {
    int q = static_cast<int>(rng.Uniform(params.queues));
    return [params, handles, q](rt::MethodCtx& txn) -> Value {
      int64_t got = 0;
      for (int i = 0; i < params.batch; ++i) {
        if (!txn.Invoke(handles->dequeue[q]).is_none()) ++got;
      }
      return Value(got);
    };
  };

  w.states = {produce, consume};
  w.transitions = IidRows({p.producer_weight, p.consumer_weight});
  return w;
}

// --- secondary-index maintenance --------------------------------------------

namespace {
struct SiHandles {
  rt::MethodRef get, put, del, count;          // <prefix>:dict
  rt::MethodRef insert, erase, contains, size; // <prefix>:index
};

// What one check transaction observed at its serialisation point.
struct SiRead {
  Value value;
  bool in_index = false;
  int64_t count = 0;
  int64_t size = 0;
};
}  // namespace

void SetupSecondaryIndex(rt::ObjectBase& base, const SecondaryIndexParams& p) {
  base.CreateObject(Obj(p.prefix, "dict"), adt::MakeBTreeDictionarySpec());
  base.CreateObject(Obj(p.prefix, "index"), adt::MakeSetSpec());
}

FsmWorkload MakeSecondaryIndexFsm(const SecondaryIndexParams& p) {
  const SecondaryIndexParams params = p;
  auto zipf = std::make_shared<ZipfGenerator>(p.keyspace, p.theta);
  auto handles = std::make_shared<SiHandles>();
  const std::string check_name = p.prefix + "/check";

  FsmWorkload w;
  w.name = "secondary-index";
  w.threads = p.threads;
  w.iterations = p.iterations;

  w.setup = [params, handles](rt::Executor& exec) {
    rt::ObjectHandle dict = exec.FindObject(Obj(params.prefix, "dict"));
    rt::ObjectHandle index = exec.FindObject(Obj(params.prefix, "index"));
    handles->get = exec.Resolve(dict, "get");
    handles->put = exec.Resolve(dict, "put");
    handles->del = exec.Resolve(dict, "del");
    handles->count = exec.Resolve(dict, "count");
    handles->insert = exec.Resolve(index, "insert");
    handles->erase = exec.Resolve(index, "erase");
    handles->contains = exec.Resolve(index, "contains");
    handles->size = exec.Resolve(index, "size");
    // Prefill is idempotent (put overwrites, insert is a no-op on present
    // keys), so repeated Run() calls on one base stay consistent.
    const std::string name = params.prefix + "/prefill";
    exec.RunTransaction(name, [params, handles](rt::MethodCtx& txn) -> Value {
      for (int64_t k = 0; k < params.prefill; ++k) {
        txn.Invoke(handles->put, {k, k + 1});
        txn.Invoke(handles->insert, {k});
      }
      return Value();
    });
  };

  // Every mutating state maintains the invariant INSIDE its transaction:
  // the index is updated iff the dictionary's key-set actually changed.
  FsmState upsert;
  upsert.name = "upsert";
  upsert.make = [zipf, handles](Rng& rng) -> rt::MethodFn {
    int64_t k = static_cast<int64_t>(zipf->Next(rng));
    int64_t v = rng.Range(1, 1'000'000);
    return [handles, k, v](rt::MethodCtx& txn) -> Value {
      Value old = txn.Invoke(handles->put, {k, v});
      if (old.is_none()) txn.Invoke(handles->insert, {k});
      return Value(true);
    };
  };

  FsmState remove;
  remove.name = "remove";
  remove.make = [zipf, handles](Rng& rng) -> rt::MethodFn {
    int64_t k = static_cast<int64_t>(zipf->Next(rng));
    return [handles, k](rt::MethodCtx& txn) -> Value {
      Value was = txn.Invoke(handles->del, {k});
      if (was.AsBool()) txn.Invoke(handles->erase, {k});
      return Value(was.AsBool());
    };
  };

  FsmState lookup;
  lookup.name = "lookup";
  lookup.make = [zipf, handles](Rng& rng) -> rt::MethodFn {
    int64_t k = static_cast<int64_t>(zipf->Next(rng));
    return [handles, k](rt::MethodCtx& txn) -> Value {
      Value v = txn.Invoke(handles->get, {k});
      txn.Invoke(handles->contains, {k});
      return v;
    };
  };

  // The cross-object invariant, checked at a fresh serialisation point
  // after every committed visit: key in dict <=> key in index, and the
  // cardinalities agree.
  auto check = [zipf, handles, check_name](FsmCheckCtx& ctx) {
    int64_t k = static_cast<int64_t>(zipf->Next(ctx.rng()));
    auto seen = std::make_shared<SiRead>();
    rt::TxnResult r = ctx.exec().RunTransaction(
        check_name, [handles, k, seen](rt::MethodCtx& txn) -> Value {
          seen->value = txn.Invoke(handles->get, {k});
          seen->in_index = txn.Invoke(handles->contains, {k}).AsBool();
          seen->count = txn.Invoke(handles->count).AsInt();
          seen->size = txn.Invoke(handles->size).AsInt();
          return Value();
        });
    if (!r.committed) return;
    if (seen->value.is_none() == seen->in_index) {
      ctx.Fail("key " + std::to_string(k) + " dict/index disagree (present=" +
               (seen->value.is_none() ? "no" : "yes") + ", indexed=" +
               (seen->in_index ? "yes" : "no") + ")");
    }
    if (seen->count != seen->size) {
      ctx.Fail("dict count " + std::to_string(seen->count) + " != index size " +
               std::to_string(seen->size));
    }
  };
  upsert.check = check;
  remove.check = check;
  lookup.check = check;

  w.states = {upsert, remove, lookup};
  w.transitions = {
      {2, 2, 1},  // upsert: keep churning, sometimes verify via lookup
      {2, 1, 2},
      {2, 2, 1},
  };
  NormalizeTransitionRows(w.transitions);

  // Whole-keyspace audit once the walkers are done.
  w.teardown = [params, handles, check_name](FsmCheckCtx& ctx) {
    auto seen = std::make_shared<SiRead>();
    auto bad_key = std::make_shared<int64_t>(-1);
    rt::TxnResult r = ctx.exec().RunTransaction(
        check_name,
        [params, handles, seen, bad_key](rt::MethodCtx& txn) -> Value {
          *bad_key = -1;
          for (int64_t k = 0; k < params.keyspace; ++k) {
            bool present = !txn.Invoke(handles->get, {k}).is_none();
            bool indexed = txn.Invoke(handles->contains, {k}).AsBool();
            if (present != indexed && *bad_key < 0) *bad_key = k;
          }
          seen->count = txn.Invoke(handles->count).AsInt();
          seen->size = txn.Invoke(handles->size).AsInt();
          return Value();
        });
    if (!r.committed) {
      ctx.Fail("teardown audit transaction failed to commit");
      return;
    }
    if (*bad_key >= 0) {
      ctx.Fail("final scan: key " + std::to_string(*bad_key) +
               " dict/index disagree");
    }
    if (seen->count != seen->size) {
      ctx.Fail("final scan: dict count " + std::to_string(seen->count) +
               " != index size " + std::to_string(seen->size));
    }
  };
  return w;
}

// --- queue-graph pipeline with backpressure ----------------------------------

namespace {
struct QpHandles {
  std::vector<rt::MethodRef> enqueue, dequeue, length;  // per stage queue
  rt::MethodRef produced_add, produced_get;
  rt::MethodRef consumed_add, consumed_get;
};

struct QpRead {
  std::vector<int64_t> lengths;
  int64_t produced = 0;
  int64_t consumed = 0;
};
}  // namespace

void SetupQueuePipeline(rt::ObjectBase& base, const QueuePipelineParams& p) {
  for (int i = 0; i < p.stages; ++i) {
    base.CreateObject(p.prefix + ":q" + std::to_string(i),
                      adt::MakeQueueSpec());
  }
  base.CreateObject(Obj(p.prefix, "produced"), adt::MakeCounterSpec(0));
  base.CreateObject(Obj(p.prefix, "consumed"), adt::MakeCounterSpec(0));
}

FsmWorkload MakeQueuePipelineFsm(const QueuePipelineParams& p) {
  const QueuePipelineParams params = p;
  auto handles = std::make_shared<QpHandles>();
  const std::string check_name = p.prefix + "/check";
  const int64_t bound = p.bound;
  const int last = p.stages - 1;

  FsmWorkload w;
  w.name = "queue-pipeline";
  w.threads = p.threads;
  w.iterations = p.iterations;

  w.setup = [params, handles](rt::Executor& exec) {
    handles->enqueue.clear();
    handles->dequeue.clear();
    handles->length.clear();
    for (int i = 0; i < params.stages; ++i) {
      rt::ObjectHandle q =
          exec.FindObject(params.prefix + ":q" + std::to_string(i));
      handles->enqueue.push_back(exec.Resolve(q, "enqueue"));
      handles->dequeue.push_back(exec.Resolve(q, "dequeue"));
      handles->length.push_back(exec.Resolve(q, "length"));
    }
    handles->produced_add =
        exec.Resolve(Obj(params.prefix, "produced"), "add");
    handles->produced_get =
        exec.Resolve(Obj(params.prefix, "produced"), "get");
    handles->consumed_add =
        exec.Resolve(Obj(params.prefix, "consumed"), "add");
    handles->consumed_get =
        exec.Resolve(Obj(params.prefix, "consumed"), "get");
  };

  // The bound is enforced INSIDE each transaction (length check and enqueue
  // at the same serialisation point), so "length <= bound" is an invariant,
  // not a hope.  The conservation counters move in the same transaction as
  // the queue op they describe.
  FsmState produce;
  produce.name = "produce";
  produce.make = [handles, bound](Rng& rng) -> rt::MethodFn {
    int64_t tag = rng.Range(1, 1'000'000'000);
    return [handles, bound, tag](rt::MethodCtx& txn) -> Value {
      if (txn.Invoke(handles->length[0]).AsInt() >= bound) {
        return Value(false);  // backpressure: full head queue, no-op txn
      }
      txn.Invoke(handles->enqueue[0], {tag});
      txn.Invoke(handles->produced_add, {int64_t{1}});
      return Value(true);
    };
  };

  // The producer's stall state: observe the head queue, mutate nothing.
  FsmState stall;
  stall.name = "stall";
  stall.make = [handles](Rng&) -> rt::MethodFn {
    return [handles](rt::MethodCtx& txn) -> Value {
      return txn.Invoke(handles->length[0]);
    };
  };

  FsmState consume;
  consume.name = "consume";
  consume.make = [handles, last](Rng&) -> rt::MethodFn {
    return [handles, last](rt::MethodCtx& txn) -> Value {
      Value v = txn.Invoke(handles->dequeue[last]);
      if (v.is_none()) return Value(false);
      txn.Invoke(handles->consumed_add, {int64_t{1}});
      return Value(true);
    };
  };

  auto check = [params, handles, check_name](FsmCheckCtx& ctx) {
    auto seen = std::make_shared<QpRead>();
    rt::TxnResult r = ctx.exec().RunTransaction(
        check_name, [params, handles, seen](rt::MethodCtx& txn) -> Value {
          seen->lengths.clear();
          for (int i = 0; i < params.stages; ++i) {
            seen->lengths.push_back(
                txn.Invoke(handles->length[i]).AsInt());
          }
          seen->produced = txn.Invoke(handles->produced_get).AsInt();
          seen->consumed = txn.Invoke(handles->consumed_get).AsInt();
          return Value();
        });
    if (!r.committed) return;
    int64_t in_flight = 0;
    for (int i = 0; i < params.stages; ++i) {
      in_flight += seen->lengths[i];
      if (seen->lengths[i] > params.bound) {
        ctx.Fail("queue " + std::to_string(i) + " length " +
                 std::to_string(seen->lengths[i]) + " exceeds bound " +
                 std::to_string(params.bound));
      }
    }
    if (seen->produced - seen->consumed != in_flight) {
      ctx.Fail("conservation: produced " + std::to_string(seen->produced) +
               " - consumed " + std::to_string(seen->consumed) + " != " +
               std::to_string(in_flight) + " in flight");
    }
  };
  produce.check = check;
  consume.check = check;

  // State order: produce(0), stall(1), move:1..move:stages-1, consume(last).
  w.states = {produce, stall};
  for (int i = 1; i < p.stages; ++i) {
    FsmState move;
    move.name = "move:" + std::to_string(i);
    move.make = [handles, bound, i](Rng&) -> rt::MethodFn {
      return [handles, bound, i](rt::MethodCtx& txn) -> Value {
        if (txn.Invoke(handles->length[i]).AsInt() >= bound) {
          return Value(false);  // downstream backpressure
        }
        Value v = txn.Invoke(handles->dequeue[i - 1]);
        if (v.is_none()) return Value(false);  // nothing to move
        txn.Invoke(handles->enqueue[i], {v});
        return Value(true);
      };
    };
    move.check = check;
    w.states.push_back(std::move(move));
  }
  w.states.push_back(consume);

  // Base odds favour production with movers and consumers keeping pace;
  // after a produce the stall state is twice as likely (the backpressure
  // response), and a stall strongly retries production.
  std::vector<double> odds{3, 1};
  for (int i = 1; i < p.stages; ++i) odds.push_back(2);
  odds.push_back(2);
  w.transitions.assign(w.states.size(), odds);
  w.transitions[0][1] = 2;
  w.transitions[1][0] = 4;
  NormalizeTransitionRows(w.transitions);

  w.teardown = check;
  return w;
}

// --- read-mostly catalogue serving -------------------------------------------

namespace {
struct CatHandles {
  rt::MethodRef get, put, count;          // <prefix>:cat
  rt::MethodRef version_add, version_get; // <prefix>:version
};

// Per-walker last-observed version, for the monotonicity check.  Cleared in
// setup so a workload value can be reused across executors.
struct CatSeen {
  std::mutex mu;
  std::unordered_map<int, int64_t> last;
};

struct CatRead {
  int64_t version = 0;
  int64_t count = 0;
};
}  // namespace

void SetupCatalogue(rt::ObjectBase& base, const CatalogueParams& p) {
  base.CreateObject(Obj(p.prefix, "cat"), adt::MakeBTreeDictionarySpec());
  base.CreateObject(Obj(p.prefix, "version"), adt::MakeCounterSpec(0));
}

FsmWorkload MakeCatalogueFsm(const CatalogueParams& p) {
  const CatalogueParams params = p;
  auto zipf = std::make_shared<ZipfGenerator>(p.keyspace, p.theta);
  auto handles = std::make_shared<CatHandles>();
  auto seen_versions = std::make_shared<CatSeen>();
  const std::string check_name = p.prefix + "/check";

  FsmWorkload w;
  w.name = "catalogue";
  w.threads = p.threads;
  w.iterations = p.iterations;

  w.setup = [params, handles, seen_versions](rt::Executor& exec) {
    rt::ObjectHandle cat = exec.FindObject(Obj(params.prefix, "cat"));
    handles->get = exec.Resolve(cat, "get");
    handles->put = exec.Resolve(cat, "put");
    handles->count = exec.Resolve(cat, "count");
    handles->version_add =
        exec.Resolve(Obj(params.prefix, "version"), "add");
    handles->version_get =
        exec.Resolve(Obj(params.prefix, "version"), "get");
    {
      std::lock_guard<std::mutex> g(seen_versions->mu);
      seen_versions->last.clear();
    }
    // Prefill in bounded chunks (version stays untouched, so the audit
    // bound "count - prefill <= version" starts tight).
    const std::string name = params.prefix + "/prefill";
    for (int start = 0; start < params.prefill; start += 64) {
      int end = std::min(start + 64, params.prefill);
      exec.RunTransaction(
          name, [handles, start, end](rt::MethodCtx& txn) -> Value {
            for (int64_t k = start; k < end; ++k) {
              txn.Invoke(handles->put, {k, k + 1});
            }
            return Value();
          });
    }
  };

  FsmState serve;
  serve.name = "serve";
  serve.make = [params, zipf, handles](Rng& rng) -> rt::MethodFn {
    std::vector<int64_t> keys;
    for (int i = 0; i < params.reads_per_serve; ++i) {
      keys.push_back(static_cast<int64_t>(zipf->Next(rng)));
    }
    return [handles, keys](rt::MethodCtx& txn) -> Value {
      int64_t hits = 0;
      for (int64_t k : keys) {
        if (!txn.Invoke(handles->get, {k}).is_none()) ++hits;
      }
      return Value(hits);
    };
  };

  FsmState write;
  write.name = "write";
  write.make = [zipf, handles](Rng& rng) -> rt::MethodFn {
    int64_t k = static_cast<int64_t>(zipf->Next(rng));
    int64_t v = rng.Range(1, 1'000'000);
    return [handles, k, v](rt::MethodCtx& txn) -> Value {
      txn.Invoke(handles->put, {k, v});
      txn.Invoke(handles->version_add, {int64_t{1}});
      return Value();
    };
  };
  // The version counter only ever grows, so each walker must observe a
  // non-decreasing sequence — a time-travel read is an invariant failure.
  write.check = [handles, seen_versions, check_name](FsmCheckCtx& ctx) {
    auto read = std::make_shared<int64_t>(0);
    rt::TxnResult r = ctx.exec().RunTransaction(
        check_name, [handles, read](rt::MethodCtx& txn) -> Value {
          *read = txn.Invoke(handles->version_get).AsInt();
          return Value();
        });
    if (!r.committed) return;
    std::lock_guard<std::mutex> g(seen_versions->mu);
    int64_t& last = seen_versions->last[ctx.walker()];
    if (*read < last) {
      ctx.Fail("version went backwards: saw " + std::to_string(*read) +
               " after " + std::to_string(last));
    } else {
      last = *read;
    }
  };

  FsmState audit;
  audit.name = "audit";
  audit.make = [handles](Rng&) -> rt::MethodFn {
    return [handles](rt::MethodCtx& txn) -> Value {
      int64_t version = txn.Invoke(handles->version_get).AsInt();
      txn.Invoke(handles->count);
      return Value(version);
    };
  };
  // No key is ever deleted, so the catalogue can only grow past its
  // prefill, and every growth step also bumped the version.
  auto audit_check = [params, handles, check_name](FsmCheckCtx& ctx) {
    auto seen = std::make_shared<CatRead>();
    rt::TxnResult r = ctx.exec().RunTransaction(
        check_name, [handles, seen](rt::MethodCtx& txn) -> Value {
          seen->version = txn.Invoke(handles->version_get).AsInt();
          seen->count = txn.Invoke(handles->count).AsInt();
          return Value();
        });
    if (!r.committed) return;
    if (seen->count < params.prefill) {
      ctx.Fail("catalogue shrank: count " + std::to_string(seen->count) +
               " < prefill " + std::to_string(params.prefill));
    }
    if (seen->count - params.prefill > seen->version) {
      ctx.Fail("count " + std::to_string(seen->count) + " grew past prefill " +
               std::to_string(params.prefill) + " + version " +
               std::to_string(seen->version));
    }
  };
  audit.check = audit_check;

  w.states = {serve, write, audit};
  w.transitions = {
      {8, 1, 1},  // read-mostly: serving overwhelmingly re-enters serve
      {7, 2, 1},
      {8, 1, 1},
  };
  NormalizeTransitionRows(w.transitions);

  w.teardown = audit_check;
  return w;
}

}  // namespace objectbase::workload
