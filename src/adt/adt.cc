#include "src/adt/adt.h"

namespace objectbase::adt {

std::atomic<uint64_t>& FindOpCalls() {
  static std::atomic<uint64_t> calls{0};
  return calls;
}

const ConflictTables& AdtSpec::conflict_tables() const {
  std::call_once(conflict_tables_once_, [this] {
    auto t = std::make_unique<ConflictTables>();
    const size_t n = NumOps();
    t->rows.resize(n);
    if (n <= 64) t->request_masks.assign(n, 0);
    for (OpId i = 0; i < n; ++i) {
      for (OpId j = 0; j < n; ++j) {
        if (!OpConflictsById(i, j)) continue;
        t->rows[i].push_back(j);
        if (n <= 64) t->request_masks[j] |= uint64_t{1} << i;
      }
    }
    conflict_tables_ = std::move(t);
  });
  return *conflict_tables_;
}

bool StepsCommuteOnState(const AdtSpec& spec, const AdtState& state,
                         std::string_view op1, const Args& args1,
                         std::string_view op2, const Args& args2) {
  const OpDescriptor* d1 = spec.FindOp(op1);
  const OpDescriptor* d2 = spec.FindOp(op2);
  if (d1 == nullptr || d2 == nullptr) return false;

  // Order A: t1 then t2.
  auto sa = state.Clone();
  ApplyResult a1 = d1->apply(*sa, args1);
  ApplyResult a2 = d2->apply(*sa, args2);

  // Order B: t2 then t1.
  auto sb = state.Clone();
  ApplyResult b2 = d2->apply(*sb, args2);
  ApplyResult b1 = d1->apply(*sb, args1);

  // Definition 3: (a) the transposed sequence must be legal on s, i.e. each
  // step returns the same value it returned in the original order; (b) the
  // final states must coincide.
  if (!(a1.ret == b1.ret) || !(a2.ret == b2.ret)) return false;
  return sa->Equals(*sb);
}

}  // namespace objectbase::adt
