// Set: a set of integer keys with key- and outcome-aware conflicts.
//
// At operation granularity nearly everything conflicts (a lock per
// operation name, Section 5.1's conservative scheme).  At step granularity,
// operations on different keys commute, failed mutations behave like reads,
// and only successful mutations on the same key conflict.
//
// Operations:
//   insert(k)   -> bool (true iff k was absent and is now present)
//   erase(k)    -> bool (true iff k was present and is now absent)
//   contains(k) -> bool                       (read-only)
//   size()      -> int                        (read-only)
#ifndef OBJECTBASE_ADT_SET_ADT_H_
#define OBJECTBASE_ADT_SET_ADT_H_

#include <memory>

#include "src/adt/adt.h"

namespace objectbase::adt {

/// Creates an empty Set spec.
std::shared_ptr<const AdtSpec> MakeSetSpec();

}  // namespace objectbase::adt

#endif  // OBJECTBASE_ADT_SET_ADT_H_
