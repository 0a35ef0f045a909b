// Counter: an additive counter exploiting commutativity of addition.
//
// add(d) operations commute with each other regardless of argument, so a
// Counter admits far more concurrency than a Register under semantic
// conflict tables — the Section 1(b) point that object-base operations are
// not just reads and writes.
//
// Operations:
//   get()   -> current value   (read-only)
//   add(d)  -> none
#ifndef OBJECTBASE_ADT_COUNTER_ADT_H_
#define OBJECTBASE_ADT_COUNTER_ADT_H_

#include <memory>

#include "src/adt/adt.h"

namespace objectbase::adt {

/// Creates a Counter spec with the given initial value.
std::shared_ptr<const AdtSpec> MakeCounterSpec(int64_t initial = 0);

}  // namespace objectbase::adt

#endif  // OBJECTBASE_ADT_COUNTER_ADT_H_
