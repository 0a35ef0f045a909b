// Register: the classical read/write data item, plus a blind increment.
//
// This is the degenerate object type of "classical" concurrency control:
// with only read/write operations the model collapses to Eswaran et al.'s
// setting, which makes Register the baseline against which semantic ADTs
// (Counter, Set, Queue, ...) are compared.
//
// Operations:
//   read()        -> current value                (read-only)
//   write(v)      -> none
//   increment(d)  -> none   (blind add; increments commute with each other)
#ifndef OBJECTBASE_ADT_REGISTER_ADT_H_
#define OBJECTBASE_ADT_REGISTER_ADT_H_

#include <memory>

#include "src/adt/adt.h"

namespace objectbase::adt {

/// Creates a Register spec with the given initial value.
std::shared_ptr<const AdtSpec> MakeRegisterSpec(int64_t initial = 0);

}  // namespace objectbase::adt

#endif  // OBJECTBASE_ADT_REGISTER_ADT_H_
