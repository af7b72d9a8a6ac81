// A straight-line statement: an ordered list of memory references plus a
// count of pure-compute instructions. The trace engine executes references
// in order (loads feed the computation, stores retire it).
#pragma once

#include <string>
#include <vector>

#include "ir/ref.h"

namespace selcache::ir {

struct Stmt {
  std::vector<Reference> refs;
  /// ALU instructions executed alongside the references.
  std::uint32_t compute_ops = 1;
  /// Synthetic code address; assigned by the builder so distinct statements
  /// live at distinct I-cache blocks. 0 = assign automatically.
  std::uint64_t code_addr = 0;
  std::string label;

  bool operator==(const Stmt&) const = default;

  std::uint32_t instruction_count() const {
    return compute_ops + static_cast<std::uint32_t>(refs.size());
  }
};

}  // namespace selcache::ir
