#include "codegen/layout.h"

#include "support/bitutil.h"
#include "support/check.h"

namespace selcache::codegen {

ArrayLayout::ArrayLayout(const ir::ArrayDecl& decl, Addr base)
    : base_(base),
      dims_(decl.dims),
      elem_size_(decl.elem_size),
      layout_(decl.layout) {
  SELCACHE_CHECK(!dims_.empty());
  strides_.assign(dims_.size(), 1);
  if (layout_ == ir::Layout::RowMajor) {
    // Fastest dim is the last; padding extends its extent.
    std::int64_t stride = 1;
    for (std::size_t d = dims_.size(); d-- > 0;) {
      strides_[d] = stride;
      const std::int64_t extent =
          dims_[d] + (d == dims_.size() - 1 ? decl.pad_elems : 0);
      stride *= extent;
    }
    footprint_ = static_cast<std::uint64_t>(stride) * elem_size_;
  } else {
    // Column-major: fastest dim is the first.
    std::int64_t stride = 1;
    for (std::size_t d = 0; d < dims_.size(); ++d) {
      strides_[d] = stride;
      const std::int64_t extent = dims_[d] + (d == 0 ? decl.pad_elems : 0);
      stride *= extent;
    }
    footprint_ = static_cast<std::uint64_t>(stride) * elem_size_;
  }
}

Addr ArrayLayout::element_addr(std::span<const std::int64_t> indices) const {
  SELCACHE_CHECK_MSG(indices.size() == dims_.size(),
                     "subscript arity mismatch");
  std::int64_t offset = 0;
  for (std::size_t d = 0; d < dims_.size(); ++d)
    offset += wrap_index(indices[d], dims_[d]) * strides_[d];
  return base_ + static_cast<Addr>(offset) * elem_size_;
}

}  // namespace selcache::codegen
