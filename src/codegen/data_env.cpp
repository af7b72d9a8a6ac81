#include "codegen/data_env.h"

#include "support/bitutil.h"

namespace selcache::codegen {

DataEnv::DataEnv(const ir::Program& p, DataEnvOptions opt)
    : prog_(p), opt_(opt), next_free_(opt.data_base) {
  Rng rng(opt_.seed);

  // Arrays: page-aligned sequential allocation. Power-of-two footprints
  // landing at page boundaries collide in the cache index bits — the
  // realistic source of the conflict misses the paper's mechanisms target.
  layouts_.reserve(p.arrays().size());
  for (const auto& a : p.arrays()) {
    ArrayLayout layout(a, next_free_);
    next_free_ = align_up(next_free_ + layout.footprint_bytes(),
                          opt_.page_align);
    layouts_.push_back(layout);
  }

  // Scalars: packed into a globals region (they share cache lines, as the
  // .data segment of a real binary would).
  Addr scalar_base = allocate(8ull * std::max<std::size_t>(
                                         1, p.scalars().size()));
  for (std::size_t s = 0; s < p.scalars().size(); ++s)
    scalar_addrs_.push_back(scalar_base + 8 * s);

  // Pools.
  for (const auto& pool : p.pools()) {
    pool_bases_.push_back(
        allocate(static_cast<std::uint64_t>(pool.count) * pool.elem_size));
    std::vector<std::uint32_t> next;
    if (pool.kind == ir::PoolDecl::Kind::PointerChase) {
      const auto n = static_cast<std::uint32_t>(pool.count);
      if (pool.shuffled) {
        // A random Hamiltonian cycle: heap-allocated list whose traversal
        // order no prefetcher can follow.
        Rng prng = rng.fork(pool_bases_.size());
        std::vector<std::uint32_t> order = prng.permutation(n);
        next.assign(n, 0);
        for (std::uint32_t k = 0; k < n; ++k)
          next[order[k]] = order[(k + 1) % n];
      } else {
        // Freshly allocated list: traversal order == address order.
        next.resize(n);
        for (std::uint32_t k = 0; k < n; ++k) next[k] = (k + 1) % n;
      }
    }
    pool_next_.push_back(std::move(next));
    pool_cursor_.push_back(0);
  }

  // Index-array contents.
  index_contents_.resize(p.arrays().size());
  for (std::size_t a = 0; a < p.arrays().size(); ++a) {
    const auto& decl = p.arrays()[a];
    if (decl.content == ir::ArrayDecl::Content::None) continue;
    const std::int64_t n = decl.elements();
    const std::int64_t range =
        decl.content_range > 0 ? decl.content_range : n;
    Rng arng = rng.fork(0x1000 + a);
    auto& vals = index_contents_[a];
    vals.resize(static_cast<std::size_t>(n));
    switch (decl.content) {
      case ir::ArrayDecl::Content::Identity:
        for (std::int64_t k = 0; k < n; ++k) vals[k] = k % range;
        break;
      case ir::ArrayDecl::Content::Permutation: {
        auto perm = arng.permutation(static_cast<std::uint32_t>(n));
        for (std::int64_t k = 0; k < n; ++k)
          vals[k] = static_cast<std::int64_t>(perm[k]) % range;
        break;
      }
      case ir::ArrayDecl::Content::Uniform:
        for (std::int64_t k = 0; k < n; ++k)
          vals[k] = static_cast<std::int64_t>(
              arng.below(static_cast<std::uint64_t>(range)));
        break;
      case ir::ArrayDecl::Content::Zipf:
        for (std::int64_t k = 0; k < n; ++k)
          vals[k] = static_cast<std::int64_t>(
              arng.zipf(static_cast<std::uint64_t>(range),
                        decl.content_param));
        break;
      case ir::ArrayDecl::Content::Mesh: {
        // Clustered irregularity: mostly near-neighbor jumps with
        // occasional long hops — unstructured-mesh connectivity (Chaos).
        std::int64_t cur = 0;
        const std::int64_t hop =
            std::max<std::int64_t>(2, static_cast<std::int64_t>(
                                          decl.content_param));
        for (std::int64_t k = 0; k < n; ++k) {
          if (arng.chance(0.1)) {
            cur = static_cast<std::int64_t>(
                arng.below(static_cast<std::uint64_t>(range)));
          } else {
            cur = (cur + arng.range(-hop, hop) + range) % range;
          }
          vals[k] = cur;
        }
        break;
      }
      case ir::ArrayDecl::Content::None:
        break;
    }
  }
}

Addr DataEnv::allocate(std::uint64_t bytes) {
  const Addr base = next_free_;
  next_free_ = align_up(next_free_ + std::max<std::uint64_t>(bytes, 1),
                        opt_.page_align);
  return base;
}

Addr DataEnv::record_addr(ir::PoolId pool, std::int64_t index,
                          std::uint32_t field_offset) const {
  const auto& decl = prog_.pool(pool);
  return pool_bases_.at(pool) +
         static_cast<Addr>(wrap_index(index, decl.count)) * decl.elem_size +
         field_offset;
}

std::int64_t DataEnv::index_value(ir::ArrayId a, std::int64_t pos) const {
  const auto& vals = index_contents_.at(a);
  SELCACHE_CHECK_MSG(!vals.empty(),
                     prog_.array(a).name + " has no synthesized contents");
  return vals[static_cast<std::size_t>(
      wrap_index(pos, static_cast<std::int64_t>(vals.size())))];
}

Addr DataEnv::chase_next(ir::PoolId pool, std::uint32_t field_offset) {
  const auto& decl = prog_.pool(pool);
  SELCACHE_CHECK_MSG(decl.kind == ir::PoolDecl::Kind::PointerChase,
                     decl.name + " is not a chase pool");
  std::uint32_t& cur = pool_cursor_.at(pool);
  cur = pool_next_.at(pool)[cur];
  return pool_bases_.at(pool) + static_cast<Addr>(cur) * decl.elem_size +
         field_offset;
}

void DataEnv::reset_walks() {
  for (auto& c : pool_cursor_) c = 0;
}

}  // namespace selcache::codegen
