#include "ir/builder.h"

namespace selcache::ir {

ArrayId ProgramBuilder::array(std::string name, std::vector<std::int64_t> dims,
                              std::uint32_t elem_size,
                              std::int64_t pad_elems) {
  ArrayDecl d;
  d.name = std::move(name);
  d.dims = std::move(dims);
  d.elem_size = elem_size;
  d.pad_elems = pad_elems;
  return prog_.add_array(std::move(d));
}

ArrayId ProgramBuilder::index_array(std::string name, std::int64_t length,
                                    ArrayDecl::Content content, double param,
                                    std::int64_t range) {
  ArrayDecl d;
  d.name = std::move(name);
  d.dims = {length};
  d.elem_size = 8;
  d.content = content;
  d.content_param = param;
  d.content_range = range;
  return prog_.add_array(std::move(d));
}

ScalarId ProgramBuilder::scalar(std::string name) {
  return prog_.add_scalar(ScalarDecl{std::move(name), 8});
}

PoolId ProgramBuilder::chase_pool(std::string name, std::int64_t nodes,
                                  std::uint32_t node_size, bool shuffled) {
  PoolDecl d;
  d.name = std::move(name);
  d.kind = PoolDecl::Kind::PointerChase;
  d.count = nodes;
  d.elem_size = node_size;
  d.shuffled = shuffled;
  return prog_.add_pool(std::move(d));
}

PoolId ProgramBuilder::record_pool(std::string name, std::int64_t records,
                                   std::uint32_t record_size) {
  PoolDecl d;
  d.name = std::move(name);
  d.kind = PoolDecl::Kind::Records;
  d.count = records;
  d.elem_size = record_size;
  return prog_.add_pool(std::move(d));
}

std::vector<std::unique_ptr<Node>>& ProgramBuilder::scope() {
  return open_.empty() ? prog_.top() : open_.back()->body;
}

Var ProgramBuilder::begin_loop(std::string var, AffineExpr lo, AffineExpr hi,
                               std::int64_t step) {
  // The trace engine runs `v < hi; v += step`: a step that is not positive
  // never reaches the bound.
  SELCACHE_CHECK_MSG(step > 0,
                     "loop step " + std::to_string(step) + " must be positive");
  const VarId v = prog_.add_var(std::move(var));
  auto loop = std::make_unique<LoopNode>();
  loop->var = v;
  loop->lower = std::move(lo);
  loop->upper = std::move(hi);
  loop->step = step;
  LoopNode* raw = loop.get();
  scope().push_back(std::move(loop));
  open_.push_back(raw);
  return Var{v};
}

Var ProgramBuilder::begin_loop(std::string var, std::int64_t lo,
                               std::int64_t hi, std::int64_t step) {
  return begin_loop(std::move(var), AffineExpr::constant(lo),
                    AffineExpr::constant(hi), step);
}

void ProgramBuilder::end_loop() {
  SELCACHE_CHECK_MSG(!open_.empty(), "end_loop without begin_loop");
  open_.pop_back();
}

void ProgramBuilder::stmt(std::vector<Reference> refs,
                          std::uint32_t compute_ops, std::string label) {
  Stmt s;
  s.refs = std::move(refs);
  s.compute_ops = compute_ops;
  s.label = std::move(label);
  stmt(std::move(s));
}

void ProgramBuilder::stmt(Stmt s) {
  scope().push_back(std::make_unique<StmtNode>(std::move(s)));
}

void ProgramBuilder::toggle(bool on) {
  scope().push_back(std::make_unique<ToggleNode>(on));
}

Program ProgramBuilder::finish() {
  SELCACHE_CHECK_MSG(open_.empty(), "unclosed loop at finish()");
  SELCACHE_CHECK_MSG(!finished_, "finish() called twice");
  finished_ = true;

  // Assign synthetic code addresses: statements and loop back-edges get
  // consecutive I-space so distinct code has distinct I-cache blocks.
  std::uint64_t pc = 0x400000;
  prog_.visit([&pc](Node& n) {
    if (n.kind == NodeKind::Stmt) {
      auto& sn = static_cast<StmtNode&>(n);
      if (sn.stmt.code_addr == 0) {
        sn.stmt.code_addr = pc;
        pc += 4ull * sn.stmt.instruction_count();
      }
    } else if (n.kind == NodeKind::Loop) {
      auto& ln = static_cast<LoopNode&>(n);
      if (ln.code_addr == 0) {
        ln.code_addr = pc;
        pc += 8;  // compare + branch
      }
    }
  });
  return std::move(prog_);
}

}  // namespace selcache::ir
