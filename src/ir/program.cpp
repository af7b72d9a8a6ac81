#include "ir/program.h"

namespace selcache::ir {

std::unique_ptr<Node> LoopNode::clone() const {
  auto out = std::make_unique<LoopNode>();
  out->var = var;
  out->lower = lower;
  out->upper = upper;
  out->step = step;
  out->code_addr = code_addr;
  out->body.reserve(body.size());
  for (const auto& child : body) out->body.push_back(child->clone());
  return out;
}

VarId Program::add_var(std::string var_name) {
  var_names_.push_back(std::move(var_name));
  return static_cast<VarId>(var_names_.size() - 1);
}

ArrayId Program::add_array(ArrayDecl d) {
  SELCACHE_CHECK_MSG(!d.dims.empty(), d.name + ": array needs dimensions");
  SELCACHE_CHECK_MSG(d.elem_size > 0, d.name + ": zero element size");
  arrays_.push_back(std::move(d));
  return static_cast<ArrayId>(arrays_.size() - 1);
}

ScalarId Program::add_scalar(ScalarDecl d) {
  scalars_.push_back(std::move(d));
  return static_cast<ScalarId>(scalars_.size() - 1);
}

PoolId Program::add_pool(PoolDecl d) {
  SELCACHE_CHECK_MSG(d.count > 0, d.name + ": empty pool");
  pools_.push_back(std::move(d));
  return static_cast<PoolId>(pools_.size() - 1);
}

Program Program::clone() const {
  Program out(name_);
  out.var_names_ = var_names_;
  out.arrays_ = arrays_;
  out.scalars_ = scalars_;
  out.pools_ = pools_;
  out.top_.reserve(top_.size());
  for (const auto& n : top_) out.top_.push_back(n->clone());
  return out;
}

namespace {

template <typename NodeT, typename Fn>
void visit_impl(NodeT& n, const Fn& fn) {
  fn(n);
  if (n.kind == NodeKind::Loop) {
    auto& loop = static_cast<
        std::conditional_t<std::is_const_v<NodeT>, const LoopNode, LoopNode>&>(
        n);
    for (auto& child : loop.body) visit_impl(*child, fn);
  }
}

}  // namespace

void Program::visit(const std::function<void(const Node&)>& fn) const {
  for (const auto& n : top_) visit_impl(*n, fn);
}

void Program::visit(const std::function<void(Node&)>& fn) {
  for (auto& n : top_) visit_impl(*n, fn);
}

std::vector<const LoopNode*> Program::loops() const {
  std::vector<const LoopNode*> out;
  visit([&](const Node& n) {
    if (n.kind == NodeKind::Loop) out.push_back(static_cast<const LoopNode*>(&n));
  });
  return out;
}

std::vector<LoopNode*> Program::loops() {
  std::vector<LoopNode*> out;
  visit([&](Node& n) {
    if (n.kind == NodeKind::Loop) out.push_back(static_cast<LoopNode*>(&n));
  });
  return out;
}

std::size_t Program::static_ref_count() const {
  std::size_t n = 0;
  visit([&](const Node& node) {
    if (node.kind == NodeKind::Stmt)
      n += static_cast<const StmtNode&>(node).stmt.refs.size();
  });
  return n;
}

namespace {

/// Does a loop header anywhere in `body` read variable `v`?
bool headers_read(const std::vector<std::unique_ptr<Node>>& body, VarId v) {
  for (const auto& n : body) {
    if (n->kind != NodeKind::Loop) continue;
    const auto& l = static_cast<const LoopNode&>(*n);
    if (l.lower.uses(v) || l.upper.uses(v) || headers_read(l.body, v))
      return true;
  }
  return false;
}

std::uint64_t stmt_refs(const Stmt& s) {
  const auto indexed = [](const Subscript& sub) {
    return sub.is_indexed() ? 1u : 0u;
  };
  std::uint64_t n = s.refs.size();
  for (const Reference& r : s.refs) {
    if (const auto* a = std::get_if<Reference::Array>(&r.target)) {
      for (const Subscript& sub : a->subs) n += indexed(sub);
    } else if (const auto* f = std::get_if<Reference::Field>(&r.target)) {
      n += indexed(f->element);
    }
  }
  return n;
}

std::uint64_t body_refs(const std::vector<std::unique_ptr<Node>>& body,
                        std::vector<std::int64_t>& vars) {
  std::uint64_t n = 0;
  for (const auto& node : body) {
    if (node->kind == NodeKind::Stmt) {
      n += stmt_refs(static_cast<const StmtNode&>(*node).stmt);
      continue;
    }
    if (node->kind != NodeKind::Loop) continue;
    const auto& l = static_cast<const LoopNode&>(*node);
    SELCACHE_CHECK_MSG(l.step > 0, "loop step must be positive");
    const std::int64_t lo = l.lower.eval(vars);
    const std::int64_t hi = l.upper.eval(vars);
    if (hi <= lo) continue;
    if (!headers_read(l.body, l.var)) {
      const auto trips = static_cast<std::uint64_t>((hi - lo + l.step - 1) /
                                                    l.step);
      n += trips * body_refs(l.body, vars);
      continue;
    }
    for (std::int64_t v = lo; v < hi; v += l.step) {
      vars[l.var] = v;
      n += body_refs(l.body, vars);
    }
  }
  return n;
}

bool same_nodes(const std::vector<std::unique_ptr<Node>>& a,
                const std::vector<std::unique_ptr<Node>>& b,
                bool skip_markers_of_b) {
  std::vector<const Node*> kept;  // b, without the markers being skipped
  for (const auto& n : b)
    if (!skip_markers_of_b || n->kind != NodeKind::Toggle)
      kept.push_back(n.get());
  if (a.size() != kept.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Node& na = *a[i];
    const Node& nb = *kept[i];
    if (na.kind != nb.kind) return false;  // also a marker on a's side
    switch (na.kind) {
      case NodeKind::Stmt:
        if (static_cast<const StmtNode&>(na).stmt !=
            static_cast<const StmtNode&>(nb).stmt)
          return false;
        break;
      case NodeKind::Toggle: {
        const auto& ta = static_cast<const ToggleNode&>(na);
        const auto& tb = static_cast<const ToggleNode&>(nb);
        if (ta.on != tb.on || ta.region != tb.region) return false;
        break;
      }
      case NodeKind::Loop: {
        const auto& la = static_cast<const LoopNode&>(na);
        const auto& lb = static_cast<const LoopNode&>(nb);
        if (la.var != lb.var || la.lower != lb.lower ||
            la.upper != lb.upper || la.step != lb.step ||
            la.code_addr != lb.code_addr ||
            !same_nodes(la.body, lb.body, skip_markers_of_b))
          return false;
        break;
      }
    }
  }
  return true;
}

}  // namespace

std::uint64_t Program::dynamic_ref_count() const {
  std::vector<std::int64_t> vars(var_names_.size(), 0);
  return body_refs(top_, vars);
}

bool same_code(const Program& a, const Program& b, bool skip_markers_of_b) {
  return a.name() == b.name() && a.var_names() == b.var_names() &&
         a.arrays() == b.arrays() && a.scalars() == b.scalars() &&
         a.pools() == b.pools() &&
         same_nodes(a.top(), b.top(), skip_markers_of_b);
}

void collect_refs(const Node& n, std::vector<const Reference*>& out) {
  if (n.kind == NodeKind::Stmt) {
    for (const auto& r : static_cast<const StmtNode&>(n).stmt.refs)
      out.push_back(&r);
  } else if (n.kind == NodeKind::Loop) {
    for (const auto& child : static_cast<const LoopNode&>(n).body)
      collect_refs(*child, out);
  }
}

std::vector<const LoopNode*> child_loops(
    const std::vector<std::unique_ptr<Node>>& body) {
  std::vector<const LoopNode*> out;
  for (const auto& n : body)
    if (n->kind == NodeKind::Loop)
      out.push_back(static_cast<const LoopNode*>(n.get()));
  return out;
}

bool is_perfect_nest(const LoopNode& loop) {
  const LoopNode* cur = &loop;
  while (true) {
    bool has_loop = false;
    for (const auto& n : cur->body)
      if (n->kind == NodeKind::Loop) has_loop = true;
    if (!has_loop) return true;  // innermost: any statements are fine
    if (cur->body.size() != 1 || cur->body[0]->kind != NodeKind::Loop)
      return false;
    cur = static_cast<const LoopNode*>(cur->body[0].get());
  }
}

std::vector<LoopNode*> perfect_nest_band(LoopNode& root) {
  std::vector<LoopNode*> band{&root};
  LoopNode* cur = &root;
  while (cur->body.size() == 1 && cur->body[0]->kind == NodeKind::Loop) {
    cur = static_cast<LoopNode*>(cur->body[0].get());
    band.push_back(cur);
  }
  return band;
}

}  // namespace selcache::ir
