// Whole-program IR: a forest of loops / statements / ON-OFF markers plus
// declaration tables for arrays, scalars, and pools.
//
// Programs are deep trees of owned nodes. Transformations restructure the
// tree in place (interchange swaps loop headers, tiling inserts controller
// loops); clone() provides the deep copies needed to keep base and optimized
// variants of the same workload.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ir/stmt.h"

namespace selcache::ir {

enum class NodeKind { Loop, Stmt, Toggle };

struct Node {
  explicit Node(NodeKind k) : kind(k) {}
  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  virtual std::unique_ptr<Node> clone() const = 0;

  NodeKind kind;
};

struct StmtNode final : Node {
  explicit StmtNode(Stmt s) : Node(NodeKind::Stmt), stmt(std::move(s)) {}
  std::unique_ptr<Node> clone() const override {
    return std::make_unique<StmtNode>(stmt);
  }
  Stmt stmt;
};

/// An activate/deactivate instruction inserted by region detection.
/// `region` identifies the static source region the marker delimits
/// (sequential per program, assigned at insertion; -1 = unattributed).
struct ToggleNode final : Node {
  explicit ToggleNode(bool o, std::int32_t r = -1)
      : Node(NodeKind::Toggle), on(o), region(r) {}
  std::unique_ptr<Node> clone() const override {
    return std::make_unique<ToggleNode>(on, region);
  }
  bool on;
  std::int32_t region = -1;
};

struct LoopNode final : Node {
  LoopNode() : Node(NodeKind::Loop) {}
  std::unique_ptr<Node> clone() const override;

  VarId var = kInvalidVar;
  AffineExpr lower;  ///< inclusive; may reference outer loop variables
  AffineExpr upper;  ///< exclusive; may reference outer loop variables
  std::int64_t step = 1;
  std::vector<std::unique_ptr<Node>> body;
  /// Synthetic PC of the loop's back-edge branch (for the bimodal predictor).
  std::uint64_t code_addr = 0;
};

/// Memory layout of a multi-dimensional array. The compiler's data
/// transformation step (§3.2) selects one per array.
enum class Layout { RowMajor, ColMajor };

struct ArrayDecl {
  std::string name;
  std::vector<std::int64_t> dims;
  std::uint32_t elem_size = 8;
  Layout layout = Layout::RowMajor;
  /// Padding elements appended to the fastest-varying dimension; the paper
  /// notes its miss statistics hold "even after aggressive array padding".
  std::int64_t pad_elems = 0;

  /// For arrays used as subscript sources (index arrays): how the data
  /// environment synthesizes their integer contents.
  enum class Content {
    None,         ///< plain data array
    Identity,     ///< IP[k] = k
    Permutation,  ///< random permutation (irregular gather/scatter)
    Uniform,      ///< uniform random in [0, content_range)
    Zipf,         ///< skewed random (hot/cold) with theta = content_param
    Mesh          ///< pseudo-mesh neighbor lists (locality-clustered random)
  };
  Content content = Content::None;
  double content_param = 0.0;
  std::int64_t content_range = 0;  ///< 0 = element count of this array

  bool operator==(const ArrayDecl&) const = default;

  std::int64_t elements() const {
    std::int64_t n = 1;
    for (auto d : dims) n *= d;
    return n;
  }
  std::int64_t footprint_bytes() const {
    return (elements() + pad_elems) * static_cast<std::int64_t>(elem_size);
  }
};

struct ScalarDecl {
  std::string name;
  std::uint32_t size = 8;

  bool operator==(const ScalarDecl&) const = default;
};

struct PoolDecl {
  std::string name;
  enum class Kind {
    PointerChase,  ///< linked nodes walked via `chase` references
    Records        ///< array-of-records accessed via `Field` references
  };
  Kind kind = Kind::Records;
  std::int64_t count = 0;
  std::uint32_t elem_size = 32;
  /// PointerChase: whether the traversal order is a random permutation
  /// (heap-like) or sequential (freshly allocated list).
  bool shuffled = true;

  bool operator==(const PoolDecl&) const = default;
};

class Program {
 public:
  explicit Program(std::string name) : name_(std::move(name)) {}
  Program(Program&&) = default;
  Program& operator=(Program&&) = default;

  const std::string& name() const { return name_; }

  VarId add_var(std::string var_name);
  ArrayId add_array(ArrayDecl d);
  ScalarId add_scalar(ScalarDecl d);
  PoolId add_pool(PoolDecl d);

  const std::vector<std::string>& var_names() const { return var_names_; }
  const std::vector<ArrayDecl>& arrays() const { return arrays_; }
  std::vector<ArrayDecl>& arrays() { return arrays_; }
  const std::vector<ScalarDecl>& scalars() const { return scalars_; }
  const std::vector<PoolDecl>& pools() const { return pools_; }

  const ArrayDecl& array(ArrayId a) const { return arrays_.at(a); }
  ArrayDecl& array(ArrayId a) { return arrays_.at(a); }
  const ScalarDecl& scalar(ScalarId s) const { return scalars_.at(s); }
  const PoolDecl& pool(PoolId p) const { return pools_.at(p); }

  std::vector<std::unique_ptr<Node>>& top() { return top_; }
  const std::vector<std::unique_ptr<Node>>& top() const { return top_; }

  /// Deep copy (used to derive the optimized variant from the base code).
  Program clone() const;

  /// Pre-order traversal over all nodes.
  void visit(const std::function<void(const Node&)>& fn) const;
  void visit(const std::function<void(Node&)>& fn);

  /// All loops, pre-order.
  std::vector<const LoopNode*> loops() const;
  std::vector<LoopNode*> loops();

  /// Total statement references in the program (static count).
  std::size_t static_ref_count() const;

  /// Data references one run of the program issues — every statement
  /// reference plus the index-array load of each indexed subscript, i.e. the
  /// trace engine's loads plus stores — counted from the loop bounds
  /// without evaluating a subscript. A loop is walked iteration by iteration
  /// only when a loop header inside it reads its variable.
  std::uint64_t dynamic_ref_count() const;

 private:
  std::string name_;
  std::vector<std::unique_ptr<Node>> top_;
  std::vector<std::string> var_names_;
  std::vector<ArrayDecl> arrays_;
  std::vector<ScalarDecl> scalars_;
  std::vector<PoolDecl> pools_;
};

/// Do `a` and `b` denote the same instruction and data stream? Compares
/// every field of the name, the variable, array, scalar and pool tables,
/// the loop headers, code addresses, statements and references, and the
/// markers. With `skip_markers_of_b`, ON/OFF markers in `b` are stepped
/// over and any marker in `a` makes the programs differ: true then means
/// `a` is `b` with its markers removed.
bool same_code(const Program& a, const Program& b,
               bool skip_markers_of_b = false);

/// All references contained in the subtree rooted at `n` (statements only).
void collect_refs(const Node& n, std::vector<const Reference*>& out);

/// Immediate child loops of a node list.
std::vector<const LoopNode*> child_loops(
    const std::vector<std::unique_ptr<Node>>& body);

/// True when `loop`'s body is exactly one loop (possibly recursively down to
/// statements) — a perfectly nested band suitable for interchange/tiling.
bool is_perfect_nest(const LoopNode& loop);

/// The loops of a perfect nest from `root` inward (root first).
std::vector<LoopNode*> perfect_nest_band(LoopNode& root);

}  // namespace selcache::ir
