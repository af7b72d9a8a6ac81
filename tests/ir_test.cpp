// Tests for the loop-nest IR: affine expressions, subscripts, references,
// programs, builder, printer.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "ir/builder.h"
#include "ir/printer.h"

namespace selcache::ir {
namespace {

TEST(AffineExpr, ConstructionAndEval) {
  const AffineExpr e = x(Var{0}) * 2 + x(Var{1}) - 3;
  const std::int64_t vals[] = {5, 7};
  EXPECT_EQ(e.eval(vals), 10 + 7 - 3);
  EXPECT_EQ(e.coeff(0), 2);
  EXPECT_EQ(e.coeff(1), 1);
  EXPECT_EQ(e.coeff(2), 0);
  EXPECT_EQ(e.constant_term(), -3);
}

TEST(AffineExpr, ConstantExpr) {
  const AffineExpr c = AffineExpr::constant(42);
  EXPECT_TRUE(c.is_constant());
  EXPECT_FALSE(c.uses(0));
  EXPECT_EQ(c.eval({}), 42);
}

TEST(AffineExpr, ZeroCoefficientsPruned) {
  const AffineExpr e = x(Var{0}) - x(Var{0});
  EXPECT_TRUE(e.is_constant());
  EXPECT_EQ(e, AffineExpr::constant(0));
}

TEST(AffineExpr, MultiplyByZero) {
  const AffineExpr e = (x(Var{0}) + 5) * 0;
  EXPECT_TRUE(e.is_constant());
  EXPECT_EQ(e.constant_term(), 0);
}

TEST(AffineExpr, Substitution) {
  // i -> it + 4 applied to 2*i + j + 1 gives 2*it + j + 9.
  const AffineExpr e = 2 * x(Var{0}) + x(Var{1}) + 1;
  const AffineExpr sub = e.substituted(0, x(Var{2}) + 4);
  EXPECT_EQ(sub.coeff(0), 0);
  EXPECT_EQ(sub.coeff(2), 2);
  EXPECT_EQ(sub.constant_term(), 9);
}

TEST(AffineExpr, SubstitutionNoOpWhenAbsent) {
  const AffineExpr e = x(Var{1}) + 1;
  EXPECT_EQ(e.substituted(0, AffineExpr::constant(99)), e);
}

TEST(AffineExpr, Printing) {
  const std::vector<std::string> names = {"i", "j"};
  EXPECT_EQ((2 * x(Var{0}) + x(Var{1}) - 1).str(names), "2*i + j - 1");
  EXPECT_EQ((x(Var{0}) * -1).str(names), "-i");
  EXPECT_EQ(AffineExpr::constant(7).str(names), "7");
}

TEST(Subscript, KindsAndUses) {
  const Subscript aff = Subscript::affine(x(Var{0}));
  EXPECT_TRUE(aff.is_affine());
  EXPECT_TRUE(aff.uses(0));
  EXPECT_FALSE(aff.uses(1));

  const Subscript prod = Subscript::product(x(Var{0}), x(Var{1}));
  EXPECT_FALSE(prod.is_affine());
  EXPECT_TRUE(prod.uses(1));

  const Subscript idx = Subscript::indexed(0, x(Var{1}), 2);
  EXPECT_TRUE(idx.is_indexed());
  EXPECT_TRUE(idx.uses(1));
  EXPECT_FALSE(idx.uses(0));
}

TEST(Subscript, Substitution) {
  Subscript s = Subscript::product(x(Var{0}), x(Var{1}));
  s = s.substituted(0, x(Var{0}) + 1);
  const auto& p = std::get<Subscript::Product>(s.value);
  EXPECT_EQ(p.lhs.constant_term(), 1);
}

TEST(Reference, HelpersSetDirection) {
  EXPECT_FALSE(load_scalar(0).is_write);
  EXPECT_TRUE(store_scalar(0).is_write);
  EXPECT_TRUE(store_array(1, {Subscript::affine(x(Var{0}))}).is_write);
  EXPECT_TRUE(chase(0).is_pointer());
  EXPECT_TRUE(load_field(0, Subscript::affine(x(Var{0}))).is_field());
}

TEST(Reference, UsesLooksThroughSubscripts) {
  const Reference r = load_array(0, {Subscript::affine(x(Var{0})),
                                     Subscript::affine(x(Var{1}) + 2)});
  EXPECT_TRUE(r.uses(0));
  EXPECT_TRUE(r.uses(1));
  EXPECT_FALSE(r.uses(2));
  EXPECT_FALSE(chase(0).uses(0));
}

TEST(Builder, BuildsNestedStructure) {
  ProgramBuilder b("t");
  const auto A = b.array("A", {8, 8});
  const auto i = b.begin_loop("i", 0, 8);
  const auto j = b.begin_loop("j", 0, 8);
  b.stmt({load_array(A, {b.sub(i), b.sub(j)})}, 1, "s");
  b.end_loop();
  b.end_loop();
  Program p = b.finish();

  ASSERT_EQ(p.top().size(), 1u);
  ASSERT_EQ(p.top()[0]->kind, NodeKind::Loop);
  const auto& li = static_cast<const LoopNode&>(*p.top()[0]);
  ASSERT_EQ(li.body.size(), 1u);
  const auto& lj = static_cast<const LoopNode&>(*li.body[0]);
  ASSERT_EQ(lj.body.size(), 1u);
  EXPECT_EQ(lj.body[0]->kind, NodeKind::Stmt);
  EXPECT_EQ(p.var_names()[li.var], "i");
  EXPECT_EQ(p.var_names()[lj.var], "j");
}

TEST(Builder, RejectsUnbalancedLoops) {
  ProgramBuilder b("t");
  b.begin_loop("i", 0, 4);
  EXPECT_THROW(b.finish(), std::logic_error);
}

TEST(Builder, RejectsEndWithoutBegin) {
  ProgramBuilder b("t");
  EXPECT_THROW(b.end_loop(), std::logic_error);
}

TEST(Builder, AssignsDistinctCodeAddresses) {
  ProgramBuilder b("t");
  b.begin_loop("i", 0, 4);
  b.stmt({}, 2, "a");
  b.stmt({}, 2, "b");
  b.end_loop();
  Program p = b.finish();
  std::vector<std::uint64_t> addrs;
  p.visit([&](const Node& n) {
    if (n.kind == NodeKind::Stmt)
      addrs.push_back(static_cast<const StmtNode&>(n).stmt.code_addr);
    if (n.kind == NodeKind::Loop)
      addrs.push_back(static_cast<const LoopNode&>(n).code_addr);
  });
  ASSERT_EQ(addrs.size(), 3u);
  std::sort(addrs.begin(), addrs.end());
  EXPECT_EQ(std::unique(addrs.begin(), addrs.end()), addrs.end());
  EXPECT_GT(addrs.front(), 0u);
}

TEST(Program, CloneIsDeep) {
  ProgramBuilder b("t");
  const auto A = b.array("A", {4});
  b.begin_loop("i", 0, 4);
  b.stmt({store_array(A, {b.sub(Var{0})})}, 1);
  b.end_loop();
  Program p = b.finish();
  Program q = p.clone();
  // Mutating the clone must not affect the original.
  static_cast<LoopNode&>(*q.top()[0]).step = 2;
  q.array(A).layout = Layout::ColMajor;
  EXPECT_EQ(static_cast<LoopNode&>(*p.top()[0]).step, 1);
  EXPECT_EQ(p.array(A).layout, Layout::RowMajor);
  EXPECT_EQ(q.loops().size(), p.loops().size());
}

TEST(Program, StaticRefCount) {
  ProgramBuilder b("t");
  const auto A = b.array("A", {4});
  b.begin_loop("i", 0, 4);
  b.stmt({load_array(A, {b.sub(Var{0})}), store_array(A, {b.sub(Var{0})})},
         1);
  b.end_loop();
  b.stmt({load_array(A, {b.csub(0)})}, 1);
  EXPECT_EQ(b.finish().static_ref_count(), 3u);
}

TEST(Program, PerfectNestDetection) {
  ProgramBuilder b("t");
  b.begin_loop("i", 0, 4);
  b.begin_loop("j", 0, 4);
  b.stmt({}, 1);
  b.end_loop();
  b.end_loop();
  b.begin_loop("k", 0, 4);
  b.stmt({}, 1);
  b.begin_loop("l", 0, 4);
  b.stmt({}, 1);
  b.end_loop();
  b.end_loop();
  Program p = b.finish();
  auto* perfect = static_cast<LoopNode*>(p.top()[0].get());
  auto* imperfect = static_cast<LoopNode*>(p.top()[1].get());
  EXPECT_TRUE(is_perfect_nest(*perfect));
  EXPECT_FALSE(is_perfect_nest(*imperfect));
  EXPECT_EQ(perfect_nest_band(*perfect).size(), 2u);
  EXPECT_EQ(perfect_nest_band(*imperfect).size(), 1u);
}

TEST(Program, ArrayFootprint) {
  ArrayDecl d;
  d.name = "A";
  d.dims = {10, 20};
  d.elem_size = 8;
  d.pad_elems = 5;
  EXPECT_EQ(d.elements(), 200);
  EXPECT_EQ(d.footprint_bytes(), (200 + 5) * 8);
}

/// A program that touches every declaration table and subscript kind, with
/// optional ON/OFF markers around its loop.
Program eq_sample(bool shuffled = true, bool markers = false) {
  ProgramBuilder b("eq");
  const auto A = b.array("A", {8, 8});
  const auto IP = b.index_array("IP", 8, ArrayDecl::Content::Permutation);
  const auto H = b.chase_pool("H", 8, 16, shuffled);
  const auto R = b.record_pool("R", 8, 32);
  const auto s = b.scalar("s");
  if (markers) b.toggle(true);
  const auto i = b.begin_loop("i", 0, 8);
  b.stmt({load_array(A, {b.sub(i), Subscript::indexed(IP, x(i), 2)}),
          chase(H), load_field(R, b.sub(i), 8), store_scalar(s)},
         1, "s0");
  b.end_loop();
  if (markers) b.toggle(false);
  return b.finish();
}

LoopNode& only_loop(Program& p) {
  for (auto& n : p.top())
    if (n->kind == NodeKind::Loop) return static_cast<LoopNode&>(*n);
  throw std::logic_error("no loop");
}

Stmt& first_stmt(Program& p) {
  return static_cast<StmtNode&>(*only_loop(p).body.front()).stmt;
}

TEST(SameCode, CloneIsEqual) {
  const Program p = eq_sample();
  EXPECT_TRUE(same_code(p, p.clone()));
  EXPECT_TRUE(same_code(p, p.clone(), /*skip_markers_of_b=*/true));
  EXPECT_TRUE(same_code(p, eq_sample()));
}

TEST(SameCode, EveryFieldTheStreamDependsOnBreaksEquality) {
  const Program p = eq_sample();
  const auto differs = [&p](const std::function<void(Program&)>& edit) {
    Program q = p.clone();
    edit(q);
    return !same_code(p, q) && !same_code(q, p) &&
           !same_code(p, q, /*skip_markers_of_b=*/true);
  };
  EXPECT_TRUE(differs([](Program& q) { first_stmt(q).code_addr += 4; }));
  EXPECT_TRUE(differs([](Program& q) { only_loop(q).code_addr += 8; }));
  EXPECT_TRUE(differs([](Program& q) { q.array(0).layout = Layout::ColMajor; }));
  EXPECT_TRUE(differs([](Program& q) { q.array(0).pad_elems = 1; }));
  EXPECT_TRUE(differs([](Program& q) {
    auto& arr = std::get<Reference::Array>(first_stmt(q).refs[0].target);
    std::get<Subscript::Indexed>(arr.subs[1].value).offset = 3;
  }));
  EXPECT_TRUE(differs([](Program& q) {
    only_loop(q).body.push_back(std::make_unique<StmtNode>(Stmt{}));
  }));
  EXPECT_TRUE(differs([](Program& q) { only_loop(q).step = 2; }));
  EXPECT_FALSE(same_code(p, eq_sample(/*shuffled=*/false)));
}

TEST(SameCode, MarkersAreSkippedOnlyWhenAskedAndOnlyOnTheMarkedSide) {
  const Program plain = eq_sample();
  const Program marked = eq_sample(/*shuffled=*/true, /*markers=*/true);
  EXPECT_FALSE(same_code(plain, marked));
  EXPECT_TRUE(same_code(plain, marked, /*skip_markers_of_b=*/true));
  // The plain side must have none: a marker there is never skipped.
  EXPECT_FALSE(same_code(marked, plain, /*skip_markers_of_b=*/true));
  EXPECT_FALSE(same_code(marked, marked.clone(), /*skip_markers_of_b=*/true));
  EXPECT_TRUE(same_code(marked, marked.clone()));
  // Only markers are skipped: any other difference still counts.
  Program moved = marked.clone();
  first_stmt(moved).code_addr += 4;
  EXPECT_FALSE(same_code(plain, moved, /*skip_markers_of_b=*/true));
  // A flipped marker is a difference when markers are compared.
  Program flipped = marked.clone();
  static_cast<ToggleNode&>(*flipped.top().front()).on = false;
  EXPECT_FALSE(same_code(marked, flipped));
}

TEST(Program, DynamicRefCountFollowsLoopBounds) {
  ProgramBuilder b("t");
  const auto A = b.array("A", {16});
  const auto IP = b.index_array("IP", 16, ArrayDecl::Content::Permutation);
  const auto i = b.begin_loop("i", 0, 16, 4);  // 4 trips
  // Triangular: 16 + 12 + 8 + 4 = 40 trips of 3 references (the indexed
  // subscript's index load counts).
  const auto j = b.begin_loop("j", x(i), AffineExpr::constant(16));
  b.stmt({load_array(A, {Subscript::indexed(IP, x(j))}),
          store_array(A, {b.sub(j)})},
         1);
  b.end_loop();
  b.toggle(true);
  b.stmt({load_array(A, {b.csub(0)})}, 1);
  b.end_loop();
  b.begin_loop("k", 5, 5);  // no trips
  b.stmt({load_array(A, {b.csub(0)})}, 1);
  b.end_loop();
  EXPECT_EQ(b.finish().dynamic_ref_count(), 40u * 3 + 4);
}

TEST(Builder, RejectsNonPositiveLoopStep) {
  for (const std::int64_t step : {0, -1}) {
    ProgramBuilder b("t");
    EXPECT_THROW(b.begin_loop("i", 0, 16, step), std::logic_error) << step;
  }
}

TEST(Printer, RendersRefsAndMarkers) {
  ProgramBuilder b("demo");
  const auto A = b.array("A", {4, 4});
  const auto IP = b.index_array("IP", 4, ArrayDecl::Content::Permutation);
  const auto H = b.chase_pool("H", 8, 16);
  b.toggle(true);
  const auto i = b.begin_loop("i", 0, 4);
  b.stmt({load_array(A, {b.sub(i), Subscript::indexed(IP, x(i), 2)}),
          chase(H)},
         1, "s0");
  b.end_loop();
  b.toggle(false);
  Program p = b.finish();
  const std::string out = print(p);
  EXPECT_NE(out.find("HW_ON;"), std::string::npos);
  EXPECT_NE(out.find("HW_OFF;"), std::string::npos);
  EXPECT_NE(out.find("A[i][IP[i]+2]"), std::string::npos);
  EXPECT_NE(out.find("*H"), std::string::npos);
  EXPECT_NE(out.find("for i in [0, 4)"), std::string::npos);
}

}  // namespace
}  // namespace selcache::ir
