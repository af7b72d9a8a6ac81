// Tests for the IR text-format parser.
#include <gtest/gtest.h>

#include "codegen/trace_engine.h"
#include "hw/controller.h"
#include "ir/parser.h"
#include "ir/printer.h"

namespace selcache::ir {
namespace {

TEST(Parser, MinimalProgram) {
  const Program p = parse_program(R"(
    program tiny
    array A 16
    for i = 0 .. 16 {
      load A[i]
    }
  )");
  EXPECT_EQ(p.name(), "tiny");
  ASSERT_EQ(p.loops().size(), 1u);
  EXPECT_EQ(p.static_ref_count(), 1u);
}

TEST(Parser, TwoDimensionalAndAttributes) {
  const Program p = parse_program(R"(
    program attrs
    array A 8x16 elem=4 pad=2 col-major
    for i = 0 .. 8 {
      for j = 0 .. 16 {
        store A[i][j+1] ops=3
      }
    }
  )");
  const ArrayDecl& a = p.arrays()[0];
  EXPECT_EQ(a.dims, (std::vector<std::int64_t>{8, 16}));
  EXPECT_EQ(a.elem_size, 4u);
  EXPECT_EQ(a.pad_elems, 2);
  EXPECT_EQ(a.layout, Layout::ColMajor);
  // The statement carries ops=3 and a write ref.
  bool found = false;
  p.visit([&](const Node& n) {
    if (n.kind != NodeKind::Stmt) return;
    const auto& s = static_cast<const StmtNode&>(n).stmt;
    EXPECT_EQ(s.compute_ops, 3u);
    EXPECT_TRUE(s.refs[0].is_write);
    found = true;
  });
  EXPECT_TRUE(found);
}

TEST(Parser, AllReferenceForms) {
  const Program p = parse_program(R"(
    program refs
    array A 64
    array D 8x8
    index IP 64 permutation
    scalar s
    chase H 16 32
    records R 32 64
    for i = 0 .. 8 {
      for j = 1 .. 8 {
        stmt ld:A[IP[j]+2], ld:D[i*j][j], ld:D[i/j][i], ld:*H+8, ld:R[i].f16, st:s ops=2
      }
    }
  )");
  std::vector<const Reference*> refs;
  for (const auto& n : p.top()) collect_refs(*n, refs);
  ASSERT_EQ(refs.size(), 6u);
  EXPECT_TRUE(refs[3]->is_pointer());
  EXPECT_TRUE(refs[4]->is_field());
  EXPECT_TRUE(refs[5]->is_scalar());
  EXPECT_TRUE(refs[5]->is_write);
  // Round-trip through the printer mentions the indexed form.
  EXPECT_NE(print(p).find("IP[j]+2"), std::string::npos);
}

TEST(Parser, MarkersAndStepsAndAffineBounds) {
  const Program p = parse_program(R"(
    program m
    array A 64
    on
    for i = 0 .. 64 step 4 {
      for j = i .. 64 {
        load A[j]
      }
    }
    off
  )");
  EXPECT_EQ(p.top().size(), 3u);
  EXPECT_EQ(p.top()[0]->kind, NodeKind::Toggle);
  const auto& outer = static_cast<const LoopNode&>(*p.top()[1]);
  EXPECT_EQ(outer.step, 4);
  const auto& inner = static_cast<const LoopNode&>(*outer.body[0]);
  EXPECT_TRUE(inner.lower.uses(outer.var));  // triangular bound
}

TEST(Parser, ParsedProgramExecutes) {
  const Program p = parse_program(R"(
    program exec
    array A 32
    scalar acc
    for i = 0 .. 32 {
      stmt ld:A[i], st:acc ops=1
    }
  )");
  memsys::Hierarchy h((memsys::HierarchyConfig()));
  hw::Controller ctl(nullptr);
  cpu::TimingModel cpu(cpu::CpuConfig{}, h, ctl);
  codegen::DataEnv env(p);
  codegen::TraceEngine eng(p, env, cpu);
  eng.run();
  EXPECT_EQ(eng.loads_executed(), 32u);
  EXPECT_EQ(eng.stores_executed(), 32u);
}

TEST(Parser, CommentsAndBlanksIgnored) {
  const Program p = parse_program(R"(
    # leading comment
    program c   # trailing comment

    array A 8  # with sizes
    for i = 0 .. 8 {
      load A[i]   # body
    }
  )");
  EXPECT_EQ(p.static_ref_count(), 1u);
}

TEST(Parser, ErrorsCarryLineNumbers) {
  const auto expect_error = [](const char* text, const char* needle) {
    try {
      parse_program(text);
      FAIL() << "expected parse error for: " << text;
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_error("array A 8\n", "program");
  expect_error("program x\nfor i = 0 .. 8 {\n", "unclosed");
  expect_error("program x\n}\n", "unmatched");
  expect_error("program x\narray A 8\nfor i = 0 .. 8 {\nload B[i]\n}\n",
               "unknown");
  expect_error("program x\nbogus directive\n", "unrecognized");
  expect_error("program x\narray A 8\nload A[q]\n", "unknown variable");
}

/// The trace engine runs `v < hi; v += step`, so a step that is not
/// positive would never finish: the parser rejects it with a diagnostic.
TEST(Parser, RejectsNegativeLoopStep) {
  try {
    parse_program(R"(
      program neg
      array A 16
      for i = 0 .. 16 step -1 {
        load A[i]
      }
    )");
    FAIL() << "a negative loop step must not parse";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("must be positive"),
              std::string::npos)
        << e.what();
  }
}

TEST(Parser, ZipfAndMeshContents) {
  const Program p = parse_program(R"(
    program z
    index Z 128 zipf 85 range=1000
    index M 128 mesh 16 range=500
    array G 1000
    for i = 0 .. 128 {
      load G[Z[i]]
      load G[M[i]]
    }
  )");
  EXPECT_EQ(p.arrays()[0].content, ArrayDecl::Content::Zipf);
  EXPECT_NEAR(p.arrays()[0].content_param, 0.85, 1e-9);
  EXPECT_EQ(p.arrays()[0].content_range, 1000);
  EXPECT_EQ(p.arrays()[1].content, ArrayDecl::Content::Mesh);
}

}  // namespace
}  // namespace selcache::ir
