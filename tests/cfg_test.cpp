#include <gtest/gtest.h>

#include <memory>

#include "ir/cfg.hpp"
#include "ir/parser.hpp"
#include "ir/symexec.hpp"
#include "ir/transform.hpp"
#include "obs/trace.hpp"
#include "substrate/engine.hpp"
#include "util/rng.hpp"

namespace sciduction::ir {
namespace {

program diamond_chain(int k) {
    // k independent if-diamonds in sequence: 2^k paths, k+1 basis paths.
    std::string body = "int acc = 0;\n";
    for (int i = 0; i < k; ++i) {
        body += "if ((x >> " + std::to_string(i) + ") & 1) { acc = acc + " +
                std::to_string(i + 1) + "; }\n";
    }
    body += "return acc;";
    return parse_program("int f(int x) {\n" + body + "\n}");
}

TEST(cfg, straight_line) {
    program p = parse_program("int f(int x) { int y = x + 1; return y; }");
    cfg g = cfg::build(p, p.functions[0]);
    EXPECT_EQ(g.count_paths(), 1u);
    EXPECT_EQ(g.basis_dimension(), 1u);
    auto paths = g.enumerate_paths();
    ASSERT_EQ(paths.size(), 1u);
    EXPECT_EQ(g.trace({41}).return_value, 42u);
}

TEST(cfg, single_diamond) {
    program p = parse_program("int f(int x) { int y = 0; if (x) { y = 1; } else { y = 2; } return y; }");
    cfg g = cfg::build(p, p.functions[0]);
    EXPECT_EQ(g.count_paths(), 2u);
    EXPECT_EQ(g.basis_dimension(), 2u);
    auto t1 = g.trace({5});
    auto t0 = g.trace({0});
    EXPECT_EQ(t1.return_value, 1u);
    EXPECT_EQ(t0.return_value, 2u);
    EXPECT_NE(t1.taken, t0.taken);
}

TEST(cfg, early_return_prunes_join) {
    program p = parse_program(
        "int f(int x) { if (x) { return 1; } else { return 2; } return 3; }");
    cfg g = cfg::build(p, p.functions[0]);
    EXPECT_EQ(g.count_paths(), 2u);  // the trailing return 3 is unreachable
}

TEST(cfg, implicit_return_added) {
    program p = parse_program("int f(int x) { int y = x; if (x) { return y; } }");
    cfg g = cfg::build(p, p.functions[0]);
    EXPECT_EQ(g.count_paths(), 2u);
    EXPECT_EQ(g.trace({0}).return_value, 0u);  // fell through to implicit return 0
}

TEST(cfg, rejects_loops_and_calls) {
    program loop = parse_program("int f() { while (1) { } return 0; }");
    EXPECT_THROW(cfg::build(loop, loop.functions[0]), std::runtime_error);
    program call = parse_program("int g() { return 1; } int f() { int x = 0; x = g(); return x; }");
    EXPECT_THROW(cfg::build(call, *call.find_function("f")), std::runtime_error);
}

class diamond_paths : public ::testing::TestWithParam<int> {};

TEST_P(diamond_paths, counts_and_dimensions) {
    int k = GetParam();
    program p = diamond_chain(k);
    cfg g = cfg::build(p, p.functions[0]);
    EXPECT_EQ(g.count_paths(), 1ULL << k);
    EXPECT_EQ(g.basis_dimension(), static_cast<std::size_t>(k) + 1);
    EXPECT_EQ(g.enumerate_paths().size(), 1ULL << k);
}

INSTANTIATE_TEST_SUITE_P(sizes, diamond_paths, ::testing::Values(1, 2, 3, 5, 8));

TEST(cfg, edge_vectors_sum_matches_path_length) {
    program p = diamond_chain(3);
    cfg g = cfg::build(p, p.functions[0]);
    for (const auto& path : g.enumerate_paths()) {
        util::rvector v = g.edge_vector(path);
        util::rational total(0);
        for (const auto& x : v) total += x;
        EXPECT_EQ(total, util::rational(static_cast<std::int64_t>(path.size())));
    }
}

TEST(cfg, trace_agrees_with_interpreter) {
    program p = parse_program(R"(
        int mem[4] = {3, 1, 4, 1};
        int f(int x, int y) {
          int acc = mem[0];
          if (x < y) { acc = acc + mem[1]; } else { acc = acc * 2; }
          if ((x ^ y) & 1) { mem[2] = acc; acc = acc + mem[2]; }
          return acc;
        }
    )");
    cfg g = cfg::build(p, p.functions[0]);
    util::rng r(17);
    for (int t = 0; t < 200; ++t) {
        std::uint64_t x = r.next_u64() & 0xffff;
        std::uint64_t y = r.next_u64() & 0xffff;
        ASSERT_EQ(g.trace({x, y}).return_value, interpret(p, "f", {x, y}).return_value);
    }
}

TEST(cfg, modexp_has_paper_structure) {
    program p = parse_program(R"(
        int modexp(int base, int exponent) {
          int result = 1;
          int b = base;
          int i = 0;
          while (i < 8) bound 8 {
            if (exponent & 1) { result = (result * b) % 1000003; }
            b = (b * b) % 1000003;
            exponent = exponent >> 1;
            i = i + 1;
          }
          return result;
        }
    )");
    function f = resolve_static_branches(unroll_loops(*p.find_function("modexp")), p.width);
    cfg g = cfg::build(p, f);
    EXPECT_EQ(g.count_paths(), 256u);     // paper Sec. 3.3: 256 program paths
    EXPECT_EQ(g.basis_dimension(), 9u);   // paper Sec. 3.3: 9 basis paths
}

// ---- symbolic execution --------------------------------------------------------

TEST(symexec, witness_drives_intended_path) {
    program p = diamond_chain(4);
    cfg g = cfg::build(p, p.functions[0]);
    smt::term_manager tm;
    auto paths = g.enumerate_paths();
    for (std::size_t i = 0; i < paths.size(); i += 3) {
        auto witness = feasible_path_witness(g, paths[i], tm);
        ASSERT_TRUE(witness.has_value()) << "path " << i;
        EXPECT_EQ(g.trace(*witness).taken, paths[i]) << "path " << i;
    }
}

TEST(symexec, engine_witness_decides_on_the_calling_thread) {
    // A single feasibility check is decided inline: the engine records its
    // solve span but no queue_wait span, which only a task dispatched to
    // the engine's pool records.
    program p = diamond_chain(2);
    cfg g = cfg::build(p, p.functions[0]);
    smt::term_manager tm;
    auto trace = std::make_shared<obs::trace_collector>();
    substrate::smt_engine engine(tm, {.trace = trace});
    auto witness = feasible_path_witness(g, g.enumerate_paths().front(), engine);
    ASSERT_TRUE(witness.has_value());
    bool solved = false;
    bool queued = false;
    for (const obs::trace_event& e : trace->events()) {
        solved = solved || e.name == "solve";
        queued = queued || e.name == "queue_wait";
    }
    EXPECT_TRUE(solved);
    EXPECT_FALSE(queued);
}

TEST(symexec, infeasible_path_detected) {
    // The two conditions are contradictory, so two of the four paths are
    // infeasible.
    program p = parse_program(R"(
        int f(int x) {
          int a = 0;
          if (x > 10) { a = 1; }
          if (x < 5) { a = a + 2; }
          return a;
        }
    )");
    cfg g = cfg::build(p, p.functions[0]);
    smt::term_manager tm;
    int feasible = 0;
    for (const auto& path : g.enumerate_paths())
        if (feasible_path_witness(g, path, tm)) ++feasible;
    EXPECT_EQ(g.count_paths(), 4u);
    EXPECT_EQ(feasible, 3);  // (x>10 && x<5) is impossible
}

TEST(symexec, symbolic_return_value_matches_interpreter) {
    program p = parse_program(R"(
        int f(int x) {
          int y = x * 3 + 1;
          if (y & 1) { y = y ^ 0xF0; }
          return y;
        }
    )");
    cfg g = cfg::build(p, p.functions[0]);
    smt::term_manager tm;
    for (const auto& path : g.enumerate_paths()) {
        path_encoding enc = encode_path(g, path, tm);
        smt::smt_solver solver(tm);
        solver.assert_term(enc.path_condition);
        if (solver.check() != smt::check_result::sat) continue;
        std::vector<std::uint64_t> args{solver.model_value(enc.params[0])};
        ASSERT_TRUE(enc.return_value.valid());
        EXPECT_EQ(solver.model_value(enc.return_value),
                  interpret(p, "f", args).return_value);
    }
}

TEST(symexec, constant_array_reads_fold) {
    program p = parse_program(R"(
        int lut[4] = {10, 20, 30, 40};
        int f(int x) {
          int v = lut[2];
          if (x == v) { return 1; }
          return 0;
        }
    )");
    cfg g = cfg::build(p, p.functions[0]);
    smt::term_manager tm;
    auto paths = g.enumerate_paths();
    int with_witness = 0;
    for (const auto& path : paths) {
        auto w = feasible_path_witness(g, path, tm);
        if (!w) continue;
        ++with_witness;
        EXPECT_EQ(g.trace(*w).taken, path);
    }
    EXPECT_EQ(with_witness, 2);
}

TEST(symexec, dynamic_array_index_unsupported) {
    program p = parse_program("int a[4]; int f(int i) { if (a[i]) { return 1; } return 0; }");
    cfg g = cfg::build(p, p.functions[0]);
    smt::term_manager tm;
    auto paths = g.enumerate_paths();
    EXPECT_THROW(encode_path(g, paths[0], tm), std::runtime_error);
}

}  // namespace
}  // namespace sciduction::ir
