#include <gtest/gtest.h>

#include "ogis/benchmarks.hpp"
#include "util/rng.hpp"

namespace sciduction::ogis {
namespace {

// ---- components: symbolic and concrete semantics agree -------------------------

class component_agreement : public ::testing::TestWithParam<int> {
protected:
    static std::vector<component> library() {
        return {comp_add(),         comp_sub(),          comp_mul(),        comp_and(),
                comp_or(),          comp_xor(),          comp_not(),        comp_neg(),
                comp_shl_const(3),  comp_lshr_const(2),  comp_add_const(9), comp_const(42),
                comp_ule(),         comp_ite()};
    }
};

TEST_P(component_agreement, concrete_matches_symbolic) {
    const unsigned width = 16;
    util::rng r(static_cast<std::uint64_t>(GetParam()));
    for (const component& c : library()) {
        if (c.commutative) {
            ASSERT_EQ(c.arity, 2u) << c.name;
        }
        for (int t = 0; t < 10; ++t) {
            std::vector<std::uint64_t> args;
            for (unsigned i = 0; i < c.arity; ++i)
                args.push_back(r.next_u64() & smt::term_manager::mask(width));
            std::uint64_t concrete = c.concrete(args, width) & smt::term_manager::mask(width);

            smt::term_manager tm;
            std::vector<smt::term> arg_terms;
            smt::env e;
            for (unsigned i = 0; i < c.arity; ++i) {
                smt::term v = tm.mk_bv_var(std::string("a").append(std::to_string(i)), width);
                arg_terms.push_back(v);
                e[v.id] = args[i];
            }
            smt::term sym = c.symbolic(tm, arg_terms, width);
            EXPECT_EQ(tm.evaluate(sym, e), concrete) << c.name << " trial " << t;
            if (c.commutative) {
                // The synthesis encoding orders these operands, which is
                // sound only if swapping them keeps both semantics.
                EXPECT_EQ(c.concrete({args[1], args[0]}, width) & smt::term_manager::mask(width),
                          concrete)
                    << c.name << " trial " << t;
                smt::term swapped = c.symbolic(tm, {arg_terms[1], arg_terms[0]}, width);
                EXPECT_EQ(tm.evaluate(swapped, e), concrete) << c.name << " trial " << t;
            }
        }
    }
    for (const component& c : {comp_add(), comp_mul(), comp_and(), comp_or(), comp_xor()})
        EXPECT_TRUE(c.commutative) << c.name;
}

INSTANTIATE_TEST_SUITE_P(seeds, component_agreement, ::testing::Values(1, 2, 3));

// ---- lf_program -----------------------------------------------------------------

TEST(lf_program, eval_and_print) {
    std::vector<component> lib{comp_shl_const(2), comp_add()};
    lf_program prog;
    prog.width = 32;
    prog.num_inputs = 1;
    prog.lines = {{0, {0}}, {1, {1, 0}}};  // v1 = v0 << 2; v2 = v1 + v0  (5x)
    prog.outputs = {2};
    EXPECT_EQ(prog.eval(lib, {7})[0], 35u);
    std::string s = prog.to_string(lib);
    EXPECT_NE(s.find("shl2"), std::string::npos);
    EXPECT_NE(s.find("add"), std::string::npos);
    EXPECT_NE(s.find("return (v2)"), std::string::npos);
}

TEST(lf_program, symbolic_matches_concrete) {
    std::vector<component> lib{comp_xor(), comp_and(), comp_add()};
    lf_program prog;
    prog.width = 8;
    prog.num_inputs = 2;
    prog.lines = {{0, {0, 1}}, {1, {0, 2}}, {2, {2, 3}}};
    prog.outputs = {4};
    smt::term_manager tm;
    smt::term x = tm.mk_bv_var("x", 8);
    smt::term y = tm.mk_bv_var("y", 8);
    auto sym = prog.eval_symbolic(lib, tm, {x, y});
    util::rng r(4);
    for (int t = 0; t < 64; ++t) {
        std::uint64_t vx = r.next_below(256);
        std::uint64_t vy = r.next_below(256);
        smt::env e{{x.id, vx}, {y.id, vy}};
        EXPECT_EQ(tm.evaluate(sym[0], e), prog.eval(lib, {vx, vy})[0]);
    }
}

// ---- the oracle adapters ---------------------------------------------------------

TEST(minic_oracle, return_value_and_globals) {
    minic_oracle ret_oracle(ir::parse_program("int f(int x) { return x * 3; }"), "f");
    EXPECT_EQ(ret_oracle.query({5}), (io_vector{15}));
    minic_oracle glob_oracle(
        ir::parse_program("int a = 0; int b = 0; int f(int x) { a = x + 1; b = x - 1; return 0; }"),
        "f", {"a", "b"});
    EXPECT_EQ(glob_oracle.query({10}), (io_vector{11, 9}));
    EXPECT_EQ(glob_oracle.queries(), 1u);
}

TEST(benchmarks, oracles_implement_reference_semantics) {
    util::rng r(12);
    for (const auto& bench : all_benchmarks()) {
        minic_oracle oracle(ir::parse_program(bench.obfuscated_source), bench.function_name,
                            bench.output_globals);
        for (int t = 0; t < 100; ++t) {
            io_vector in;
            for (unsigned i = 0; i < bench.config.num_inputs; ++i)
                in.push_back(r.next_u64() & 0xffffffffULL);
            io_vector want = bench.reference(in);
            for (auto& v : want) v &= smt::term_manager::mask(32);
            ASSERT_EQ(oracle.query(in), want) << bench.name << " trial " << t;
        }
    }
}

// ---- synthesis (small widths keep the suite fast) --------------------------------

synthesis_outcome run_at_width(deobfuscation_benchmark bench, unsigned width) {
    bench.config.width = width;
    return run_benchmark(bench);
}

void expect_correct(const deobfuscation_benchmark& bench, const synthesis_outcome& out,
                    unsigned width) {
    ASSERT_EQ(out.status, core::loop_status::success) << bench.name;
    ASSERT_TRUE(out.program.has_value());
    util::rng r(55);
    for (int t = 0; t < 300; ++t) {
        io_vector in;
        for (unsigned i = 0; i < bench.config.num_inputs; ++i)
            in.push_back(r.next_u64() & smt::term_manager::mask(width));
        io_vector want = bench.reference(in);
        for (auto& v : want) v &= smt::term_manager::mask(width);
        ASSERT_EQ(out.program->eval(bench.config.library, in), want)
            << bench.name << " on input " << in[0];
    }
}

TEST(synthesis, p1_interchange) {
    auto bench = benchmark_p1_interchange();
    auto out = run_at_width(bench, 8);
    expect_correct(bench, out, 8);
    EXPECT_EQ(out.program->lines.size(), 3u);  // exactly the three xors
}

TEST(synthesis, p2_multiply45) {
    auto bench = benchmark_p2_multiply45();
    auto out = run_at_width(bench, 8);
    expect_correct(bench, out, 8);
    EXPECT_EQ(out.program->lines.size(), 4u);
}

TEST(synthesis, bit_tricks) {
    for (auto bench : {benchmark_rightmost_off(), benchmark_isolate_rightmost(),
                       benchmark_average()}) {
        auto out = run_at_width(bench, 8);
        expect_correct(bench, out, 8);
    }
}

TEST(synthesis, stats_populated) {
    auto out = run_at_width(benchmark_isolate_rightmost(), 8);
    ASSERT_EQ(out.status, core::loop_status::success);
    EXPECT_GE(out.stats.iterations, 1);
    EXPECT_GE(out.stats.oracle_queries, 2u);  // the seeds
    EXPECT_GE(out.stats.synthesis_queries, 1);
    EXPECT_GE(out.stats.distinguish_queries, 1);
    EXPECT_GT(out.stats.conflicts, 0u);
    EXPECT_GT(out.stats.elapsed_seconds, 0.0);
    EXPECT_NE(out.report.hypothesis.name.find("component library"), std::string::npos);
}

TEST(synthesis, commutative_operands_may_repeat) {
    // 2x over {add} is only add(v0, v0): the operand ordering must be <=,
    // or this library would be reported unrealizable.
    class doubling final : public spec_oracle {
    public:
        io_vector query(const io_vector& in) override { return {(2 * in[0]) & 0xff}; }
    };
    synthesis_config cfg;
    cfg.width = 8;
    cfg.library = {comp_add()};
    doubling oracle;
    auto out = synthesize(cfg, oracle);
    ASSERT_EQ(out.status, core::loop_status::success);
    ASSERT_TRUE(out.program.has_value());
    ASSERT_EQ(out.program->lines.size(), 1u);
    EXPECT_EQ(out.program->lines[0].args, (std::vector<int>{0, 0}));
    EXPECT_EQ(out.program->outputs, (std::vector<int>{1}));
}

TEST(synthesis, rejects_commutative_component_that_is_not_binary) {
    // The operand ordering reads exactly two operand locations.
    auto bench = benchmark_isolate_rightmost();
    bench.config.library[0].commutative = true;  // neg, arity 1
    EXPECT_THROW(run_benchmark(bench), std::invalid_argument);
}

TEST(synthesis, commutative_ordering_keeps_answer_and_cuts_conflicts) {
    // The operand ordering is symmetry breaking only: the same examples
    // lead to the same answer, with a uniqueness proof that no longer
    // refutes each rival wiring once per operand order.
    auto ordered = benchmark_p1_interchange();
    ordered.config.width = 8;
    auto unordered = ordered;
    for (component& c : unordered.config.library) {
        ASSERT_TRUE(c.commutative) << c.name;
        c.commutative = false;
    }
    auto with_order = run_benchmark(ordered);
    auto without_order = run_benchmark(unordered);
    expect_correct(ordered, with_order, 8);
    expect_correct(unordered, without_order, 8);
    EXPECT_EQ(with_order.stats.iterations, without_order.stats.iterations);
    EXPECT_EQ(with_order.stats.oracle_queries, without_order.stats.oracle_queries);
    EXPECT_LT(with_order.stats.conflicts, without_order.stats.conflicts);
}

// ---- Fig. 7: guarantees under an invalid structure hypothesis --------------------

TEST(guarantees_fig7, insufficient_library_reports_unrealizable) {
    // x*45 cannot be built from a single XOR (the only candidate semantics
    // over one input are x and 0): the I/O pairs become inconsistent with
    // every candidate, so infeasibility is reported — the left branch of
    // the paper's Fig. 7 flowchart.
    auto bench = benchmark_p2_multiply45();
    bench.config.width = 8;
    bench.config.library = {comp_xor()};
    bench.config.max_iterations = 16;
    auto out = run_benchmark(bench);
    EXPECT_EQ(out.status, core::loop_status::unrealizable);
}

TEST(guarantees_fig7, sufficient_library_yields_correct_program) {
    // The other branch of the paper's Fig. 7 flowchart.
    auto bench = benchmark_isolate_rightmost();
    bench.config.width = 8;
    auto out = run_benchmark(bench);
    expect_correct(bench, out, 8);
}

TEST(guarantees_fig7, unique_candidate_terminates_first_iteration) {
    // With a library admitting a single semantics, the distinguisher proves
    // uniqueness immediately.
    auto bench = benchmark_isolate_rightmost();
    bench.config.width = 8;
    auto out = run_benchmark(bench);
    ASSERT_EQ(out.status, core::loop_status::success);
    EXPECT_LE(out.stats.iterations, 4);
}

// Synthesis succeeds across widths (the artifact is width-generic).
class width_sweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(width_sweep, p1_synthesizes) {
    auto bench = benchmark_p1_interchange();
    auto out = run_at_width(bench, GetParam());
    expect_correct(bench, out, GetParam());
}

INSTANTIATE_TEST_SUITE_P(widths, width_sweep, ::testing::Values(4u, 8u, 16u));

}  // namespace
}  // namespace sciduction::ogis
