#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "gametime/gametime.hpp"
#include "util/histogram.hpp"
#include "ir/parser.hpp"
#include "ir/transform.hpp"

namespace sciduction::gametime {
namespace {

const char* modexp_src = R"(
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
)";

struct modexp_fixture {
    ir::program p;
    ir::function f;
    ir::cfg g;
    smt::term_manager tm;

    modexp_fixture()
        : p(ir::parse_program(modexp_src)),
          f(ir::resolve_static_branches(ir::unroll_loops(*p.find_function("modexp")), p.width)),
          g(ir::cfg::build(p, f)) {}
};

TEST(basis_extraction, finds_full_feasible_basis) {
    modexp_fixture fx;
    basis_info basis = extract_basis_paths(fx.g, fx.tm);
    EXPECT_EQ(basis.paths.size(), 9u);  // paper: 9 basis paths
    EXPECT_EQ(basis.matrix.rank(), 9u);
    EXPECT_EQ(basis.paths.size(), basis.tests.size());
    // Each SMT test case actually drives its basis path.
    for (std::size_t i = 0; i < basis.paths.size(); ++i)
        EXPECT_EQ(fx.g.trace(basis.tests[i]).taken, basis.paths[i]) << "basis path " << i;
    // Far fewer SMT queries than paths considered (rank filter first).
    EXPECT_LE(basis.smt_queries, basis.paths_considered);
}

TEST(basis_extraction, infeasible_paths_excluded) {
    ir::program p = ir::parse_program(R"(
        int f(int x) {
          int a = 0;
          if (x > 10) { a = 1; }
          if (x < 5) { a = a + 2; }
          return a;
        }
    )");
    ir::cfg g = ir::cfg::build(p, p.functions[0]);
    smt::term_manager tm;
    basis_info basis = extract_basis_paths(g, tm);
    // Dimension is 3 and all three feasible paths are independent.
    EXPECT_EQ(basis.paths.size(), 3u);
    for (std::size_t i = 0; i < basis.paths.size(); ++i)
        EXPECT_EQ(g.trace(basis.tests[i]).taken, basis.paths[i]);
}

TEST(basis_extraction, enumeration_limit_boundary) {
    // Three independent branches: 8 paths and basis dimension 4, and the
    // basis completes only at the eighth path. Every smaller limit runs
    // out first; a limit of 8 returns normally.
    ir::program p = ir::parse_program(R"(
        int f(int x) {
          int a = 0;
          if (x > 10) { a = 1; }
          if (x < 5) { a = a + 2; }
          if (x == 7) { a = a + 4; }
          return a;
        }
    )");
    ir::cfg g = ir::cfg::build(p, p.functions[0]);
    ASSERT_EQ(g.basis_dimension(), 4u);
    for (std::size_t limit = 1; limit < 8; ++limit) {
        smt::term_manager tm;
        try {
            (void)extract_basis_paths(g, tm, limit);
            ADD_FAILURE() << "limit " << limit << " did not throw";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find("enumeration limit exceeded"),
                      std::string::npos)
                << "limit " << limit << ": " << e.what();
        }
    }
    smt::term_manager tm;
    basis_info basis = extract_basis_paths(g, tm, 8);
    EXPECT_EQ(basis.paths.size(), 4u);
    EXPECT_EQ(basis.paths_considered, 8u);
    EXPECT_EQ(basis.smt_queries, 8u);
}

TEST(learning, model_reproduces_basis_means_exactly) {
    modexp_fixture fx;
    basis_info basis = extract_basis_paths(fx.g, fx.tm);
    sarm_platform platform(fx.p, fx.f);
    timing_model model = learn_timing_model(basis, platform, {.trials_per_basis_path = 6});
    // B w = mean-lengths holds exactly (min-norm solution over rationals).
    for (std::size_t i = 0; i < basis.paths.size(); ++i) {
        double predicted = predict_path_time(fx.g, model, basis.paths[i]);
        EXPECT_NEAR(predicted, model.basis_means[i], 1e-9) << "basis path " << i;
    }
    EXPECT_EQ(model.measurements, platform.measurements() >= 54 ? model.measurements : -1);
}

TEST(learning, predicts_unmeasured_paths) {
    modexp_fixture fx;
    basis_info basis = extract_basis_paths(fx.g, fx.tm);
    sarm_platform platform(fx.p, fx.f);
    timing_model model = learn_timing_model(basis, platform);
    // Every one of the 256 paths is predicted from 9 measured ones; the
    // prediction error must be small relative to the path times (the pi
    // perturbation has bounded mean under H).
    auto paths = fx.g.enumerate_paths();
    double worst_rel = 0;
    for (std::size_t i = 0; i < paths.size(); i += 7) {
        auto w = ir::feasible_path_witness(fx.g, paths[i], fx.tm);
        ASSERT_TRUE(w.has_value());
        double predicted = predict_path_time(fx.g, model, paths[i]);
        double measured = static_cast<double>(platform.measure_cold(*w));
        worst_rel = std::max(worst_rel, std::abs(predicted - measured) / measured);
    }
    EXPECT_LT(worst_rel, 0.10);
}

TEST(wcet, identifies_all_ones_exponent) {
    modexp_fixture fx;
    basis_info basis = extract_basis_paths(fx.g, fx.tm);
    sarm_platform platform(fx.p, fx.f);
    timing_model model = learn_timing_model(basis, platform);
    auto wcet = predict_wcet(fx.g, model, fx.tm);
    ASSERT_TRUE(wcet.has_value());
    // Paper Sec. 3.3: "GAMETIME correctly predicts the WCET (and produces
    // the corresponding test case: the 8-bit exponent is 255)".
    EXPECT_EQ(wcet->test_args[1] & 0xff, 255u);
    EXPECT_EQ(fx.g.trace(wcet->test_args).taken, wcet->longest);
}

TEST(wcet, falls_back_when_dp_longest_infeasible) {
    // Craft a program where the structurally longest path is infeasible:
    // both "heavy" branches cannot be taken together.
    ir::program p = ir::parse_program(R"(
        int f(int x) {
          int acc = 0;
          if (x > 100) { acc = acc + x * x * x; }
          if (x < 50)  { acc = acc + x * x * x; }
          return acc;
        }
    )");
    ir::cfg g = ir::cfg::build(p, p.functions[0]);
    smt::term_manager tm;
    basis_info basis = extract_basis_paths(g, tm);
    ir::function f2 = p.functions[0];
    sarm_platform platform(p, f2);
    timing_model model = learn_timing_model(basis, platform);
    auto wcet = predict_wcet(g, model, tm);
    ASSERT_TRUE(wcet.has_value());
    // The returned path must be feasible: its witness drives it.
    EXPECT_EQ(g.trace(wcet->test_args).taken, wcet->longest);
}

TEST(problem_ta, yes_and_no_answers) {
    modexp_fixture fx;
    basis_info basis = extract_basis_paths(fx.g, fx.tm);
    sarm_platform platform(fx.p, fx.f);
    timing_model model = learn_timing_model(basis, platform);
    ta_answer generous = decide_ta(fx.g, model, fx.tm, platform, 1e9);
    EXPECT_TRUE(generous.within_bound);
    ta_answer strict = decide_ta(fx.g, model, fx.tm, platform, 1.0);
    EXPECT_FALSE(strict.within_bound);
    EXPECT_FALSE(strict.witness_args.empty());
    // The NO answer carries a test case whose measured time exceeds tau.
    EXPECT_GT(platform.measure_cold(strict.witness_args), 1u);
    EXPECT_EQ(strict.report.guarantee, core::guarantee_kind::probabilistically_sound);
}

TEST(platform, black_box_interface_only) {
    modexp_fixture fx;
    sarm_platform platform(fx.p, fx.f);
    std::uint64_t a = platform.measure({3, 200});
    std::uint64_t b = platform.measure({3, 200});
    EXPECT_GT(a, 0u);
    EXPECT_GT(b, 0u);
    EXPECT_EQ(platform.measurements(), 2u);
    // Cold measurements are deterministic.
    EXPECT_EQ(platform.measure_cold({3, 200}), platform.measure_cold({3, 200}));
}

TEST(distribution, fig6_exact_under_fixed_state_protocol) {
    // The paper's headline (Fig. 6): from 9 measured basis paths, the
    // predicted execution-time distribution over all 256 paths matches the
    // measured one *perfectly* under the fixed-starting-state protocol.
    modexp_fixture fx;
    basis_info basis = extract_basis_paths(fx.g, fx.tm);
    sarm_platform platform(fx.p, fx.f, {}, 20120604, /*fill=*/0.0);  // deterministic state
    timing_model model = learn_timing_model(basis, platform);
    util::histogram predicted(20);
    util::histogram measured(20);
    for (std::uint64_t e = 0; e < 256; ++e) {
        auto trace = fx.g.trace({7, e});
        double pred = predict_path_time(fx.g, model, trace.taken);
        predicted.add(static_cast<std::int64_t>(pred + 0.5));
        measured.add(static_cast<std::int64_t>(platform.measure({7, e})));
    }
    EXPECT_DOUBLE_EQ(predicted.total_variation_distance(measured), 0.0);
    // The shape is the binomial the bit-count structure dictates: bin
    // counts C(8, k) for k set bits.
    std::vector<std::int64_t> counts;
    for (const auto& [lo, n] : measured.bins()) counts.push_back(n);
    std::vector<std::int64_t> binomial{1, 8, 28, 56, 70, 56, 28, 8, 1};
    EXPECT_EQ(counts, binomial);
}

TEST(hypothesis, reported_structure) {
    core::structure_hypothesis h = weight_perturbation_hypothesis();
    EXPECT_NE(h.name.find("weight-perturbation"), std::string::npos);
    EXPECT_TRUE(h.strictly_restrictive);
}

// Property: basis dimension m - n + 2 equals extracted basis size for
// diamond chains of any depth (all paths feasible there).
class basis_property : public ::testing::TestWithParam<int> {};

TEST_P(basis_property, full_rank_on_diamond_chains) {
    int k = GetParam();
    std::string body = "int acc = 0;\n";
    for (int i = 0; i < k; ++i)
        body += "if ((x >> " + std::to_string(i) + ") & 1) { acc += " + std::to_string(i + 3) +
                "; }\n";
    ir::program p = ir::parse_program("int f(int x) {\n" + body + "return acc;\n}");
    ir::cfg g = ir::cfg::build(p, p.functions[0]);
    smt::term_manager tm;
    basis_info basis = extract_basis_paths(g, tm);
    EXPECT_EQ(basis.paths.size(), static_cast<std::size_t>(k) + 1);
    EXPECT_EQ(basis.paths.size(), g.basis_dimension());
}

INSTANTIATE_TEST_SUITE_P(depths, basis_property, ::testing::Values(1, 2, 4, 6));

}  // namespace
}  // namespace sciduction::gametime
