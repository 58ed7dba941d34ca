#include <gtest/gtest.h>

#include <cmath>

#include "hybrid/transmission.hpp"
#include "util/rng.hpp"

namespace sciduction::hybrid {
namespace {

// ---- box ------------------------------------------------------------------------

TEST(box_type, membership_and_emptiness) {
    box b;
    b.lo = {0.0, -1.0};
    b.hi = {2.0, 1.0};
    EXPECT_TRUE(b.contains({1.0, 0.0}));
    EXPECT_TRUE(b.contains({0.0, -1.0}));  // closed bounds
    EXPECT_FALSE(b.contains({2.1, 0.0}));
    EXPECT_FALSE(b.empty());
    EXPECT_TRUE(box::empty_box(2).empty());
    EXPECT_FALSE(box::empty_box(2).contains({0.5, 0.5}));
    EXPECT_TRUE(box::whole(2).contains({1e9, -1e9}));
}

// ---- RK4 ------------------------------------------------------------------------

TEST(rk4, exponential_decay_accuracy) {
    // dx/dt = -x, x(0) = 1: x(t) = e^-t.
    vector_field f = [](const state& x, state& dx) { dx[0] = -x[0]; };
    state x{1.0};
    const double dt = 1e-3;
    for (int i = 0; i < 1000; ++i) rk4_step(f, x, dt);
    EXPECT_NEAR(x[0], std::exp(-1.0), 1e-9);
}

TEST(rk4, harmonic_oscillator_energy) {
    // x'' = -x as a 2D system; energy must be conserved to RK4 accuracy.
    vector_field f = [](const state& x, state& dx) {
        dx[0] = x[1];
        dx[1] = -x[0];
    };
    state x{1.0, 0.0};
    for (int i = 0; i < 10000; ++i) rk4_step(f, x, 1e-3);
    EXPECT_NEAR(x[0] * x[0] + x[1] * x[1], 1.0, 1e-8);
}

// ---- simulate_in_mode --------------------------------------------------------------

mds ramp_system(double lo_exit, double hi_exit, double unsafe_above) {
    // One mode with dx/dt = 1 on a line; one exit with guard [lo,hi];
    // unsafe above a threshold.
    mds m;
    m.dim = 1;
    m.modes.push_back({"ramp", [](const state&, state& dx) { dx[0] = 1.0; }});
    m.modes.push_back({"done", [](const state&, state& dx) { dx[0] = 0.0; }});
    box g;
    g.lo = {lo_exit};
    g.hi = {hi_exit};
    m.transitions.push_back({"exit", 0, 1, g, false});
    m.safe = [unsafe_above](int, const state& x) { return x[0] <= unsafe_above; };
    return m;
}

TEST(simulate, reaches_exit_when_guard_ahead) {
    mds m = ramp_system(2.0, 3.0, 100.0);
    sim_config cfg;
    cfg.dt = 1e-3;
    sim_result r = simulate_in_mode(m, 0, {0.0}, cfg);
    EXPECT_EQ(r.outcome, sim_outcome::reached_exit);
    EXPECT_NEAR(r.final_state[0], 2.0, 1e-2);
    EXPECT_EQ(r.exit_transition, 0);
}

TEST(simulate, unsafe_before_exit) {
    mds m = ramp_system(50.0, 60.0, 10.0);  // guard beyond the unsafe wall
    sim_config cfg;
    sim_result r = simulate_in_mode(m, 0, {0.0}, cfg);
    EXPECT_EQ(r.outcome, sim_outcome::unsafe);
    EXPECT_NEAR(r.final_state[0], 10.0, 1e-1);
}

TEST(simulate, immediate_exit_at_entry) {
    mds m = ramp_system(0.0, 5.0, 100.0);
    sim_config cfg;
    sim_result r = simulate_in_mode(m, 0, {1.0}, cfg);
    EXPECT_EQ(r.outcome, sim_outcome::reached_exit);
    EXPECT_DOUBLE_EQ(r.time, 0.0);
}

TEST(simulate, dwell_blocks_early_exit) {
    mds m = ramp_system(0.0, 100.0, 1000.0);
    sim_config cfg;
    cfg.min_dwell = 2.0;
    sim_result r = simulate_in_mode(m, 0, {1.0}, cfg);
    EXPECT_EQ(r.outcome, sim_outcome::reached_exit);
    EXPECT_GE(r.time, 2.0);
    EXPECT_NEAR(r.final_state[0], 3.0, 1e-2);  // moved during the dwell
}

TEST(simulate, safe_timeout) {
    mds m = ramp_system(50.0, 60.0, 1e9);
    sim_config cfg;
    cfg.t_max = 1.0;
    sim_result r = simulate_in_mode(m, 0, {0.0}, cfg);
    EXPECT_EQ(r.outcome, sim_outcome::safe_timeout);
    EXPECT_TRUE(label_entry_state(m, 0, {0.0}, cfg));  // timeout counts safe
}

// ---- hyperbox learner ---------------------------------------------------------------

TEST(learner, recovers_synthetic_box_exactly) {
    box target;
    target.lo = {2.5, -1.0};
    target.hi = {7.25, 3.5};
    box over;
    over.lo = {0.0, -10.0};
    over.hi = {20.0, 10.0};
    learner_config cfg;
    cfg.grid = {0.25, 0.5};
    learner_stats stats;
    label_fn label = [&](const state& x) { return target.contains(x); };
    box learned = learn_guard(over, label, cfg, stats);
    ASSERT_FALSE(learned.empty());
    EXPECT_NEAR(learned.lo[0], 2.5, 1e-9);
    EXPECT_NEAR(learned.hi[0], 7.25, 1e-9);
    EXPECT_NEAR(learned.lo[1], -1.0, 1e-9);
    EXPECT_NEAR(learned.hi[1], 3.5, 1e-9);
    EXPECT_GT(stats.queries, 0u);
}

TEST(learner, seed_scan_accounting) {
    // The seed scan and corner search memoize through one oracle cache per
    // learn_guard call. An empty guard exhausts the scan's 121 probes, 56
    // of which revisit a snapped grid point; a populated one finds its seed
    // on the third probe and learns the box in 22 more distinct queries.
    box over;
    over.lo = {0.0, -10.0};
    over.hi = {20.0, 10.0};
    auto run = [&](const label_fn& label) {
        learner_config cfg;
        cfg.grid = {0.25, 0.5};
        learner_stats stats;
        box learned = learn_guard(over, label, cfg, stats);
        return std::pair{learned, stats};
    };

    auto [empty, never] = run([](const state&) { return false; });
    EXPECT_TRUE(empty.empty());
    EXPECT_EQ(never.seed_probes, 121u);
    EXPECT_EQ(never.queries, 121u);
    EXPECT_EQ(never.oracle_calls, 65u);
    EXPECT_EQ(never.cache_hits, 56u);

    box target;
    target.lo = {2.5, -1.0};
    target.hi = {7.25, 3.5};
    auto [learned, found] = run([&](const state& x) { return target.contains(x); });
    EXPECT_EQ(learned.lo, target.lo);
    EXPECT_EQ(learned.hi, target.hi);
    EXPECT_EQ(found.seed_probes, 3u);
    EXPECT_EQ(found.queries, 25u);
    EXPECT_EQ(found.oracle_calls, 25u);
    EXPECT_EQ(found.cache_hits, 0u);
}

TEST(learner, empty_when_no_positive_region) {
    box over;
    over.lo = {0.0};
    over.hi = {10.0};
    learner_config cfg;
    cfg.grid = {0.1};
    learner_stats stats;
    box learned = learn_guard(over, [](const state&) { return false; }, cfg, stats);
    EXPECT_TRUE(learned.empty());
}

TEST(learner, finds_band_not_disconnected_low_region) {
    // Positives = [0,1) plus [5,7]: the learner anchored mid-box must find
    // the band, not bridge across the negative gap (the transmission's
    // transient mid-fixpoint shape).
    box over;
    over.lo = {0.0};
    over.hi = {10.0};
    learner_config cfg;
    cfg.grid = {0.01};
    cfg.coarse_step = {0.5};
    learner_stats stats;
    label_fn label = [](const state& x) {
        return (x[0] >= 0.0 && x[0] < 1.0) || (x[0] >= 5.0 && x[0] <= 7.0);
    };
    box learned = learn_guard(over, label, cfg, stats);
    ASSERT_FALSE(learned.empty());
    EXPECT_NEAR(learned.lo[0], 5.0, 0.02);
    EXPECT_NEAR(learned.hi[0], 7.0, 0.02);
}

TEST(learner, unconstrained_dimensions_preserved) {
    const double inf = std::numeric_limits<double>::infinity();
    box over;
    over.lo = {-inf, 0.0};
    over.hi = {inf, 10.0};
    learner_config cfg;
    cfg.grid = {1.0, 0.1};
    learner_stats stats;
    label_fn label = [](const state& x) { return x[1] >= 2.0 && x[1] <= 4.0; };
    box learned = learn_guard(over, label, cfg, stats);
    ASSERT_FALSE(learned.empty());
    EXPECT_TRUE(std::isinf(learned.lo[0]));
    EXPECT_TRUE(std::isinf(learned.hi[0]));
    EXPECT_NEAR(learned.lo[1], 2.0, 0.2);
    EXPECT_NEAR(learned.hi[1], 4.0, 0.2);
}

// Property: the learner recovers random grid-aligned boxes (valid H) from
// membership queries alone.
class learner_property : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(learner_property, random_boxes_recovered) {
    util::rng r(GetParam());
    for (int iter = 0; iter < 25; ++iter) {
        const double g = 0.5;
        double lo = std::floor(r.next_double() * 10) * g;
        double hi = lo + (1 + r.next_below(10)) * g;
        box target;
        target.lo = {lo};
        target.hi = {hi};
        box over;
        over.lo = {-5.0};
        over.hi = {20.0};
        learner_config cfg;
        cfg.grid = {g};
        learner_stats stats;
        box learned =
            learn_guard(over, [&](const state& x) { return target.contains(x); }, cfg, stats);
        ASSERT_FALSE(learned.empty()) << "target [" << lo << "," << hi << "]";
        EXPECT_NEAR(learned.lo[0], lo, 1e-9);
        EXPECT_NEAR(learned.hi[0], hi, 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(seeds, learner_property, ::testing::Values(1, 2, 3, 4));

// ---- transmission: the paper's experiments -------------------------------------------

TEST(transmission, efficiency_curve) {
    EXPECT_NEAR(transmission_efficiency(1, 10), 1.0, 1e-9);
    EXPECT_NEAR(transmission_efficiency(2, 20), 1.0, 1e-9);
    EXPECT_GT(transmission_efficiency(1, 16.70), 0.5);
    EXPECT_LT(transmission_efficiency(1, 16.71), 0.5);
    EXPECT_LT(transmission_efficiency(2, 13.29), 0.5);
    EXPECT_GT(transmission_efficiency(2, 13.30), 0.5);
}

synthesis_config transmission_config(double dwell = 0.0) {
    synthesis_config cfg;
    cfg.sim.dt = 2e-3;
    cfg.sim.t_max = 200;
    cfg.sim.min_dwell = dwell;
    cfg.learner.grid = {50.0, 0.01};
    cfg.learner.coarse_step = {1000.0, 1.0};
    return cfg;
}

TEST(transmission, eq3_safety_guards) {
    mds sys = build_transmission();
    auto result = synthesize_switching_logic(sys, transmission_config());
    EXPECT_TRUE(result.converged);
    EXPECT_LE(result.passes, 4);
    auto omega = [&](const char* name) {
        const box& g = sys.transitions[static_cast<std::size_t>(sys.find_transition(name))].guard;
        return std::pair<double, double>{g.lo[1], g.hi[1]};
    };
    // Paper Eq. (3), up to one 0.01 grid cell on the analytic boundary:
    const double tol = 0.011;
    for (const char* g1 : {"gN1U", "g11U", "g21D", "g11D"}) {
        EXPECT_NEAR(omega(g1).first, 0.0, tol) << g1;
        EXPECT_NEAR(omega(g1).second, 16.70, tol) << g1;
    }
    for (const char* g2 : {"g12U", "g22U", "g32D", "g22D"}) {
        EXPECT_NEAR(omega(g2).first, 13.29, tol) << g2;
        EXPECT_NEAR(omega(g2).second, 26.70, tol) << g2;
    }
    for (const char* g3 : {"g23U", "g33U", "g33D"}) {
        EXPECT_NEAR(omega(g3).first, 23.29, tol) << g3;
        EXPECT_NEAR(omega(g3).second, 36.70, tol) << g3;
    }
    // Pinned goal guard untouched.
    auto [glo, ghi] = omega("g1ND");
    EXPECT_DOUBLE_EQ(glo, 0.0);
    EXPECT_DOUBLE_EQ(ghi, 0.0);
}

TEST(transmission, eq4_dwell_guards_shape) {
    mds sys = build_transmission();
    auto result = synthesize_switching_logic(sys, transmission_config(5.0));
    EXPECT_TRUE(result.converged);
    auto omega = [&](const char* name) {
        const box& g = sys.transitions[static_cast<std::size_t>(sys.find_transition(name))].guard;
        return std::pair<double, double>{g.lo[1], g.hi[1]};
    };
    // Exact matches with paper Eq. (4):
    EXPECT_NEAR(omega("g12U").second, 23.42, 0.02);
    EXPECT_NEAR(omega("g22U").second, 23.42, 0.02);
    EXPECT_NEAR(omega("g21D").first, 1.31, 0.02);
    EXPECT_NEAR(omega("g11D").first, 1.31, 0.02);
    EXPECT_NEAR(omega("g32D").first, 16.58, 0.02);
    EXPECT_NEAR(omega("g32D").second, 26.70, 0.02);
    EXPECT_NEAR(omega("g33U").second, 33.42, 0.02);
    // Dwell can only shrink guards relative to Eq. (3).
    EXPECT_LE(omega("gN1U").second, 16.70 + 0.011);
    EXPECT_LE(omega("g23U").second, 36.70 + 0.011);
}

TEST(transmission, fig10_trace_properties) {
    transmission_params params;
    mds sys = build_transmission(params);
    synthesize_switching_logic(sys, transmission_config());
    fig10_result trace = run_fig10_trace(sys, params);
    EXPECT_TRUE(trace.safety_held);
    EXPECT_TRUE(trace.reached_goal);
    // The gear sequence of Fig. 10.
    std::vector<std::string> want{"N", "G1U", "G2U", "G3U", "G3D", "G2D", "G1D", "N"};
    EXPECT_EQ(trace.mode_sequence, want);
    // Efficiency >= 0.5 whenever speed >= 5 (the synthesized guarantee).
    for (const auto& s : trace.samples) {
        if (s.mode != 0 && s.omega >= 5.0) { EXPECT_GE(s.eta, 0.5) << "t=" << s.t; }
    }
    // Speed envelope respected and actually exercised.
    double peak = 0;
    for (const auto& s : trace.samples) peak = std::max(peak, s.omega);
    EXPECT_LE(peak, 60.0);
    EXPECT_GT(peak, 30.0);
}

TEST(transmission, fig10_dwell_trace_respects_dwell) {
    transmission_params params;
    mds sys = build_transmission(params);
    synthesize_switching_logic(sys, transmission_config(5.0));
    fig10_result trace = run_fig10_trace(sys, params, 5.0);
    EXPECT_TRUE(trace.safety_held);
    EXPECT_GE(trace.min_mode_dwell, 5.0);  // paper: at least 5 s per gear mode
    for (const auto& s : trace.samples) {
        if (s.mode != 0 && s.omega >= 5.0) { EXPECT_GE(s.eta, 0.5); }
    }
}

TEST(transmission, synthesis_reports_conditional_soundness) {
    mds sys = build_transmission();
    auto result = synthesize_switching_logic(sys, transmission_config());
    EXPECT_EQ(result.report.guarantee, core::guarantee_kind::sound_and_complete);
    EXPECT_NE(result.report.hypothesis.name.find("hyperbox"), std::string::npos);
    EXPECT_GT(result.simulator_queries, 0u);
}

}  // namespace
}  // namespace sciduction::hybrid
