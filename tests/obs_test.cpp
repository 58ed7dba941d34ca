// Telemetry subsystem: the metrics registry (counters, gauges, log-scale
// histograms, snapshot keys), the span trace collector (bounded sharded
// buffer, Chrome JSON export, well-formedness), the solver progress hook,
// engine-level span coverage, and the determinism contract — deterministic
// portfolio and shard disciplines must stay bit-identical with tracing on.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "engine_test_util.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sat/pigeonhole.hpp"
#include "sat/solver.hpp"
#include "substrate/engine.hpp"
#include "substrate/portfolio.hpp"
#include "substrate/shard.hpp"

namespace sciduction {
namespace {

using sat::encode_pigeonhole;

// ---- metrics registry -------------------------------------------------------

TEST(metrics, counter_and_gauge_roundtrip) {
    obs::metrics_registry reg;
    obs::counter& c = reg.get_counter("server.submits");
    c.add();
    c.add(4);
    EXPECT_EQ(c.load(), 5u);
    obs::gauge& g = reg.get_gauge("server.inflight");
    g.set(17);
    g.set(3);
    EXPECT_EQ(g.load(), 3u);
    // get-or-create returns the same instrument, not a fresh one.
    EXPECT_EQ(&reg.get_counter("server.submits"), &c);
    EXPECT_EQ(reg.get_counter("server.submits").load(), 5u);
}

TEST(metrics, histogram_buckets_are_log_scale_upper_bounds) {
    obs::metrics_registry reg;
    obs::histogram& h = reg.get_histogram("lat");
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.quantile(0.5), 0u);  // empty
    for (int i = 0; i < 98; ++i) h.observe(3);  // bucket bit_width(3)=2, bound 3
    h.observe(900);   // bucket bit_width(900)=10, bound 1023
    h.observe(5000);  // bucket bit_width(5000)=13, bound 8191
    EXPECT_EQ(h.count(), 100u);
    EXPECT_EQ(h.quantile(0.5), 3u);
    EXPECT_EQ(h.quantile(0.99), 1023u);
    EXPECT_EQ(h.quantile(1.0), 8191u);
    // A zero observation lands in its own bucket with bound 0.
    obs::histogram& z = reg.get_histogram("zeros");
    z.observe(0);
    EXPECT_EQ(z.quantile(0.5), 0u);
    EXPECT_EQ(z.count(), 1u);
}

TEST(metrics, snapshot_flattens_counters_gauges_and_percentile_keys) {
    obs::metrics_registry reg;
    reg.get_counter("server.results").add(7);
    reg.get_gauge("pool.threads").set(4);
    obs::histogram& h = reg.get_histogram("server.service_ms");
    h.observe(10);
    h.observe(100);
    const std::map<std::string, std::uint64_t> snap = reg.snapshot();
    EXPECT_EQ(snap.at("server.results"), 7u);
    EXPECT_EQ(snap.at("pool.threads"), 4u);
    EXPECT_EQ(snap.at("server.service_ms.count"), 2u);
    EXPECT_TRUE(snap.count("server.service_ms.p50"));
    EXPECT_TRUE(snap.count("server.service_ms.p90"));
    EXPECT_TRUE(snap.count("server.service_ms.p99"));
    EXPECT_GE(snap.at("server.service_ms.p99"), snap.at("server.service_ms.p50"));
}

// ---- trace collector --------------------------------------------------------

TEST(trace, spans_record_sorted_balanced_events) {
    obs::trace_collector tc;
    const std::uint32_t track = tc.register_track("tenant:t0");
    EXPECT_EQ(tc.register_track("tenant:t0"), track) << "track registration dedups by name";
    {
        obs::span outer(&tc, track, "request");
        outer.arg("request", 42);
        {
            obs::span inner(&tc, track, "solve");
            inner.arg("conflicts", 7);
        }
    }
    const std::vector<obs::trace_event> events = tc.events();
    ASSERT_EQ(events.size(), 2u);
    // Sorted by (start asc, dur desc): the enclosing span precedes its child,
    // and every span is balanced (it closed, so start+dur <= now).
    EXPECT_EQ(events[0].name, "request");
    EXPECT_EQ(events[1].name, "solve");
    for (const obs::trace_event& e : events) {
        EXPECT_LE(e.start_us, e.start_us + e.dur_us);
        EXPECT_LE(e.start_us + e.dur_us, tc.now_us());
        EXPECT_EQ(e.track, track);
    }
    EXPECT_EQ(events[0].args.front().second, 42u);
    EXPECT_EQ(tc.dropped(), 0u);
}

TEST(trace, null_collector_span_is_inert) {
    obs::span s(nullptr, 0, "ghost");
    s.arg("k", 1);
    s.end();  // no crash, nothing recorded anywhere
    obs::span moved = std::move(s);
    moved.end();
}

TEST(trace, bounded_capacity_counts_drops_instead_of_growing) {
    obs::trace_collector tc(8);  // 1 slot per shard
    const std::uint32_t track = tc.register_track("t");
    for (int i = 0; i < 64; ++i) {
        const std::string name = std::string("e").append(std::to_string(i));
        tc.record({name, track, static_cast<std::uint64_t>(i), 1, {}});
    }
    EXPECT_LE(tc.events().size(), 8u);
    EXPECT_GE(tc.dropped(), 56u);
}

TEST(trace, json_export_is_chrome_trace_shaped) {
    obs::trace_collector tc;
    const std::uint32_t track = tc.register_track("tenant:alice");
    tc.record({"solve", track, 10, 5, {{"query", 1}}});
    const std::string json = tc.to_json();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << "complete events";
    EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos) << "track metadata";
    EXPECT_NE(json.find("tenant:alice"), std::string::npos);
    EXPECT_NE(json.find("\"query\":1"), std::string::npos);
    // Balanced braces/brackets — the cheap well-formedness invariant the
    // CI step re-checks with a real JSON parser.
    long depth = 0;
    for (char ch : json) {
        if (ch == '{' || ch == '[') ++depth;
        if (ch == '}' || ch == ']') --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

// ---- solver progress hook ---------------------------------------------------

TEST(solver_progress, hook_samples_restart_boundaries_and_reaches_final_counts) {
    sat::solver plain;
    encode_pigeonhole(plain, 6);
    ASSERT_EQ(plain.solve(), sat::solve_result::unsat);

    sat::solver hooked;
    encode_pigeonhole(hooked, 6);
    std::uint64_t calls = 0;
    std::uint64_t last_conflicts = 0;
    bool monotone = true;
    hooked.set_progress([&](const sat::solver_stats& s) {
        ++calls;
        if (s.conflicts < last_conflicts) monotone = false;
        last_conflicts = s.conflicts;
    });
    ASSERT_EQ(hooked.solve(), sat::solve_result::unsat);
    EXPECT_GE(calls, 2u) << "fires after initial import pull and after search returns";
    EXPECT_TRUE(monotone);
    EXPECT_EQ(last_conflicts, hooked.stats().conflicts)
        << "the last sample carries the final conflict count";
    // Observation-only contract: the hook must not perturb the search.
    EXPECT_EQ(hooked.stats(), plain.stats());
}

// ---- engine-level tracing ---------------------------------------------------

TEST(engine_trace, request_life_appears_as_spans_on_the_engine_track) {
    smt::term_manager tm;
    substrate::engine_config cfg;
    cfg.threads = 2;
    cfg.trace = std::make_shared<obs::trace_collector>();
    cfg.trace_track_name = "tenant:test";
    substrate::smt_engine engine(tm, cfg);

    smt::term x = tm.mk_bv_var("x", 8);
    const substrate::backend_result r =
        substrate::solve_single(engine, {tm.mk_eq(x, tm.mk_bv_const(8, 5))});
    EXPECT_EQ(r.ans, substrate::answer::sat);

    std::vector<std::string> names;
    for (const obs::trace_event& e : cfg.trace->events()) names.push_back(e.name);
    auto has = [&](const std::string& n) {
        return std::find(names.begin(), names.end(), n) != names.end();
    };
    EXPECT_TRUE(has("submit"));
    EXPECT_TRUE(has("cache_lookup"));
    EXPECT_TRUE(has("solve"));
    const std::vector<std::string> tracks = cfg.trace->track_names();
    ASSERT_EQ(tracks.size(), 2u);  // "main" + the engine's tenant track
    EXPECT_EQ(tracks[1], "tenant:test");
}

// ---- determinism contract ---------------------------------------------------

std::unique_ptr<substrate::sat_backend> php_member(unsigned member, int holes) {
    auto b = std::make_unique<substrate::sat_backend>(substrate::diversified_options(member));
    encode_pigeonhole(b->solver(), holes);
    return b;
}

TEST(trace_determinism, deterministic_portfolio_is_bit_identical_with_tracing_on) {
    auto run = [](unsigned threads, obs::trace_collector* tc) {
        substrate::portfolio_config cfg;
        cfg.members = 4;
        cfg.slice_conflicts = 300;
        substrate::solve_controls controls;
        controls.trace = tc;
        if (tc != nullptr) controls.trace_track = tc->register_track("t");
        substrate::thread_pool pool(threads);
        return substrate::race([&](unsigned m) { return php_member(m, 7); }, cfg, &pool, controls);
    };
    const substrate::portfolio_outcome plain = run(1, nullptr);
    for (unsigned threads : {1u, 4u}) {
        obs::trace_collector tc;
        const substrate::portfolio_outcome traced = run(threads, &tc);
        EXPECT_EQ(traced.result.ans, substrate::answer::unsat);
        EXPECT_EQ(traced.winner, plain.winner);
        EXPECT_EQ(traced.rounds, plain.rounds);
        EXPECT_EQ(traced.total_conflicts, plain.total_conflicts);
        EXPECT_FALSE(tc.events().empty()) << "tracing must actually record member spans";
    }
}

TEST(trace_determinism, deterministic_shard_is_bit_identical_with_tracing_on) {
    sat::solver probe;
    encode_pigeonhole(probe, 7);
    const substrate::cube_plan plan =
        substrate::generate_cubes(probe, {.depth = 2, .probe_candidates = 8});
    auto run = [&](unsigned threads, obs::trace_collector* tc) {
        substrate::solve_controls controls;
        controls.trace = tc;
        if (tc != nullptr) controls.trace_track = tc->register_track("t");
        substrate::thread_pool pool(threads);
        return substrate::solve_cubes(
            [](std::size_t) {
                auto b = std::make_unique<substrate::sat_backend>();
                encode_pigeonhole(b->solver(), 7);
                return std::unique_ptr<substrate::solver_backend>(std::move(b));
            },
            plan, pool, /*slice_conflicts=*/300, controls);
    };
    const substrate::shard_outcome plain = run(1, nullptr);
    for (unsigned threads : {1u, 4u}) {
        obs::trace_collector tc;
        const substrate::shard_outcome traced = run(threads, &tc);
        EXPECT_EQ(traced.result.ans, substrate::answer::unsat);
        EXPECT_EQ(traced.stats, plain.stats);
        EXPECT_EQ(traced.cube_fates, plain.cube_fates);
        EXPECT_FALSE(tc.events().empty()) << "tracing must actually record pair/round spans";
    }
}

}  // namespace
}  // namespace sciduction
