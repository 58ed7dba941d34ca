// The solve_request/query_handle API: strategy resolution precedence, the
// auto_select classifier, solve-vs-submit equivalence, request validation,
// the solve_status error model, cancellation, coalescing, budgets, and the
// CNF-level solve_cnf dispatcher.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "engine_test_util.hpp"
#include "sat/pigeonhole.hpp"
#include "substrate/engine.hpp"
#include "substrate/solve_request.hpp"

namespace sciduction::substrate {
namespace {

using sat::encode_pigeonhole;

// ---- strategy resolution ----------------------------------------------------

TEST(strategy_resolution, unset_fields_take_the_library_defaults) {
    resolved_strategy r = strategy::portfolio().resolve();
    EXPECT_EQ(r.kind, strategy_kind::portfolio);
    EXPECT_EQ(r.members, 4u);
    EXPECT_EQ(r.depth, 3u);
    EXPECT_EQ(r.probe_candidates, 16u);
    EXPECT_EQ(r.slice_conflicts, 0u);
    EXPECT_TRUE(r.use_cache);
    EXPECT_EQ(strategy::shard().resolve().kind, strategy_kind::shard);
}

TEST(strategy_resolution, per_request_fields_override_defaults) {
    strategy s = strategy::portfolio(8);
    s.use_cache = false;
    s.conflict_budget = 123;
    s.slice_conflicts = 456;
    resolved_strategy r = s.resolve();
    EXPECT_EQ(r.members, 8u);
    EXPECT_FALSE(r.use_cache);
    EXPECT_EQ(r.conflict_budget, 123u);
    EXPECT_EQ(r.slice_conflicts, 456u);
}

TEST(strategy_resolution, degenerate_combinations_normalize_to_single) {
    // A shard of explicit depth 0 has no split variables: a single solve.
    strategy flat = strategy::shard();
    flat.depth = 0;
    EXPECT_EQ(flat.resolve().kind, strategy_kind::single);
    // A 1-member portfolio is a single solve.
    EXPECT_EQ(strategy::portfolio(1).resolve().kind, strategy_kind::single);
    // Explicit depth keeps the shard kind.
    EXPECT_EQ(strategy::shard(2).resolve().kind, strategy_kind::shard);
    // automatic keeps its kind (classify picks later).
    EXPECT_EQ(strategy{}.resolve().kind, strategy_kind::automatic);
}

// ---- the auto_select classifier --------------------------------------------

TEST(auto_select, tiny_query_stays_single) {
    query_features f;
    f.variables = 40;
    f.clauses = 120;
    f.threads = 8;
    EXPECT_EQ(strategy::auto_select(f).kind, strategy_kind::single);
}

TEST(auto_select, assumption_carrying_query_stays_single) {
    query_features f;
    f.variables = 5000;
    f.clauses = 15000;
    f.assumptions = 3;
    f.threads = 8;
    EXPECT_EQ(strategy::auto_select(f).kind, strategy_kind::single);
}

TEST(auto_select, medium_query_races_a_portfolio_single_on_one_thread) {
    query_features f;
    f.variables = 5000;
    f.clauses = 15000;
    f.threads = 2;
    EXPECT_EQ(strategy::auto_select(f).kind, strategy_kind::portfolio);
    f.threads = 1;
    EXPECT_EQ(strategy::auto_select(f).kind, strategy_kind::single);
}

TEST(auto_select, large_query_shards_with_depth_log2_threads) {
    query_features f;
    f.variables = 80000;
    f.clauses = 250000;
    f.threads = 4;
    strategy s = strategy::auto_select(f);
    EXPECT_EQ(s.kind, strategy_kind::shard);
    EXPECT_EQ(s.depth.value_or(0), 2u);
}

TEST(auto_select, deterministic_for_equal_features) {
    query_features f;
    f.variables = 5000;
    f.clauses = 15000;
    f.threads = 2;
    for (int i = 0; i < 5; ++i) {
        strategy a = strategy::auto_select(f);
        strategy b = strategy::auto_select(f);
        EXPECT_EQ(a.kind, b.kind);
        EXPECT_EQ(a.depth.value_or(0), b.depth.value_or(0));
    }
}

// ---- solve-vs-submit equivalence --------------------------------------------

smt::term unsat_commut(smt::term_manager& tm) {
    smt::term x = tm.mk_bv_var("x", 16);
    smt::term y = tm.mk_bv_var("y", 16);
    return tm.mk_distinct(tm.mk_bvadd(x, y),
                          tm.mk_bvsub(tm.mk_bvadd(tm.mk_bvadd(y, x), y), y));
}

void expect_same_counters(const engine_stats& a, const engine_stats& b) {
    EXPECT_EQ(a.queries, b.queries);
    EXPECT_EQ(a.cache_hits, b.cache_hits);
    EXPECT_EQ(a.solver_runs, b.solver_runs);
    EXPECT_EQ(a.coalesced, b.coalesced);
    EXPECT_EQ(a.dispatched.total(), b.dispatched.total());
}

TEST(api_v2, solve_equals_submit_single_strategy) {
    smt::term_manager tm;
    smt::term x = tm.mk_bv_var("x", 16);
    smt::term sat_q = tm.mk_and(tm.mk_ult(tm.mk_bv_const(16, 10), x),
                                tm.mk_ult(x, tm.mk_bv_const(16, 100)));
    smt_engine via_solve(tm);
    smt_engine via_submit(tm);
    backend_result a = via_solve.solve({{sat_q}, {}, strategy::single()});
    backend_result b = via_submit.submit({{sat_q}, {}, strategy::single()}).get();
    ASSERT_TRUE(a.is_sat());
    ASSERT_TRUE(b.is_sat());
    EXPECT_EQ(a.status, solve_status::ok);
    // Single-member solves are fully deterministic: identical model values
    // and identical cost whether run inline (solve) or on the pool (submit).
    EXPECT_EQ(eval_model(tm, x, a.model), eval_model(tm, x, b.model));
    EXPECT_EQ(a.conflicts, b.conflicts);
    expect_same_counters(via_solve.stats(), via_submit.stats());
    // Re-solving is a cache hit on both paths.
    EXPECT_TRUE(via_solve.solve({{sat_q}, {}, strategy::single()}).is_sat());
    EXPECT_TRUE(via_submit.submit({{sat_q}, {}, strategy::single()}).get().is_sat());
    expect_same_counters(via_solve.stats(), via_submit.stats());
}

TEST(api_v2, solve_equals_submit_shard_strategy) {
    smt::term_manager tm_a;
    smt::term_manager tm_b;
    smt_engine via_solve(tm_a, {.threads = 2});
    smt_engine via_submit(tm_b, {.threads = 2});
    shard_stats inline_stats;
    backend_result a = solve_sharded(via_solve, {unsat_commut(tm_a)}, 2, &inline_stats);
    query_handle handle = via_submit.submit({{unsat_commut(tm_b)}, {}, strategy::shard(2)});
    backend_result b = handle.get();
    EXPECT_EQ(a.ans, answer::unsat);
    EXPECT_EQ(b.ans, answer::unsat);
    // All-UNSAT shard work is deterministic: identical breakdown and cost.
    EXPECT_EQ(inline_stats, handle.stats().shard);
    EXPECT_GT(inline_stats.cubes, 0u);
    EXPECT_EQ(a.conflicts, b.conflicts);
    expect_same_counters(via_solve.stats(), via_submit.stats());
}

TEST(api_v2, batch_of_singles_equals_submit_many_await_all) {
    smt::term_manager tm;
    smt::term x = tm.mk_bv_var("x", 16);
    std::vector<solve_request> queries;
    for (std::uint64_t i = 0; i < 8; ++i)
        queries.push_back({{tm.mk_eq(x, tm.mk_bv_const(16, i))}, {}, strategy::single()});
    smt_engine via_batch(tm, {.threads = 2});
    smt_engine via_submit(tm, {.threads = 2});
    auto batched = solve_batch(via_batch, queries);
    std::vector<query_handle> handles;
    for (const auto& q : queries) handles.push_back(via_submit.submit(q));
    ASSERT_EQ(batched.size(), handles.size());
    for (std::size_t i = 0; i < handles.size(); ++i) {
        backend_result direct = handles[i].get();
        EXPECT_EQ(batched[i].ans, direct.ans) << i;
        EXPECT_EQ(eval_model(tm, x, batched[i].model), eval_model(tm, x, direct.model)) << i;
    }
    expect_same_counters(via_batch.stats(), via_submit.stats());
}

TEST(api_v2, awaited_handle_resolves_and_populates_the_cache) {
    smt::term_manager tm;
    smt_engine engine(tm, {.threads = 2});
    query_handle first = submit_single(engine, {unsat_commut(tm)});
    EXPECT_EQ(first.get().ans, answer::unsat);
    // The same query again: a cache hit resolving immediately.
    query_handle handle = submit_single(engine, {unsat_commut(tm)});
    EXPECT_TRUE(handle.ready());
    EXPECT_EQ(handle.get().ans, answer::unsat);
    EXPECT_TRUE(handle.stats().cache_hit);
}

// ---- config precedence ------------------------------------------------------

TEST(config_precedence, per_request_cache_bypass_overrides_engine_default) {
    smt::term_manager tm;
    smt::term x = tm.mk_bv_var("x", 8);
    smt::term q = tm.mk_ult(x, tm.mk_bv_const(8, 5));
    smt_engine engine(tm);  // cache on by default
    strategy bypass = strategy::single();
    bypass.use_cache = false;
    EXPECT_TRUE(engine.submit({{q}, {}, bypass}).get().is_sat());
    EXPECT_TRUE(engine.submit({{q}, {}, bypass}).get().is_sat());
    // Neither populated nor consulted the cache: two real solves.
    EXPECT_EQ(engine.stats().cache_hits, 0u);
    EXPECT_EQ(engine.stats().solver_runs, 2u);
    EXPECT_EQ(engine.cache().size(), 0u);
    // A cached request now solves once more and later hits.
    EXPECT_TRUE(engine.submit({{q}, {}, strategy::single()}).get().is_sat());
    EXPECT_TRUE(engine.submit({{q}, {}, strategy::single()}).get().is_sat());
    EXPECT_EQ(engine.stats().cache_hits, 1u);
    EXPECT_EQ(engine.stats().solver_runs, 3u);
}

TEST(config_precedence, unset_counts_take_the_same_defaults_in_engine_and_solve_cnf) {
    // The engine half: on a default engine, portfolio() races 4 members
    // and shard() splits at depth 3 (2^3 cubes).
    smt::term_manager tm;
    smt_engine engine(tm, {.use_cache = false, .threads = 2});
    query_handle raced = engine.submit({{unsat_commut(tm)}, {}, strategy::portfolio()});
    EXPECT_EQ(raced.get().ans, answer::unsat);
    EXPECT_EQ(raced.stats().strategy.kind, strategy_kind::portfolio);
    EXPECT_EQ(raced.stats().strategy.members, 4u);
    EXPECT_EQ(engine.stats().solver_runs, 4u);
    query_handle split = engine.submit({{unsat_commut(tm)}, {}, strategy::shard()});
    EXPECT_EQ(split.get().ans, answer::unsat);
    EXPECT_EQ(split.stats().strategy.kind, strategy_kind::shard);
    EXPECT_EQ(split.stats().strategy.depth, 3u);
    EXPECT_GT(split.stats().shard.cubes, 0u);
    EXPECT_EQ(engine.stats().dispatched.portfolio, 1u);
    EXPECT_EQ(engine.stats().dispatched.shard, 1u);
    // The CNF half reports the same kinds for the same unset requests.
    auto build = [](unsigned, sat::solver& s) { encode_pigeonhole(s, 5); };
    EXPECT_EQ(solve_cnf(build, strategy::portfolio(), 2).executed, strategy_kind::portfolio);
    EXPECT_EQ(solve_cnf(build, strategy::shard(), 2).executed, strategy_kind::shard);
}

// ---- the automatic strategy end-to-end --------------------------------------

TEST(auto_strategy, tiny_query_dispatches_single_and_counts_the_pick) {
    smt::term_manager tm;
    smt::term x = tm.mk_bv_var("x", 8);
    smt::term q = tm.mk_ult(x, tm.mk_bv_const(8, 5));
    smt_engine engine(tm);
    query_handle handle = engine.submit({{q}, {}, strategy{}});
    EXPECT_TRUE(handle.get().is_sat());
    request_stats rstats = handle.stats();
    EXPECT_TRUE(rstats.auto_selected);
    EXPECT_EQ(rstats.strategy.kind, strategy_kind::single);
    EXPECT_EQ(engine.stats().auto_picks.single, 1u);
    EXPECT_EQ(engine.stats().auto_picks.total(), 1u);
    EXPECT_EQ(engine.stats().dispatched.single, 1u);
    // The cache short-circuits the classifier on the re-submit.
    EXPECT_TRUE(engine.submit({{q}, {}, strategy{}}).get().is_sat());
    EXPECT_EQ(engine.stats().auto_picks.total(), 1u);
    EXPECT_EQ(engine.stats().cache_hits, 1u);
}

TEST(auto_strategy, explicit_fields_survive_the_classifier) {
    smt::term_manager tm;
    smt::term x = tm.mk_bv_var("x", 8);
    smt::term q = tm.mk_ult(x, tm.mk_bv_const(8, 9));
    smt_engine engine(tm);
    strategy s;  // automatic…
    s.conflict_budget = 77;
    s.slice_conflicts = 500;
    s.use_cache = false;
    query_handle handle = engine.submit({{q}, {}, s});
    EXPECT_TRUE(handle.get().is_sat());
    request_stats rstats = handle.stats();
    EXPECT_TRUE(rstats.auto_selected);
    EXPECT_EQ(rstats.strategy.conflict_budget, 77u);
    EXPECT_EQ(rstats.strategy.slice_conflicts, 500u);
    EXPECT_FALSE(rstats.strategy.use_cache);
    EXPECT_EQ(engine.cache().size(), 0u);
}

// ---- shard progress ----------------------------------------------------------

TEST(shard_progress, decides_and_reports_settled_cubes) {
    smt::term_manager tm;
    smt_engine engine(tm, {.use_cache = false, .threads = 2});
    query_handle handle = engine.submit({{unsat_commut(tm)}, {}, strategy::shard(2)});
    EXPECT_EQ(handle.get().ans, answer::unsat);
    request_stats rstats = handle.stats();
    EXPECT_EQ(rstats.strategy.kind, strategy_kind::shard);
    EXPECT_GT(rstats.shard.cubes, 0u);
    EXPECT_EQ(engine.stats().dispatched.shard, 1u);
    // Progress settled every cube.
    query_progress progress = handle.progress();
    EXPECT_TRUE(progress.started);
    EXPECT_TRUE(progress.finished);
    EXPECT_EQ(progress.cubes_total, rstats.shard.cubes);
    EXPECT_EQ(progress.cubes_done, progress.cubes_total);
}

// ---- coalescing under the new API -------------------------------------------

TEST(coalescing, duplicate_submits_share_one_solve) {
    smt::term_manager tm;
    smt::term x = tm.mk_bv_var("x", 6);
    smt::term y = tm.mk_bv_var("y", 6);
    smt::term hard = tm.mk_distinct(tm.mk_bvmul(x, tm.mk_bvadd(y, y)),
                                    tm.mk_bvadd(tm.mk_bvmul(x, y), tm.mk_bvmul(x, y)));
    smt_engine engine(tm, {.threads = 2});
    query_handle h1 = engine.submit({{hard}, {}, strategy::single()});
    query_handle h2 = engine.submit({{hard}, {}, strategy::single()});
    query_handle h3 = engine.submit({{hard}, {}, strategy::single()});
    EXPECT_EQ(h1.get().ans, answer::unsat);
    EXPECT_EQ(h2.get().ans, answer::unsat);
    EXPECT_EQ(h3.get().ans, answer::unsat);
    auto stats = engine.stats();
    EXPECT_EQ(stats.solver_runs, 1u);
    EXPECT_EQ(stats.coalesced + stats.cache_hits, 2u);
    EXPECT_EQ(stats.queries, 3u);
}

// ---- cancellation and budgets -----------------------------------------------

/// A genuinely hard UNSAT query (three width-`w` multipliers) that cannot
/// finish within the test's cancellation window.
smt::term hard_distributivity(smt::term_manager& tm, unsigned w) {
    smt::term x = tm.mk_bv_var("hx", w);
    smt::term y = tm.mk_bv_var("hy", w);
    smt::term z = tm.mk_bv_var("hz", w);
    return tm.mk_distinct(tm.mk_bvmul(x, tm.mk_bvadd(y, z)),
                          tm.mk_bvadd(tm.mk_bvmul(x, y), tm.mk_bvmul(x, z)));
}

void wait_until_started(const query_handle& handle) {
    while (!handle.progress().started) std::this_thread::yield();
}

TEST(cancellation, portfolio_cancel_mid_solve_yields_unknown) {
    smt::term_manager tm;
    smt_engine engine(tm, {.use_cache = false, .threads = 2});
    query_handle handle =
        engine.submit({{hard_distributivity(tm, 8)}, {}, strategy::portfolio(2)});
    wait_until_started(handle);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    handle.cancel();
    backend_result r = handle.get();
    EXPECT_EQ(r.ans, answer::unknown);
    EXPECT_EQ(r.status, solve_status::cancelled);
    EXPECT_TRUE(handle.progress().cancel_requested);
}

TEST(cancellation, shard_cancel_mid_solve_yields_unknown) {
    smt::term_manager tm;
    smt_engine engine(tm, {.use_cache = false, .threads = 2});
    query_handle handle =
        engine.submit({{hard_distributivity(tm, 8)}, {}, strategy::shard(2)});
    wait_until_started(handle);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    handle.cancel();
    EXPECT_EQ(handle.get().ans, answer::unknown);
    // Cancelled solves are never cached: a fresh submit would re-solve.
    EXPECT_EQ(engine.cache().size(), 0u);
}

TEST(cancellation, conflict_budget_yields_unknown_then_full_solve_decides) {
    smt::term_manager tm;
    smt::term hard = hard_distributivity(tm, 6);
    strategy budgeted = strategy::single();
    budgeted.conflict_budget = 10;
    budgeted.use_cache = false;
    smt_engine engine(tm);
    backend_result capped = engine.submit({{hard}, {}, budgeted}).get();
    EXPECT_EQ(capped.ans, answer::unknown);
    EXPECT_EQ(capped.status, solve_status::over_budget);
    EXPECT_EQ(engine.submit({{hard}, {}, strategy::single()}).get().ans, answer::unsat);
}

TEST(cancellation, coalesced_duplicate_keeps_its_own_time_budget) {
    smt::term_manager tm;
    smt_engine engine(tm, {.use_cache = false, .threads = 2});
    smt::term hard = hard_distributivity(tm, 8);
    query_handle first = engine.submit({{hard}, {}, strategy::single()});
    strategy timed = strategy::single();
    timed.time_budget_ms = 30;
    query_handle second = engine.submit({{hard}, {}, timed});
    ASSERT_TRUE(second.stats().coalesced);
    // The duplicate shares the solve but not the (absent) first budget:
    // its get() cancels the shared solve after 30ms. The status model keeps
    // the two perspectives apart: the expiring handle reports timeout, the
    // innocent bystander sees the solve it shared get cancelled.
    backend_result expired = second.get();
    EXPECT_EQ(expired.ans, answer::unknown);
    EXPECT_EQ(expired.status, solve_status::timeout);
    backend_result bystander = first.get();
    EXPECT_EQ(bystander.ans, answer::unknown);
    EXPECT_EQ(bystander.status, solve_status::cancelled);
}

TEST(cancellation, time_budget_enforced_at_get) {
    smt::term_manager tm;
    smt_engine engine(tm, {.use_cache = false, .threads = 2});
    strategy timed = strategy::single();
    timed.time_budget_ms = 30;
    const auto before = std::chrono::steady_clock::now();
    query_handle handle = engine.submit({{hard_distributivity(tm, 8)}, {}, timed});
    backend_result timed_out = handle.get();
    EXPECT_EQ(timed_out.ans, answer::unknown);
    EXPECT_EQ(timed_out.status, solve_status::timeout);
    // Generous bound: the point is that get() returned promptly instead of
    // waiting out the (minutes-long) full refutation.
    EXPECT_LT(std::chrono::steady_clock::now() - before, std::chrono::seconds(30));
}

// ---- request validation and the status model --------------------------------

TEST(validation, rejected_strategy_shapes_name_the_offending_field) {
    strategy zero_members = strategy::portfolio();
    zero_members.members = 0;
    EXPECT_NE(zero_members.validate().find("members"), std::string::npos);

    EXPECT_NE(strategy::shard(13).validate().find("depth"), std::string::npos);

    strategy no_probes = strategy::shard(2);
    no_probes.probe_candidates = 0;
    EXPECT_NE(no_probes.validate().find("probe_candidates"), std::string::npos);

    EXPECT_TRUE(strategy::portfolio(4).validate().empty());
    EXPECT_TRUE(strategy::shard(12).validate().empty());
}

TEST(validation, malformed_request_reported_through_status_not_thrown) {
    smt::term_manager tm;
    smt_engine engine(tm);
    solve_request bad;
    bad.assertions = {smt::term{}};  // default-constructed = invalid
    EXPECT_NE(bad.validate().find("assertion"), std::string::npos);
    query_handle handle = engine.submit(std::move(bad));
    // Resolves immediately: nothing was dispatched.
    EXPECT_TRUE(handle.ready());
    backend_result r = handle.get();
    EXPECT_EQ(r.ans, answer::unknown);
    EXPECT_EQ(r.status, solve_status::malformed);
    EXPECT_FALSE(r.status_detail.empty());
    EXPECT_EQ(handle.stats().status, solve_status::malformed);
    EXPECT_EQ(engine.stats().solver_runs, 0u);

    solve_request bad_strategy;
    bad_strategy.assertions = {tm.mk_bv_var("x", 4)};
    bad_strategy.strategy.members = 0;
    backend_result s = engine.solve(std::move(bad_strategy));
    EXPECT_EQ(s.status, solve_status::malformed);
    EXPECT_NE(s.status_detail.find("members"), std::string::npos);
}

TEST(validation, engine_config_programming_errors_throw) {
    smt::term_manager tm;
    // Thrown by the constructor, before the (lazily created) pool exists.
    EXPECT_THROW(smt_engine(tm, {.threads = max_threads + 1}), std::invalid_argument);
}

TEST(status_model, definite_answers_and_cache_hits_report_ok) {
    smt::term_manager tm;
    smt::term x = tm.mk_bv_var("x", 8);
    smt::term q = tm.mk_ult(x, tm.mk_bv_const(8, 5));
    smt_engine engine(tm);
    backend_result solved = engine.solve({{q}, {}, strategy::single()});
    EXPECT_TRUE(solved.is_sat());
    EXPECT_EQ(solved.status, solve_status::ok);
    backend_result hit = engine.solve({{q}, {}, strategy::single()});
    EXPECT_EQ(hit.status, solve_status::ok);
    EXPECT_EQ(engine.stats().cache_hits, 1u);
    EXPECT_EQ(to_string(solve_status::ok), std::string("ok"));
    EXPECT_EQ(to_string(solve_status::over_budget), std::string("over_budget"));
}

// ---- the CNF-level dispatcher -----------------------------------------------

TEST(solve_cnf, all_strategies_refute_pigeonhole) {
    auto build = [](unsigned, sat::solver& s) { encode_pigeonhole(s, 6); };
    for (strategy s : {strategy::single(), strategy::portfolio(3), strategy::shard(2)}) {
        cnf_outcome out = solve_cnf(build, s, 2);
        EXPECT_EQ(out.result.ans, answer::unsat) << to_string(s.kind);
        EXPECT_EQ(out.executed, s.kind);
        EXPECT_GT(out.total_conflicts, 0u) << to_string(s.kind);
    }
}

TEST(solve_cnf, thread_count_above_the_bound_is_malformed) {
    // Rejected before anything is built or any thread starts.
    cnf_outcome out = solve_cnf([](unsigned, sat::solver& s) { encode_pigeonhole(s, 3); },
                                strategy::single(), 5000);
    EXPECT_EQ(out.result.ans, answer::unknown);
    EXPECT_EQ(out.result.status, solve_status::malformed);
    EXPECT_NE(out.result.status_detail.find("threads"), std::string::npos);
}

TEST(solve_cnf, shard_reports_cube_breakdown) {
    cnf_outcome out = solve_cnf([](unsigned, sat::solver& s) { encode_pigeonhole(s, 6); },
                                strategy::shard(2), 2);
    EXPECT_EQ(out.result.ans, answer::unsat);
    EXPECT_EQ(out.shard.cubes, 4u);
    EXPECT_EQ(out.shard.refuted + out.shard.pruned, out.shard.cubes);
}

TEST(solve_cnf, automatic_classifies_small_instance_as_single) {
    cnf_outcome out = solve_cnf(
        [](unsigned, sat::solver& s) {
            sat::var a = s.new_var();
            s.add_clause(sat::mk_lit(a));
        },
        strategy{}, 2);
    EXPECT_EQ(out.result.ans, answer::sat);
    EXPECT_EQ(out.executed, strategy_kind::single);
}

TEST(solve_cnf, external_cancel_aborts_portfolio_and_shard) {
    auto build = [](unsigned, sat::solver& s) { encode_pigeonhole(s, 10); };
    for (strategy s : {strategy::portfolio(2), strategy::shard(2)}) {
        std::atomic<bool> cancel{false};
        solve_controls controls;
        controls.cancel = &cancel;
        std::thread trigger([&cancel] {
            std::this_thread::sleep_for(std::chrono::milliseconds(30));
            cancel.store(true);
        });
        cnf_outcome out = solve_cnf(build, s, 2, controls);
        trigger.join();
        EXPECT_EQ(out.result.ans, answer::unknown) << to_string(s.kind);
    }
}

TEST(solve_cnf, automatic_preserves_explicit_request_fields) {
    strategy s;  // automatic…
    s.conflict_budget = 5;  // …with an explicit budget that must survive
    cnf_outcome out =
        solve_cnf([](unsigned, sat::solver& sol) { encode_pigeonhole(sol, 7); }, s, 2);
    EXPECT_EQ(out.result.ans, answer::unknown);
    // Bound generous enough for either classification: one instance at
    // ~budget conflicts, or 4 portfolio members at ~budget each.
    EXPECT_LE(out.total_conflicts, 24u);
}

TEST(solve_cnf, conflict_budget_bounds_the_work) {
    strategy s = strategy::single();
    s.conflict_budget = 5;
    cnf_outcome out =
        solve_cnf([](unsigned, sat::solver& sol) { encode_pigeonhole(sol, 7); }, s, 1);
    EXPECT_EQ(out.result.ans, answer::unknown);
    // The pause lands on the budget boundary, give or take the final
    // conflict in flight.
    EXPECT_LE(out.total_conflicts, 6u);
}

TEST(solve_cnf, member_index_reaches_the_builder) {
    std::vector<unsigned> seen(3, 999);
    strategy s = strategy::portfolio(3);
    cnf_outcome out = solve_cnf(
        [&](unsigned member, sat::solver& sol) {
            seen[member] = member;
            encode_pigeonhole(sol, 5);
        },
        s, 2);
    EXPECT_EQ(out.result.ans, answer::unsat);
    EXPECT_LT(out.winner, 3u);
    EXPECT_EQ(seen[out.winner], out.winner);
}

}  // namespace
}  // namespace sciduction::substrate
