#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <future>
#include <latch>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>

#include "gametime/gametime.hpp"
#include "invgen/invgen.hpp"
#include "ir/parser.hpp"
#include "ir/transform.hpp"
#include "ogis/benchmarks.hpp"
#include "sat/pigeonhole.hpp"
#include "engine_test_util.hpp"
#include "substrate/engine.hpp"
#include "substrate/oracle_cache.hpp"
#include "substrate/portfolio.hpp"
#include "substrate/query_cache.hpp"
#include "substrate/thread_pool.hpp"

namespace sciduction::substrate {
namespace {

// ---- thread pool ------------------------------------------------------------

TEST(thread_pool, parallel_for_covers_every_index) {
    thread_pool pool(4);
    std::vector<std::atomic<int>> hits(257);
    pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(thread_pool, parallel_for_propagates_exceptions) {
    thread_pool pool(2);
    EXPECT_THROW(pool.parallel_for(16,
                                   [](std::size_t i) {
                                       if (i == 7) throw std::runtime_error("boom");
                                   }),
                 std::runtime_error);
}

TEST(thread_pool, parallel_map_preserves_order) {
    auto out = parallel_map<std::size_t>(100, 4, [](std::size_t i) { return i * i; });
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(thread_pool, submit_returns_future) {
    thread_pool pool(2);
    auto f = pool.submit([] { return 41 + 1; });
    EXPECT_EQ(f.get(), 42);
}

// ---- completion callback ----------------------------------------------------

TEST(thread_pool_completion, callback_runs_after_the_future_is_ready) {
    std::latch stored(1);
    std::latch fired(1);
    std::future<int> fut;
    bool ready_inside = false;
    thread_pool pool(1, [&] {
        ready_inside = fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
        fired.count_down();
    });
    // The task holds off until `fut` is assigned, so the callback reads it
    // only after this thread is done with it.
    fut = pool.submit([&] {
        stored.wait();
        return 42;
    });
    stored.count_down();
    fired.wait();
    EXPECT_TRUE(ready_inside);
    EXPECT_EQ(fut.get(), 42);
}

TEST(thread_pool_completion, stolen_task_fires_on_the_stealing_thread_before_it_returns) {
    // One worker. parallel_for(2) queues one claim task; whichever
    // iteration the worker claims submits `stolen` and then blocks until
    // `stolen` has run. The caller's iteration waits until `stolen` is
    // queued, so the caller then finds its loop undrained and the worker
    // blocked: the only way on is to steal `stolen` through run_one().
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<int> fired{0};
    std::thread::id fired_on;
    thread_pool pool(1, [&] {
        fired_on = std::this_thread::get_id();
        fired.fetch_add(1);
    });
    std::latch queued(1);
    std::latch ran(1);
    std::future<void> stolen;
    pool.parallel_for(2, [&](std::size_t) {
        if (std::this_thread::get_id() == caller) {
            queued.wait();
            return;
        }
        stolen = pool.submit([&] { ran.count_down(); });
        queued.count_down();
        ran.wait();
    });
    // parallel_for returned, so the steal (and its callback) did too.
    EXPECT_EQ(fired.load(), 1);
    EXPECT_EQ(fired_on, caller);
    ASSERT_TRUE(stolen.valid());
    EXPECT_EQ(stolen.wait_for(std::chrono::seconds(0)), std::future_status::ready);
}

TEST(thread_pool_completion, fires_once_per_submit_and_never_for_claim_tasks) {
    std::atomic<std::size_t> fired{0};
    std::vector<std::future<void>> tasks;  // one per submit()/submit_in()
    {
        thread_pool pool(2, [&] { fired.fetch_add(1); });
        const thread_pool::lane_id lane = pool.create_lane(2);
        std::atomic<int> iterations{0};
        for (int i = 0; i < 3; ++i) tasks.push_back(pool.submit([] {}));
        for (int i = 0; i < 2; ++i) tasks.push_back(pool.submit_in(lane, [] {}));
        // A submitted task fanning out: its claim tasks (and any requeued
        // after a cooperative yield to the other lane) stay silent.
        tasks.push_back(pool.submit_in(lane, [&] {
            pool.parallel_for(64, [&](std::size_t) { iterations.fetch_add(1); });
        }));
        pool.parallel_for(64, [&](std::size_t) { iterations.fetch_add(1); });
        for (auto& t : tasks) t.get();
        EXPECT_EQ(iterations.load(), 128);
        pool.release_lane(lane);
    }  // joined: every callback that will ever run has run
    EXPECT_EQ(fired.load(), tasks.size());
}

TEST(thread_pool_completion, pool_without_callback_is_unchanged) {
    thread_pool pool(2, {});
    std::vector<std::atomic<int>> hits(33);
    auto f = pool.submit([&] {
        pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
        return 7;
    });
    pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
    EXPECT_EQ(f.get(), 7);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 2);
}

// ---- dispatch lanes ---------------------------------------------------------

TEST(thread_pool_lanes, weighted_round_robin_interleaves_lanes) {
    // One worker, gated so both lanes are fully queued before any task
    // runs: the drain order then exposes the scheduling policy directly.
    thread_pool pool(1);
    std::mutex gate_mutex;
    std::condition_variable gate_cv;
    bool gate_open = false;
    auto gate = pool.submit([&] {
        std::unique_lock<std::mutex> lock(gate_mutex);
        gate_cv.wait(lock, [&] { return gate_open; });
    });
    thread_pool::lane_id heavy = pool.create_lane(2);
    thread_pool::lane_id light = pool.create_lane(1);
    std::mutex order_mutex;
    std::vector<char> order;
    std::vector<std::future<void>> tasks;
    for (int i = 0; i < 4; ++i)
        tasks.push_back(pool.submit_in(heavy, [&] {
            std::scoped_lock lock(order_mutex);
            order.push_back('H');
        }));
    for (int i = 0; i < 4; ++i)
        tasks.push_back(pool.submit_in(light, [&] {
            std::scoped_lock lock(order_mutex);
            order.push_back('L');
        }));
    EXPECT_EQ(pool.pending_in(heavy), 4u);
    EXPECT_EQ(pool.pending_in(light), 4u);
    {
        std::scoped_lock lock(gate_mutex);
        gate_open = true;
    }
    gate_cv.notify_all();
    for (auto& t : tasks) t.get();
    gate.get();
    ASSERT_EQ(order.size(), 8u);
    // Weighted round-robin: whichever lane the cursor reaches first, the
    // other lane is served within `weight` pops — a FIFO pool would run
    // all four H before the first L.
    auto first = [&](char c) {
        return static_cast<std::size_t>(std::find(order.begin(), order.end(), c) -
                                        order.begin());
    };
    EXPECT_LE(first('H'), 2u);
    EXPECT_LE(first('L'), 2u);
    // And the weight bounds every H streak while L work is still queued.
    std::size_t streak = 0;
    for (std::size_t i = 0; i + 2 < order.size(); ++i) {
        streak = order[i] == 'H' ? streak + 1 : 0;
        EXPECT_LE(streak, 2u) << "at index " << i;
    }
    pool.release_lane(heavy);
    pool.release_lane(light);
}

TEST(thread_pool_lanes, released_lane_still_drains_and_later_submits_fall_back) {
    thread_pool pool(2);
    thread_pool::lane_id lane = pool.create_lane(3);
    auto queued = pool.submit_in(lane, [] { return 7; });
    pool.release_lane(lane);
    EXPECT_EQ(queued.get(), 7);
    // The id is retired: submits into it land in the default lane and run.
    EXPECT_EQ(pool.submit_in(lane, [] { return 8; }).get(), 8);
    EXPECT_EQ(pool.pending_in(lane), 0u);
}

TEST(thread_pool_lanes, nested_submits_inherit_the_submitters_lane) {
    // A lane task fans out via plain submit(); the children must land in
    // the parent's lane (pending_in observes them while the pool is gated
    // by the parent itself still running).
    thread_pool pool(1);
    thread_pool::lane_id lane = pool.create_lane(2);
    std::promise<std::size_t> seen_pending;
    auto parent = pool.submit_in(lane, [&] {
        auto child = pool.submit([] {});
        (void)child;
        seen_pending.set_value(pool.pending_in(lane));
    });
    EXPECT_EQ(seen_pending.get_future().get(), 1u)
        << "nested submit should queue into the inherited lane";
    parent.get();
    pool.release_lane(lane);
}

// ---- interrupt support ------------------------------------------------------

using sat::encode_pigeonhole;  // the shared hard-UNSAT family (sat/pigeonhole.hpp)

TEST(interrupt, preset_flag_aborts_solve_as_unknown) {
    sat::solver s;
    encode_pigeonhole(s, 8);
    std::atomic<bool> cancel{true};
    s.set_interrupt(&cancel);
    EXPECT_EQ(s.solve(), sat::solve_result::unknown);
    // Detached, the same instance still decides normally.
    s.set_interrupt(nullptr);
    EXPECT_EQ(s.solve(), sat::solve_result::unsat);
}

TEST(interrupt, never_fires_without_flag) {
    sat::solver s;
    encode_pigeonhole(s, 5);
    EXPECT_EQ(s.solve(), sat::solve_result::unsat);
}

// ---- solver options ---------------------------------------------------------

TEST(solver_options, diversified_members_agree_on_answer) {
    for (unsigned member = 0; member < 6; ++member) {
        sat::solver s;
        s.set_options(diversified_options(member));
        encode_pigeonhole(s, 5);
        EXPECT_EQ(s.solve(), sat::solve_result::unsat) << "member " << member;
    }
}

TEST(solver_options, default_options_are_baseline) {
    sat::solver_options defaults;
    sat::solver_options member0 = diversified_options(0);
    EXPECT_EQ(member0.var_decay, defaults.var_decay);
    EXPECT_EQ(member0.random_branch_freq, defaults.random_branch_freq);
    EXPECT_EQ(member0.init_phase_true, defaults.init_phase_true);
    EXPECT_EQ(member0.restart_base, defaults.restart_base);
}

// ---- portfolio --------------------------------------------------------------

/// A small shared CNF family with known answers: pigeonhole (unsat) and a
/// satisfiable chain of implications.
std::unique_ptr<sat_backend> make_pigeonhole_backend(unsigned member, int holes) {
    auto b = std::make_unique<sat_backend>(diversified_options(member));
    encode_pigeonhole(b->solver(), holes);
    return b;
}

TEST(portfolio, unsat_answer_matches_single_solver) {
    auto single = make_pigeonhole_backend(0, 5)->check();
    EXPECT_EQ(single.ans, answer::unsat);
    for (int round = 0; round < 3; ++round) {
        portfolio_config cfg;
        cfg.members = 4;
        cfg.threads = 4;
        auto outcome =
            race([&](unsigned m) { return make_pigeonhole_backend(m, 5); }, cfg, nullptr);
        EXPECT_EQ(outcome.result.ans, answer::unsat) << "round " << round;
    }
}

TEST(portfolio, sat_answer_deterministic_and_model_valid) {
    // Random-ish satisfiable instance: v0 -> v1 -> ... -> v19, v0 forced.
    auto build = [](sat::solver& s) {
        std::vector<sat::var> v;
        for (int i = 0; i < 20; ++i) v.push_back(s.new_var());
        s.add_clause(sat::mk_lit(v[0]));
        for (int i = 0; i + 1 < 20; ++i)
            s.add_clause(~sat::mk_lit(v[static_cast<std::size_t>(i)]),
                         sat::mk_lit(v[static_cast<std::size_t>(i) + 1]));
        return v;
    };
    portfolio_config cfg;
    cfg.members = 4;
    auto outcome = race(
        [&](unsigned m) {
            auto b = std::make_unique<sat_backend>(diversified_options(m));
            build(b->solver());
            return b;
        },
        cfg, nullptr);
    ASSERT_EQ(outcome.result.ans, answer::sat);
    // Implication chain from a forced v0: every variable is true in ANY model.
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(outcome.result.sat_model[static_cast<std::size_t>(i)], sat::lbool::l_true);
}

TEST(portfolio, single_member_degenerates) {
    portfolio_config cfg;
    cfg.members = 1;
    auto outcome = race([&](unsigned m) { return make_pigeonhole_backend(m, 4); }, cfg, nullptr);
    EXPECT_EQ(outcome.result.ans, answer::unsat);
    EXPECT_EQ(outcome.winner, 0u);
}

TEST(portfolio, member_zero_is_bitwise_the_plain_solver) {
    // A racing member's solver runs the plain search: member 0 alone
    // reproduces the plain solver's stats field for field.
    sat::solver plain;
    encode_pigeonhole(plain, 6);
    ASSERT_EQ(plain.solve(), sat::solve_result::unsat);

    auto b = make_pigeonhole_backend(0, 6);
    backend_result r = b->check();
    EXPECT_EQ(r.ans, answer::unsat);
    EXPECT_EQ(b->sat_core()->stats(), plain.stats());
}

TEST(portfolio, sliced_rounds_are_pinned_at_any_pool_width) {
    // slice_conflicts > 0 runs the budgeted rounds. The schedule is fixed,
    // so the winner, rounds and conflicts are pinned at any pool width.
    auto run = [](unsigned threads) {
        portfolio_config cfg;
        cfg.members = 4;
        cfg.slice_conflicts = 500;
        thread_pool pool(threads);
        return race([&](unsigned m) { return make_pigeonhole_backend(m, 7); }, cfg, &pool);
    };
    for (unsigned threads : {1u, 4u}) {
        portfolio_outcome out = run(threads);
        EXPECT_EQ(out.result.ans, answer::unsat) << threads;
        EXPECT_EQ(out.rounds, 7u) << threads;
        EXPECT_EQ(out.total_conflicts, 13602u) << threads;
        EXPECT_EQ(out.winner, 2u) << threads;
    }
}

TEST(portfolio, smt_engine_portfolio_matches_single) {
    smt::term_manager tm;
    smt::term x = tm.mk_bv_var("x", 16);
    smt::term y = tm.mk_bv_var("y", 16);
    smt::term commut = tm.mk_distinct(tm.mk_bvadd(x, y),
                                      tm.mk_bvsub(tm.mk_bvadd(tm.mk_bvadd(y, x), y), y));
    smt::term feasible = tm.mk_ult(x, tm.mk_bv_const(16, 100));

    smt_engine single(tm, {.use_cache = false});
    smt_engine racing(tm, {.use_cache = false, .threads = 4});

    EXPECT_EQ(solve_single(single, {commut}).ans, answer::unsat);
    EXPECT_EQ(racing.solve({{commut}, {}, strategy::portfolio(4)}).ans, answer::unsat);

    auto rs = solve_single(single, {feasible});
    auto rp = racing.solve({{feasible}, {}, strategy::portfolio(4)});
    ASSERT_EQ(rs.ans, answer::sat);
    ASSERT_EQ(rp.ans, answer::sat);
    // Whatever member won, its model satisfies the assertion.
    EXPECT_EQ(eval_model(tm, feasible, rp.model), 1u);
}

TEST(portfolio, sliced_engine_portfolio_matches_plain_check) {
    smt::term_manager tm;
    smt::term x = tm.mk_bv_var("x", 12);
    smt::term y = tm.mk_bv_var("y", 12);
    // Obfuscated commutativity refutation (defeats the normalizing rewrite,
    // so the solver does real CDCL work): x + y != ((y + x) + y) - y.
    std::vector<smt::term> assertions = {
        tm.mk_distinct(tm.mk_bvadd(x, y),
                       tm.mk_bvsub(tm.mk_bvadd(tm.mk_bvadd(y, x), y), y)),
    };
    smt_engine plain(tm, {});
    backend_result expect = solve_single(plain, assertions);
    ASSERT_EQ(expect.ans, answer::unsat);

    strategy rounds = strategy::portfolio(3);
    rounds.slice_conflicts = 200;
    smt_engine budgeted(tm, {.use_cache = false, .threads = 2});
    query_handle handle = budgeted.submit({assertions, {}, rounds});
    EXPECT_EQ(handle.get().ans, answer::unsat);
    EXPECT_EQ(handle.stats().strategy.slice_conflicts, 200u);
    EXPECT_GT(handle.stats().rounds, 0u);
    EXPECT_EQ(handle.stats().strategy.members, 3u);
}

// ---- query cache ------------------------------------------------------------

TEST(query_cache, hit_on_identical_query_set) {
    smt::term_manager tm;
    smt::term x = tm.mk_bv_var("x", 8);
    smt::term a = tm.mk_ult(x, tm.mk_bv_const(8, 10));
    smt::term b = tm.mk_ult(tm.mk_bv_const(8, 3), x);

    smt_engine engine(tm);
    auto r1 = solve_single(engine, {a, b});
    EXPECT_EQ(r1.ans, answer::sat);
    EXPECT_EQ(engine.stats().cache_hits, 0u);
    // Same set, different order and a duplicate: still a hit.
    auto r2 = solve_single(engine, {b, a, a});
    EXPECT_EQ(engine.stats().cache_hits, 1u);
    EXPECT_EQ(r2.ans, answer::sat);
    EXPECT_EQ(r2.model, r1.model);  // memoized model, remapped and verified
    EXPECT_EQ(engine.stats().solver_runs, 1u);
}

TEST(query_cache, growing_the_assertion_set_misses) {
    smt::term_manager tm;
    smt::term x = tm.mk_bv_var("x", 8);
    smt::term a = tm.mk_ult(x, tm.mk_bv_const(8, 10));
    smt::term b = tm.mk_eq(x, tm.mk_bv_const(8, 200));

    smt_engine engine(tm);
    EXPECT_EQ(solve_single(engine, {a}).ans, answer::sat);
    // Superset is a distinct query — no stale hit, and the answer flips.
    EXPECT_EQ(solve_single(engine, {a, b}).ans, answer::unsat);
    EXPECT_EQ(engine.stats().cache_hits, 0u);
}

TEST(query_cache, assumptions_key_separately) {
    smt::term_manager tm;
    smt::term x = tm.mk_bv_var("x", 8);
    smt::term a = tm.mk_ult(x, tm.mk_bv_const(8, 10));

    smt_engine engine(tm);
    EXPECT_EQ(solve_single(engine, {a}).ans, answer::sat);
    // Same formula as assertion vs as assumption: different key.
    EXPECT_EQ(solve_single(engine, {}, {a}).ans, answer::sat);
    EXPECT_EQ(engine.stats().cache_hits, 0u);
    EXPECT_EQ(solve_single(engine, {}, {a}).ans, answer::sat);
    EXPECT_EQ(engine.stats().cache_hits, 1u);
}

TEST(query_cache, unsat_results_cache_too) {
    smt::term_manager tm;
    smt::term x = tm.mk_bv_var("x", 8);
    smt::term contradiction = tm.mk_and(tm.mk_ult(x, tm.mk_bv_const(8, 4)),
                                        tm.mk_ult(tm.mk_bv_const(8, 9), x));
    smt_engine engine(tm);
    EXPECT_EQ(solve_single(engine, {contradiction}).ans, answer::unsat);
    EXPECT_EQ(solve_single(engine, {contradiction}).ans, answer::unsat);
    EXPECT_EQ(engine.stats().cache_hits, 1u);
    EXPECT_EQ(engine.stats().solver_runs, 1u);
}

TEST(query_cache, clear_invalidates) {
    smt::term_manager tm;
    smt::term x = tm.mk_bv_var("x", 8);
    smt::term a = tm.mk_ult(x, tm.mk_bv_const(8, 10));
    smt_engine engine(tm);
    solve_single(engine, {a});
    engine.cache().clear();
    solve_single(engine, {a});
    EXPECT_EQ(engine.stats().cache_hits, 0u);
    EXPECT_EQ(engine.stats().solver_runs, 2u);
}

// ---- model evaluation -------------------------------------------------------

TEST(model_evaluation, shared_dag_is_walked_once_per_node) {
    // x squared 64 times: 65 distinct terms but 2^64 root-to-leaf paths, so
    // a walk that unfolds the DAG into a tree never finishes. Every cache
    // hit's verification evaluates through this walk.
    smt::term_manager tm;
    smt::term x = tm.mk_bv_var("x", 8);
    smt::term chain = x;
    std::uint64_t expected = 3;
    for (int i = 0; i < 64; ++i) {
        chain = tm.mk_bvmul(chain, chain);
        expected = (expected * expected) & 0xff;
    }
    const smt::env model{{x.id, 3}};
    EXPECT_EQ(eval_model(tm, chain, model), expected);
    EXPECT_EQ(model_evaluator(tm, model).value(chain), expected);
    EXPECT_EQ(eval_model(tm, chain, {}), 0u);  // unbound x completes to zero

    smt::smt_solver solver(tm);
    solver.assert_term(tm.mk_eq(x, tm.mk_bv_const(8, 3)));
    ASSERT_EQ(solver.check(), smt::check_result::sat);
    EXPECT_EQ(solver.model_value(chain), expected);
}

// ---- batch ------------------------------------------------------------------

TEST(batch, hundred_independent_qfbv_queries) {
    // 100 independent path-feasibility-shaped queries with known answers:
    // query i asserts x == i and x < 50 — sat iff i < 50.
    smt::term_manager tm;
    smt::term x = tm.mk_bv_var("x", 32);
    std::vector<solve_request> queries;
    for (std::uint64_t i = 0; i < 100; ++i)
        queries.push_back({{tm.mk_eq(x, tm.mk_bv_const(32, i)),
                            tm.mk_ult(x, tm.mk_bv_const(32, 50))},
                           {},
                           strategy::single()});
    smt_engine engine(tm, {.threads = 4});
    auto results = solve_batch(engine, queries);
    ASSERT_EQ(results.size(), 100u);
    for (std::uint64_t i = 0; i < 100; ++i) {
        if (i < 50) {
            EXPECT_EQ(results[i].ans, answer::sat) << i;
            EXPECT_EQ(eval_model(tm, x, results[i].model), i);
        } else {
            EXPECT_EQ(results[i].ans, answer::unsat) << i;
        }
    }
}

TEST(batch, shares_cache_across_duplicate_queries) {
    smt::term_manager tm;
    smt::term x = tm.mk_bv_var("x", 16);
    std::vector<solve_request> queries(
        32, solve_request{{tm.mk_ult(x, tm.mk_bv_const(16, 7))}, {}, strategy::single()});
    smt_engine engine(tm, {.threads = 4});
    auto results = solve_batch(engine, queries);
    for (const auto& r : results) EXPECT_EQ(r.ans, answer::sat);
    // At least one worker solved; the rest hit the shared cache or coalesce
    // onto the in-flight duplicate (scheduling-dependent split between the
    // two), and a re-batch is all hits. Every query is accounted for as
    // exactly one of: solved, cache hit, coalesced.
    EXPECT_GE(engine.stats().solver_runs, 1u);
    auto again = solve_batch(engine, queries);
    EXPECT_EQ(engine.stats().solver_runs, engine.stats().queries - engine.stats().cache_hits -
                                              engine.stats().coalesced);
    for (const auto& r : again) EXPECT_EQ(r.ans, answer::sat);
    // The cache counters nest inside the invariant: every remapped model
    // came from a cache hit, and nothing loads from disk without a
    // cache_path.
    EXPECT_LE(engine.cache().stats().remapped_models, engine.stats().cache_hits);
    EXPECT_EQ(engine.cache().stats().persisted_loads, 0u);
}

// ---- shared pool ------------------------------------------------------------

TEST(shared_pool, engines_share_one_external_pool) {
    // The daemon topology: per-tenant term managers and engines over ONE
    // worker pool (engine_config::shared_pool). Destroying an engine must
    // not tear the pool down under the other tenant.
    auto pool = std::make_shared<thread_pool>(2);
    smt::term_manager tm_b;
    engine_config cfg;
    cfg.shared_pool = pool;
    smt_engine engine_b(tm_b, cfg);
    smt::term xb = tm_b.mk_bv_var("x", 8);
    {
        smt::term_manager tm_a;
        smt_engine engine_a(tm_a, cfg);
        smt::term xa = tm_a.mk_bv_var("x", 8);
        query_handle h = engine_a.submit(
            {{tm_a.mk_ult(xa, tm_a.mk_bv_const(8, 5))}, {}, strategy::single()});
        EXPECT_TRUE(h.get().is_sat());
    }
    query_handle h = engine_b.submit(
        {{tm_b.mk_ult(xb, tm_b.mk_bv_const(8, 5))}, {}, strategy::single()});
    EXPECT_TRUE(h.get().is_sat());
    EXPECT_EQ(pool->size(), 2u);
}

// ---- oracle cache -----------------------------------------------------------

TEST(oracle_cache, memoizes_vector_keys) {
    oracle_cache<std::vector<double>, bool, byte_vector_hash> cache;
    int calls = 0;
    auto compute = [&](const std::vector<double>&) {
        ++calls;
        return true;
    };
    EXPECT_TRUE(cache.get_or_compute({1.0, 2.0}, compute));
    EXPECT_TRUE(cache.get_or_compute({1.0, 2.0}, compute));
    EXPECT_TRUE(cache.get_or_compute({2.0, 1.0}, compute));
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 2u);
}

// ---- application routing ----------------------------------------------------

const char* modexp_src = R"(
int modexp(int base, int exponent) {
  int result = 1;
  int b = base;
  int i = 0;
  while (i < 4) bound 4 {
    if (exponent & 1) { result = (result * b) % 1000003; }
    b = (b * b) % 1000003;
    exponent = exponent >> 1;
    i = i + 1;
  }
  return result;
}
)";

TEST(application_routing, gametime_batch_extraction_identical_to_sequential) {
    ir::program p = ir::parse_program(modexp_src);
    ir::function f = ir::resolve_static_branches(
        ir::unroll_loops(*p.find_function("modexp")), p.width);
    ir::cfg g = ir::cfg::build(p, f);

    smt::term_manager tm_seq;
    substrate::smt_engine seq_engine(tm_seq);
    gametime::basis_info sequential = gametime::extract_basis_paths(g, seq_engine);

    smt::term_manager tm_par;
    substrate::smt_engine par_engine(tm_par);
    gametime::basis_config cfg;
    cfg.batch_threads = 4;
    gametime::basis_info batched = gametime::extract_basis_paths(g, par_engine, cfg);

    EXPECT_EQ(sequential.paths, batched.paths);
    EXPECT_EQ(sequential.tests, batched.tests);
    EXPECT_EQ(sequential.smt_queries, batched.smt_queries);
    EXPECT_GT(batched.speculative_queries, 0u);
    EXPECT_EQ(sequential.speculative_queries, 0u);
}

TEST(application_routing, gametime_batch_enumeration_limit_matches_sequential) {
    // Batch mode must agree with sequential mode on the enumeration-limit
    // boundary: same basis when the limit suffices, same throw when not.
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
    for (std::size_t limit = 1; limit <= 8; ++limit) {
        auto run = [&](unsigned threads) -> std::optional<gametime::basis_info> {
            smt::term_manager tm;
            substrate::smt_engine engine(tm);
            gametime::basis_config cfg;
            cfg.enumeration_limit = limit;
            cfg.batch_threads = threads;
            try {
                return gametime::extract_basis_paths(g, engine, cfg);
            } catch (const std::runtime_error&) {
                return std::nullopt;
            }
        };
        auto sequential = run(1);
        auto batched = run(4);
        ASSERT_EQ(sequential.has_value(), batched.has_value()) << "limit " << limit;
        if (sequential) {
            EXPECT_EQ(sequential->paths, batched->paths) << "limit " << limit;
            EXPECT_EQ(sequential->tests, batched->tests) << "limit " << limit;
        }
    }
}

TEST(application_routing, gametime_wcet_recheck_hits_cache) {
    ir::program p = ir::parse_program(modexp_src);
    ir::function f = ir::resolve_static_branches(
        ir::unroll_loops(*p.find_function("modexp")), p.width);
    ir::cfg g = ir::cfg::build(p, f);

    smt::term_manager tm;
    substrate::smt_engine engine(tm);
    gametime::basis_info basis = gametime::extract_basis_paths(g, engine);
    gametime::sarm_platform platform(p, f);
    gametime::timing_model model = gametime::learn_timing_model(basis, platform);
    auto before = engine.stats().cache_hits;
    auto wcet = gametime::predict_wcet(g, model, engine);
    ASSERT_TRUE(wcet.has_value());
    // The predicted longest path is one of the basis paths already proven
    // feasible during extraction — its re-check is a cache hit.
    EXPECT_GT(engine.stats().cache_hits, before);
}

TEST(application_routing, ogis_results_identical_through_substrate) {
    // The P1 interchange benchmark through the default substrate (cache on)
    // and with the cache off must synthesize the same program.
    auto bench = ogis::benchmark_p1_interchange();
    auto cached = ogis::run_benchmark(bench);
    ASSERT_EQ(cached.status, core::loop_status::success);

    auto bench_uncached = ogis::benchmark_p1_interchange();
    bench_uncached.config.engine.use_cache = false;
    auto uncached = ogis::run_benchmark(bench_uncached);
    ASSERT_EQ(uncached.status, core::loop_status::success);

    EXPECT_EQ(cached.program->to_string(bench.config.library),
              uncached.program->to_string(bench.config.library));
    EXPECT_EQ(cached.stats.iterations, uncached.stats.iterations);
}

TEST(application_routing, invgen_portfolio_set_is_inductive) {
    // Stuck latch + two equivalent input-fed latches: constant and
    // equivalence invariants exist and are 1-inductive.
    aig::aig circuit;
    aig::literal in = circuit.add_input();
    aig::literal stuck = circuit.add_latch(false);
    aig::literal l1 = circuit.add_latch(false);
    aig::literal l2 = circuit.add_latch(false);
    circuit.set_latch_next(stuck, stuck);
    circuit.set_latch_next(l1, in);
    circuit.set_latch_next(l2, in);

    auto single = invgen::generate_invariants(circuit, {});

    invgen::invgen_config pcfg;
    pcfg.portfolio_members = 3;
    pcfg.portfolio_threads = 3;
    auto raced = invgen::generate_invariants(circuit, pcfg);

    // Which candidates survive each refinement is answer-determined, and
    // these candidates are genuinely invariant — so the fixpoints coincide.
    EXPECT_FALSE(single.proven.empty());
    EXPECT_FALSE(raced.proven.empty());
    auto to_strings = [](const std::vector<invgen::candidate>& cs) {
        std::set<std::string> out;
        for (const auto& c : cs) out.insert(c.to_string());
        return out;
    };
    EXPECT_EQ(to_strings(single.proven), to_strings(raced.proven));
    // And the stuck-at-0 latch is proven constant through the portfolio.
    EXPECT_EQ(invgen::prove_with_invariants(circuit, aig::negate(stuck), single.proven),
              invgen::prove_with_invariants(circuit, aig::negate(stuck), raced.proven));
}

TEST(application_routing, invgen_batched_proof_matches_sequential) {
    aig::aig circuit;
    auto a = circuit.add_latch(true);
    auto b = circuit.add_latch(true);
    circuit.set_latch_next(a, b);
    circuit.set_latch_next(b, a);
    auto result = invgen::generate_invariants(circuit, {.simulation_rounds = 2});
    bool sequential = invgen::prove_with_invariants(circuit, a, result.proven);
    bool batched = invgen::prove_with_invariants(circuit, a, result.proven,
                                                 {.batch_threads = 2});
    EXPECT_EQ(sequential, batched);
    EXPECT_TRUE(batched);  // a==true is inductive here
}

}  // namespace
}  // namespace sciduction::substrate
