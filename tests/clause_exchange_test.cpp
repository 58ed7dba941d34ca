// Learnt-clause sharing: pool filters and cursors, solver import/export
// plumbing, portfolio and shard integration, and the determinism contracts
// (sharing off = bit-identical legacy behaviour; deterministic sharing =
// identical answers and stats across thread counts).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "sat/pigeonhole.hpp"
#include "substrate/clause_exchange.hpp"
#include "engine_test_util.hpp"
#include "substrate/engine.hpp"
#include "substrate/portfolio.hpp"
#include "substrate/shard.hpp"

namespace sciduction::substrate {
namespace {

using sat::encode_pigeonhole;

/// DIMACS-style literal list: 1-based, negative means negated (so var k is
/// written k+1, and ~var k is -(k+1)).
sat::clause_lits lits(std::initializer_list<int> xs) {
    sat::clause_lits out;
    for (int x : xs) out.push_back(sat::mk_lit((x < 0 ? -x : x) - 1, x < 0));
    return out;
}

// ---- clause_pool ------------------------------------------------------------

TEST(clause_pool, filters_by_size_lbd_and_banned_vars) {
    sharing_config cfg;
    cfg.enabled = true;
    cfg.max_clause_size = 3;
    cfg.max_lbd = 2;
    clause_pool pool(cfg);
    unsigned a = pool.register_member();
    pool.ban_vars({7});

    pool.publish(a, lits({1, 2}), 2);            // accepted
    pool.publish(a, lits({1, 2, 3, 4}), 1);      // too long
    pool.publish(a, lits({1, 2}), 3);            // LBD too high
    pool.publish(a, lits({1, -8}), 1);           // mentions banned var 7
    EXPECT_EQ(pool.stats().published, 1u);
    EXPECT_EQ(pool.stats().filtered, 3u);
    EXPECT_EQ(pool.visible(), 1u);
}

TEST(clause_pool, cursor_skips_own_clauses_and_never_duplicates) {
    sharing_config cfg;
    cfg.enabled = true;
    clause_pool pool(cfg);
    unsigned a = pool.register_member();
    unsigned b = pool.register_member();

    pool.publish(a, lits({1, 2}), 1);
    pool.publish(b, lits({3, 4}), 1);

    std::vector<sat::clause_lits> got_a;
    EXPECT_EQ(pool.fetch(a, got_a), 1u);  // only b's clause
    ASSERT_EQ(got_a.size(), 1u);
    EXPECT_EQ(got_a[0], lits({3, 4}));
    got_a.clear();
    EXPECT_EQ(pool.fetch(a, got_a), 0u);  // nothing new on a second fetch

    std::vector<sat::clause_lits> got_b;
    EXPECT_EQ(pool.fetch(b, got_b), 1u);  // only a's clause
    EXPECT_EQ(got_b[0], lits({1, 2}));
}

TEST(clause_pool, deterministic_outboxes_seal_in_member_order) {
    sharing_config cfg;
    cfg.enabled = true;
    cfg.deterministic = true;
    clause_pool pool(cfg);
    unsigned a = pool.register_member();
    unsigned b = pool.register_member();
    unsigned c = pool.register_member();

    // Published "out of order" (as racing threads would): nothing visible
    // until the barrier, then visible in member order regardless.
    pool.publish(b, lits({3}), 1);
    pool.publish(a, lits({1}), 1);
    EXPECT_EQ(pool.visible(), 0u);
    std::vector<sat::clause_lits> got;
    EXPECT_EQ(pool.fetch(c, got), 0u);

    pool.seal_round();
    EXPECT_EQ(pool.visible(), 2u);
    EXPECT_EQ(pool.fetch(c, got), 2u);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], lits({1}));  // member a's clause first
    EXPECT_EQ(got[1], lits({3}));
}

// ---- sat::solver plumbing ---------------------------------------------------

TEST(solver_sharing, import_clauses_integrates_units_and_drops_satisfied) {
    sat::solver s;
    for (int i = 0; i < 4; ++i) s.new_var();
    s.add_clause(lits({1, 2}));  // v0 | v1
    s.add_clause(lits({3}));     // top-level unit: var 2 is true

    // Already-satisfied clause is dropped; a fresh binary is attached; a
    // unit is enqueued and propagated.
    std::size_t n = s.import_clauses({lits({3, 4}), lits({1, 4}), lits({-1})});
    EXPECT_EQ(n, 2u);
    EXPECT_EQ(s.stats().imported_clauses, 2u);
    // ~v0 was imported as a unit, so v0 is false and the problem clause
    // forces v1; the imported (v0 | v3) then forces v3.
    EXPECT_EQ(s.solve(), sat::solve_result::sat);
    EXPECT_FALSE(s.model_bool(0));
    EXPECT_TRUE(s.model_bool(1));
    EXPECT_TRUE(s.model_bool(3));
}

TEST(solver_sharing, imported_contradiction_makes_solver_unsat) {
    sat::solver s;
    s.new_var();
    s.add_clause(lits({1}));
    s.import_clauses({lits({-1})});
    EXPECT_FALSE(s.okay());
    EXPECT_EQ(s.solve(), sat::solve_result::unsat);
}

TEST(solver_sharing, conflict_pause_preserves_state_and_resumes_to_same_answer) {
    sat::solver plain;
    encode_pigeonhole(plain, 6);
    ASSERT_EQ(plain.solve(), sat::solve_result::unsat);

    sat::solver paused;
    encode_pigeonhole(paused, 6);
    std::uint64_t slices = 0;
    sat::solve_result r = sat::solve_result::unknown;
    while (r == sat::solve_result::unknown) {
        paused.set_conflict_pause(paused.stats().conflicts + 200);
        r = paused.solve();
        ++slices;
        ASSERT_LT(slices, 1000u) << "paused solve must converge";
    }
    paused.set_conflict_pause(0);
    EXPECT_EQ(r, sat::solve_result::unsat);
    EXPECT_GT(slices, 1u) << "PHP-6 takes >200 conflicts, so at least one pause";
}

TEST(solver_sharing, default_solver_has_no_sharing_overhead_and_identical_stats) {
    auto run = [](bool create_idle_pool) {
        sat::solver s;
        encode_pigeonhole(s, 6);
        // An idle pool (constructed, never attached) must not perturb the
        // solver: sharing is strictly opt-in via the hooks.
        clause_pool idle{sharing_config{}};
        (void)create_idle_pool;
        EXPECT_EQ(s.solve(), sat::solve_result::unsat);
        return s.stats();
    };
    sat::solver_stats a = run(false);
    sat::solver_stats b = run(true);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.exported_clauses, 0u);
    EXPECT_EQ(a.imported_clauses, 0u);
    EXPECT_EQ(a.useful_imports, 0u);
    EXPECT_EQ(a.lbd_sum, 0u);  // LBD tracking off by default
}

TEST(solver_sharing, track_lbd_accumulates_without_changing_search) {
    sat::solver plain;
    encode_pigeonhole(plain, 6);
    ASSERT_EQ(plain.solve(), sat::solve_result::unsat);

    sat::solver tracked;
    sat::solver_options opts;
    opts.track_lbd = true;
    tracked.set_options(opts);
    encode_pigeonhole(tracked, 6);
    ASSERT_EQ(tracked.solve(), sat::solve_result::unsat);

    EXPECT_GT(tracked.stats().lbd_sum, 0u);
    // Identical search: only the LBD bookkeeping differs.
    EXPECT_EQ(plain.stats().conflicts, tracked.stats().conflicts);
    EXPECT_EQ(plain.stats().decisions, tracked.stats().decisions);
    EXPECT_EQ(plain.stats().propagations, tracked.stats().propagations);
}

TEST(solver_sharing, clauses_flow_between_attached_solvers) {
    sharing_config cfg;
    cfg.enabled = true;
    cfg.max_clause_size = 12;
    cfg.max_lbd = 12;
    clause_pool pool(cfg);

    sat::solver producer;
    encode_pigeonhole(producer, 6);
    unsigned pid = pool.register_member();
    pool.attach(producer, pid);
    ASSERT_EQ(producer.solve(), sat::solve_result::unsat);
    EXPECT_GT(producer.stats().exported_clauses, 0u);
    ASSERT_GT(pool.visible(), 0u);

    sat::solver consumer;
    encode_pigeonhole(consumer, 6);
    unsigned cid = pool.register_member();
    pool.attach(consumer, cid);
    ASSERT_EQ(consumer.solve(), sat::solve_result::unsat);
    EXPECT_GT(consumer.stats().imported_clauses, 0u);
    EXPECT_GT(consumer.stats().useful_imports, 0u);
    // The consumer rides the producer's refutation: strictly fewer conflicts.
    EXPECT_LT(consumer.stats().conflicts, producer.stats().conflicts);
}

// ---- core-clean export under cube assumptions -------------------------------

TEST(clause_exchange, core_clean_export_filters_cube_variables) {
    // Solve PHP-6 under a cube literal with the cube variable banned: every
    // pooled clause must avoid it (clauses are formula consequences either
    // way — the filter keeps branch-local noise out of siblings).
    sat::solver probe;
    encode_pigeonhole(probe, 6);
    cube_plan plan = generate_cubes(probe, {.depth = 1, .probe_candidates = 8});
    ASSERT_EQ(plan.split_vars.size(), 1u);
    const sat::var split = plan.split_vars[0];

    sharing_config cfg;
    cfg.enabled = true;
    cfg.max_clause_size = 16;
    cfg.max_lbd = 16;
    clause_pool pool(cfg);
    pool.ban_vars({split});

    sat::solver worker;
    encode_pigeonhole(worker, 6);
    unsigned wid = pool.register_member();
    pool.attach(worker, wid);
    std::vector<sat::lit> cube = plan.cubes[0].lits;
    cube.insert(cube.end(), plan.forced.begin(), plan.forced.end());
    ASSERT_EQ(worker.solve(cube), sat::solve_result::unsat);
    ASSERT_GT(worker.stats().exported_clauses, 0u);

    unsigned reader = pool.register_member();
    std::vector<sat::clause_lits> shared;
    pool.fetch(reader, shared);
    for (const sat::clause_lits& c : shared)
        for (sat::lit l : c)
            EXPECT_NE(sat::var_of(l), split) << "core-clean filter must ban the split variable";
    // The filter actually rejected something (cube-adjacent clauses exist).
    EXPECT_GT(pool.stats().filtered, 0u);
}

TEST(clause_exchange, publish_filter_counters_merge_losslessly_under_concurrency) {
    // Pins the publish fast path's split accounting (the -Wthread-safety
    // contract made explicit in clause_exchange.hpp): size/LBD rejections
    // are counted on an atomic OUTSIDE the pool mutex, ban rejections and
    // acceptances under it, and stats() must merge the two streams without
    // losing a count even when publishers race.
    sharing_config cfg;
    cfg.enabled = true;
    cfg.max_clause_size = 3;
    cfg.max_lbd = 2;
    cfg.max_import_per_checkpoint = 0;  // drain in one fetch below
    clause_pool pool(cfg);
    pool.ban_vars({7});

    constexpr unsigned publishers = 4;
    constexpr std::uint64_t rounds = 500;
    std::vector<unsigned> members(publishers);
    for (unsigned m = 0; m < publishers; ++m) members[m] = pool.register_member();

    std::vector<std::uint64_t> accepted(publishers, 0);
    std::vector<std::thread> threads;
    threads.reserve(publishers);
    for (unsigned m = 0; m < publishers; ++m) {
        threads.emplace_back([&, m] {
            for (std::uint64_t i = 0; i < rounds; ++i) {
                if (pool.publish(members[m], lits({1, 2}), 1)) ++accepted[m];
                pool.publish(members[m], lits({1, 2, 3, 4}), 1);  // size-rejected (atomic)
                pool.publish(members[m], lits({1, 2}), 3);        // LBD-rejected (atomic)
                pool.publish(members[m], lits({1, -8}), 1);       // ban-rejected (locked)
            }
        });
    }
    for (std::thread& t : threads) t.join();

    std::uint64_t total_accepted = 0;
    for (std::uint64_t a : accepted) total_accepted += a;
    EXPECT_EQ(total_accepted, publishers * rounds);
    exchange_stats stats = pool.stats();
    EXPECT_EQ(stats.published, publishers * rounds);
    EXPECT_EQ(stats.filtered, 3 * publishers * rounds);
    EXPECT_EQ(pool.visible(), publishers * rounds);

    // Every member sees exactly the other members' accepted clauses.
    std::vector<sat::clause_lits> got;
    EXPECT_EQ(pool.fetch(members[0], got), (publishers - 1) * rounds);
    EXPECT_EQ(pool.stats().fetched, (publishers - 1) * rounds);
}

// ---- portfolio integration --------------------------------------------------

std::unique_ptr<sat_backend> pigeonhole_member(unsigned member, int holes) {
    auto b = std::make_unique<sat_backend>(diversified_options(member));
    encode_pigeonhole(b->solver(), holes);
    return b;
}

TEST(portfolio_sharing, no_sharing_race_is_bitwise_legacy_for_each_member) {
    // With sharing off, a racing member's solver is untouched by the
    // exchange plumbing: member 0 run alone reproduces the plain solver
    // stats field for field.
    sat::solver plain;
    encode_pigeonhole(plain, 6);
    ASSERT_EQ(plain.solve(), sat::solve_result::unsat);

    auto b = pigeonhole_member(0, 6);
    backend_result r = b->check();
    EXPECT_EQ(r.ans, answer::unsat);
    EXPECT_EQ(b->sat_core()->stats(), plain.stats());
}

TEST(portfolio_sharing, deterministic_sharing_identical_across_thread_counts) {
    auto run = [](unsigned threads) {
        portfolio_config cfg;
        cfg.members = 4;
        cfg.sharing.enabled = true;
        cfg.sharing.deterministic = true;
        cfg.sharing.slice_conflicts = 300;
        thread_pool pool(threads);
        return race([&](unsigned m) { return pigeonhole_member(m, 7); }, cfg, &pool);
    };
    portfolio_outcome one = run(1);
    portfolio_outcome four = run(4);
    EXPECT_EQ(one.result.ans, answer::unsat);
    EXPECT_EQ(four.result.ans, answer::unsat);
    EXPECT_EQ(one.winner, four.winner);
    EXPECT_EQ(one.rounds, four.rounds);
    EXPECT_EQ(one.total_conflicts, four.total_conflicts);
    EXPECT_TRUE(one.sharing == four.sharing);
    EXPECT_GT(one.sharing.imported, 0u) << "members must actually exchange clauses";
}

TEST(portfolio_sharing, deterministic_sharing_cuts_total_conflicts_on_pigeonhole) {
    // Same deterministic rounds with and without the exchange: sharing
    // must reduce the total work. Both runs are reproducible whatever the
    // pool width, so this is a stable comparison, not a timing race
    // (PHP-8: 69,626 shared against 79,579 unshared conflicts).
    auto run = [](bool share) {
        portfolio_config cfg;
        cfg.members = 4;
        cfg.sharing.enabled = share;
        cfg.sharing.deterministic = true;
        cfg.sharing.slice_conflicts = 500;
        cfg.sharing.max_clause_size = 16;
        cfg.sharing.max_lbd = 16;
        cfg.sharing.max_import_per_checkpoint = 16;
        thread_pool pool(2);
        return race([&](unsigned m) { return pigeonhole_member(m, 8); }, cfg, &pool);
    };
    portfolio_outcome shared = run(true);
    portfolio_outcome solo = run(false);
    ASSERT_EQ(shared.result.ans, answer::unsat);
    ASSERT_EQ(solo.result.ans, answer::unsat);
    EXPECT_LT(shared.total_conflicts, solo.total_conflicts);
}

TEST(portfolio_sharing, deterministic_rounds_without_exchange_are_pinned) {
    // sharing.deterministic alone: budgeted rounds, no clause pool. The
    // schedule is fixed, so rounds and conflicts are pinned at any pool
    // width.
    auto run = [](unsigned threads) {
        portfolio_config cfg;
        cfg.members = 4;
        cfg.sharing.deterministic = true;
        cfg.sharing.slice_conflicts = 500;
        thread_pool pool(threads);
        return race([&](unsigned m) { return pigeonhole_member(m, 7); }, cfg, &pool);
    };
    for (unsigned threads : {1u, 4u}) {
        portfolio_outcome out = run(threads);
        EXPECT_EQ(out.result.ans, answer::unsat) << threads;
        EXPECT_EQ(out.rounds, 7u) << threads;
        EXPECT_EQ(out.total_conflicts, 13602u) << threads;
        EXPECT_EQ(out.sharing, sharing_counters{}) << threads;
    }
}

TEST(portfolio_sharing, free_running_sharing_keeps_answers_and_models_sound) {
    // Satisfiable chain: any model must set every variable true. Sharing
    // must not perturb answers or model validity.
    auto build = [](sat::solver& s) {
        std::vector<sat::var> v;
        for (int i = 0; i < 20; ++i) v.push_back(s.new_var());
        s.add_clause(sat::mk_lit(v[0]));
        for (int i = 0; i + 1 < 20; ++i)
            s.add_clause(~sat::mk_lit(v[static_cast<std::size_t>(i)]),
                         sat::mk_lit(v[static_cast<std::size_t>(i) + 1]));
    };
    portfolio_config cfg;
    cfg.members = 4;
    cfg.threads = 4;
    cfg.sharing.enabled = true;
    auto outcome = race(
        [&](unsigned m) {
            auto b = std::make_unique<sat_backend>(diversified_options(m));
            build(b->solver());
            return b;
        },
        cfg, nullptr);
    ASSERT_EQ(outcome.result.ans, answer::sat);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(outcome.result.sat_model[static_cast<std::size_t>(i)], sat::lbool::l_true);
}

// ---- shard integration ------------------------------------------------------

cube_plan php_plan(int holes, unsigned depth) {
    sat::solver probe;
    encode_pigeonhole(probe, holes);
    return generate_cubes(probe, {.depth = depth, .probe_candidates = 8});
}

TEST(shard_sharing, deterministic_sharing_identical_across_thread_counts) {
    cube_plan plan = php_plan(7, 2);
    sharing_config share;
    share.enabled = true;
    share.deterministic = true;
    share.slice_conflicts = 300;
    auto run = [&](unsigned threads) {
        thread_pool pool(threads);
        return solve_cubes(
            [](std::size_t) {
                auto b = std::make_unique<sat_backend>();
                encode_pigeonhole(b->solver(), 7);
                return b;
            },
            plan, pool, share);
    };
    shard_outcome one = run(1);
    shard_outcome four = run(4);
    EXPECT_EQ(one.result.ans, answer::unsat);
    EXPECT_EQ(four.result.ans, answer::unsat);
    EXPECT_EQ(one.stats, four.stats);
    EXPECT_EQ(one.cube_fates, four.cube_fates);
    EXPECT_GT(one.stats.sharing.imported, 0u) << "pairs must actually exchange clauses";
}

TEST(shard_sharing, sharing_cuts_total_conflicts_at_depth_two) {
    cube_plan plan = php_plan(7, 2);
    auto factory = [](std::size_t) {
        auto b = std::make_unique<sat_backend>();
        encode_pigeonhole(b->solver(), 7);
        return std::unique_ptr<solver_backend>(std::move(b));
    };
    // Deterministic rounds make this a stable comparison, not a timing
    // race (PHP-7 wants a shorter slice than the PHP-8 bench config; see
    // the slice_conflicts guidance in docs/TUNING.md).
    sharing_config share;
    share.enabled = true;
    share.deterministic = true;
    share.slice_conflicts = 300;
    share.max_clause_size = 16;
    share.max_lbd = 10;
    share.max_import_per_checkpoint = 32;
    thread_pool pool(2);
    shard_outcome shared = solve_cubes(factory, plan, pool, share);
    shard_outcome solo = solve_cubes(factory, plan, pool);
    ASSERT_EQ(shared.result.ans, answer::unsat);
    ASSERT_EQ(solo.result.ans, answer::unsat);
    EXPECT_LT(shared.stats.conflicts, solo.stats.conflicts);
    EXPECT_GT(shared.stats.sharing.imported, 0u);
    EXPECT_GT(shared.stats.sharing.useful_imports, 0u);
}

// ---- engine integration -----------------------------------------------------

TEST(engine_sharing, sharded_with_sharing_matches_plain_check) {
    smt::term_manager tm;
    smt::term x = tm.mk_bv_var("x", 16);
    smt::term y = tm.mk_bv_var("y", 16);
    std::vector<smt::term> assertions = {
        tm.mk_eq(tm.mk_bvmul(x, y), tm.mk_bv_const(16, 143)),
        tm.mk_ult(tm.mk_bv_const(16, 1), x),
        tm.mk_ult(x, tm.mk_bv_const(16, 100)),
    };
    smt_engine plain(tm, {});
    backend_result expect = solve_single(plain, assertions);

    strategy shard = strategy::shard(2);
    shard.sharing = sharing_config{.enabled = true, .deterministic = true};
    smt_engine sharded(tm, {.threads = 2});
    backend_result got = sharded.solve({assertions, {}, shard});
    EXPECT_EQ(got.ans, expect.ans);
    if (got.is_sat()) {
        model_evaluator eval(tm, got.model);
        EXPECT_EQ(eval.value(tm.mk_bvmul(x, y)), 143u);
    }
}

TEST(engine_sharing, deterministic_portfolio_matches_plain_check) {
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
    rounds.sharing =
        sharing_config{.enabled = true, .deterministic = true, .slice_conflicts = 200};
    smt_engine budgeted(tm, {.use_cache = false, .threads = 2});
    query_handle handle = budgeted.submit({assertions, {}, rounds});
    EXPECT_EQ(handle.get().ans, answer::unsat);
    EXPECT_TRUE(handle.stats().strategy.sharing.deterministic);
    EXPECT_GT(handle.stats().rounds, 0u);
    EXPECT_EQ(handle.stats().strategy.members, 3u);
}

}  // namespace
}  // namespace sciduction::substrate
