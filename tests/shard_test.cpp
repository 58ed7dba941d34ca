#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>

#include "gametime/gametime.hpp"
#include "invgen/invgen.hpp"
#include "ir/parser.hpp"
#include "ir/symexec.hpp"
#include "ir/transform.hpp"
#include "ogis/benchmarks.hpp"
#include "sat/pigeonhole.hpp"
#include "cnf_fuzz.hpp"
#include "engine_test_util.hpp"
#include "substrate/engine.hpp"
#include "substrate/shard.hpp"

namespace sciduction::substrate {
namespace {

using sat::encode_pigeonhole;

// ---- cube generation --------------------------------------------------------

TEST(cube_generation, balanced_tree_with_sibling_structure) {
    sat::solver s;
    encode_pigeonhole(s, 6);
    cube_plan plan = generate_cubes(s, {.depth = 3, .probe_candidates = 8});
    EXPECT_FALSE(plan.root_unsat);
    ASSERT_EQ(plan.split_vars.size(), 3u);
    ASSERT_EQ(plan.cubes.size(), 8u);
    // Distinct split variables.
    EXPECT_NE(plan.split_vars[0], plan.split_vars[1]);
    EXPECT_NE(plan.split_vars[1], plan.split_vars[2]);
    EXPECT_NE(plan.split_vars[0], plan.split_vars[2]);
    for (std::size_t k = 0; k < plan.cubes.size(); ++k) {
        ASSERT_EQ(plan.cubes[k].lits.size(), 3u);
        for (std::size_t j = 0; j < 3; ++j)
            EXPECT_EQ(sat::var_of(plan.cubes[k].lits[j]), plan.split_vars[j]);
    }
    // Siblings 2m / 2m+1 differ exactly in the sign of the last literal.
    for (std::size_t m = 0; m < plan.cubes.size() / 2; ++m) {
        const auto& even = plan.cubes[2 * m].lits;
        const auto& odd = plan.cubes[2 * m + 1].lits;
        EXPECT_EQ(even[0], odd[0]);
        EXPECT_EQ(even[1], odd[1]);
        EXPECT_EQ(even[2], ~odd[2]);
    }
}

TEST(cube_generation, deterministic_across_identical_solvers) {
    auto make_plan = [] {
        sat::solver s;
        encode_pigeonhole(s, 5);
        return generate_cubes(s, {.depth = 2, .probe_candidates = 6});
    };
    cube_plan a = make_plan();
    cube_plan b = make_plan();
    EXPECT_EQ(a.split_vars, b.split_vars);
    EXPECT_EQ(a.forced, b.forced);
    ASSERT_EQ(a.cubes.size(), b.cubes.size());
    for (std::size_t i = 0; i < a.cubes.size(); ++i) EXPECT_EQ(a.cubes[i].lits, b.cubes[i].lits);
}

TEST(cube_generation, failed_literal_becomes_forced_unit) {
    sat::solver s;
    sat::var a = s.new_var();
    sat::var b = s.new_var();
    s.add_clause(~sat::mk_lit(a), sat::mk_lit(b));
    s.add_clause(~sat::mk_lit(a), ~sat::mk_lit(b));
    cube_plan plan = generate_cubes(s, {.depth = 1, .probe_candidates = 4});
    EXPECT_FALSE(plan.root_unsat);
    // Probing a conflicts, so ~a is entailed and recorded.
    ASSERT_FALSE(plan.forced.empty());
    EXPECT_EQ(plan.forced[0], ~sat::mk_lit(a));
}

TEST(cube_generation, refuted_root_detected) {
    sat::solver s;
    sat::var a = s.new_var();
    s.add_clause(sat::mk_lit(a));
    s.add_clause(~sat::mk_lit(a));
    cube_plan plan = generate_cubes(s, {});
    EXPECT_TRUE(plan.root_unsat);
    thread_pool pool(1);
    auto outcome =
        solve_cubes([](std::size_t) { return std::make_unique<sat_backend>(); }, plan, pool);
    EXPECT_TRUE(outcome.result.is_unsat());
}

// ---- shard scheduler --------------------------------------------------------

shard_outcome shard_pigeonhole(int holes, unsigned depth, unsigned threads,
                               std::uint64_t slice_conflicts = 0) {
    sat::solver prototype;
    encode_pigeonhole(prototype, holes);
    cube_plan plan = generate_cubes(prototype, {.depth = depth, .probe_candidates = 8});
    thread_pool pool(threads);
    return solve_cubes(
        [&](std::size_t) {
            auto backend = std::make_unique<sat_backend>();
            encode_pigeonhole(backend->solver(), holes);
            return backend;
        },
        plan, pool, slice_conflicts);
}

TEST(shard, all_unsat_answers_and_stats_deterministic_across_thread_counts) {
    // The satellite determinism contract: identical answers AND identical
    // stats under threads = 1 vs threads = N for all-UNSAT cube trees.
    shard_outcome one = shard_pigeonhole(6, 3, 1);
    shard_outcome four = shard_pigeonhole(6, 3, 4);
    EXPECT_TRUE(one.result.is_unsat());
    EXPECT_TRUE(four.result.is_unsat());
    EXPECT_EQ(one.winning_cube, shard_outcome::no_cube);
    EXPECT_EQ(four.winning_cube, shard_outcome::no_cube);
    EXPECT_EQ(one.stats, four.stats);
    EXPECT_EQ(one.cube_fates, four.cube_fates);
    // Every cube is accounted for, none skipped; the free scheduler drives
    // no rounds.
    EXPECT_EQ(one.stats.refuted + one.stats.pruned, one.stats.cubes);
    EXPECT_EQ(one.stats.skipped, 0u);
    EXPECT_EQ(one.stats.rounds, 0u);
}

TEST(shard, sliced_rounds_identical_across_thread_counts) {
    // slice_conflicts > 0 runs the sliced scheduler: pairs advance in
    // rounds of N conflicts, and a SAT cube is resolved at the barrier in
    // pair order. The whole outcome is then identical at any pool width,
    // for a satisfiable tree (winning cube and model included) as well as
    // an all-UNSAT one. The sat tree is seeded random 3-SAT below the
    // threshold ratio: satisfiable, and at 10 conflicts a slice its
    // depth-2 tree takes 15 rounds.
    test::fuzz_cnf cnf;
    cnf.num_vars = 100;
    util::rng r;
    r.reseed(1);
    for (int i = 0; i < 410; ++i)
        cnf.clauses.push_back(test::detail::random_clause(r, cnf.num_vars, 3));
    auto run_sat = [&](unsigned threads) {
        sat::solver prototype;
        cnf.load_into(prototype);
        cube_plan plan = generate_cubes(prototype, {.depth = 2, .probe_candidates = 8});
        thread_pool pool(threads);
        return solve_cubes(
            [&](std::size_t) {
                auto backend = std::make_unique<sat_backend>();
                cnf.load_into(backend->solver());
                return backend;
            },
            plan, pool, /*slice_conflicts=*/10);
    };
    const shard_outcome one = run_sat(1);
    const shard_outcome four = run_sat(4);
    ASSERT_TRUE(one.result.is_sat());
    ASSERT_TRUE(four.result.is_sat());
    EXPECT_GE(one.stats.rounds, 2u) << "the slice must cut the search into rounds";
    EXPECT_EQ(one.winning_cube, four.winning_cube);
    EXPECT_EQ(one.cube_fates, four.cube_fates);
    EXPECT_EQ(one.stats, four.stats);
    EXPECT_EQ(one.result.sat_model, four.result.sat_model);
    auto holds = [&](sat::lit l) {
        const sat::lbool v = one.result.sat_model[static_cast<std::size_t>(sat::var_of(l))];
        return (v == sat::lbool::l_true) != sat::sign_of(l);
    };
    for (const sat::clause_lits& c : cnf.clauses)
        EXPECT_TRUE(std::any_of(c.begin(), c.end(), holds)) << "the model must satisfy the CNF";

    const shard_outcome unsat_one = shard_pigeonhole(7, 2, 1, /*slice_conflicts=*/300);
    const shard_outcome unsat_four = shard_pigeonhole(7, 2, 4, /*slice_conflicts=*/300);
    EXPECT_TRUE(unsat_one.result.is_unsat());
    EXPECT_TRUE(unsat_four.result.is_unsat());
    EXPECT_GE(unsat_one.stats.rounds, 2u);
    EXPECT_EQ(unsat_one.stats, unsat_four.stats);
    EXPECT_EQ(unsat_one.cube_fates, unsat_four.cube_fates);
}

TEST(shard, sat_race_returns_model_satisfying_all_clauses) {
    // v0 forced true, implication chain v0 -> ... -> v19: every model sets
    // every variable true, whichever cube wins the race.
    auto build = [](sat::solver& s) {
        std::vector<sat::var> v;
        for (int i = 0; i < 20; ++i) v.push_back(s.new_var());
        s.add_clause(sat::mk_lit(v[0]));
        for (int i = 0; i + 1 < 20; ++i)
            s.add_clause(~sat::mk_lit(v[static_cast<std::size_t>(i)]),
                         sat::mk_lit(v[static_cast<std::size_t>(i) + 1]));
    };
    for (unsigned threads : {1u, 4u}) {
        sat::solver prototype;
        build(prototype);
        cube_plan plan = generate_cubes(prototype, {.depth = 2, .probe_candidates = 4});
        thread_pool pool(threads);
        auto outcome = solve_cubes(
            [&](std::size_t) {
                auto backend = std::make_unique<sat_backend>();
                build(backend->solver());
                return backend;
            },
            plan, pool);
        ASSERT_TRUE(outcome.result.is_sat()) << "threads " << threads;
        ASSERT_NE(outcome.winning_cube, shard_outcome::no_cube);
        for (int i = 0; i < 20; ++i)
            EXPECT_EQ(outcome.result.sat_model[static_cast<std::size_t>(i)], sat::lbool::l_true);
    }
}

TEST(shard, total_conflicts_beat_single_instance_on_pigeonhole) {
    // The scaling claim behind cube-and-conquer: splitting the hard query
    // yields subproblems whose *total* refutation work undercuts the single
    // instance — the win portfolio racing cannot provide. Measured in
    // conflicts so the assertion is scheduling- and core-count-independent
    // (all-UNSAT shard work is deterministic). Shallow splits win this
    // metric: each extra level multiplies the per-pair re-learning cost, so
    // depth 1-2 minimizes total work while already exposing 2-4x
    // parallelism (see bench_substrate_solvers for the sweep).
    sat::solver baseline;
    encode_pigeonhole(baseline, 7);
    ASSERT_EQ(baseline.solve(), sat::solve_result::unsat);
    const std::uint64_t baseline_conflicts = baseline.stats().conflicts;

    shard_outcome sharded = shard_pigeonhole(7, 2, 1);
    EXPECT_TRUE(sharded.result.is_unsat());
    EXPECT_LT(sharded.stats.conflicts, baseline_conflicts)
        << "cube-sharded total conflicts should undercut the single instance";
}

// ---- engine integration -----------------------------------------------------

TEST(engine_shard, unsat_matches_plain_check_and_composes_with_cache) {
    smt::term_manager tm;
    smt::term x = tm.mk_bv_var("x", 16);
    smt::term y = tm.mk_bv_var("y", 16);
    smt::term commut = tm.mk_distinct(tm.mk_bvadd(x, y),
                                      tm.mk_bvsub(tm.mk_bvadd(tm.mk_bvadd(y, x), y), y));

    smt_engine engine(tm, {.threads = 2});
    shard_stats stats;
    EXPECT_EQ(solve_sharded(engine, {commut}, 2, &stats).ans, answer::unsat);
    EXPECT_GT(stats.cubes, 0u);
    // The sharded result landed in the cache: the re-check (plain or
    // sharded) is a hit, no new solver runs.
    const auto runs = engine.stats().solver_runs;
    EXPECT_EQ(solve_single(engine, {commut}).ans, answer::unsat);
    EXPECT_EQ(solve_sharded(engine, {commut}, 2).ans, answer::unsat);
    EXPECT_EQ(engine.stats().solver_runs, runs);
    EXPECT_EQ(engine.stats().cache_hits, 2u);
}

TEST(engine_shard, sat_model_valid_under_any_thread_count) {
    for (unsigned threads : {1u, 4u}) {
        smt::term_manager tm;
        smt::term x = tm.mk_bv_var("x", 16);
        smt::term feasible = tm.mk_and(tm.mk_ult(tm.mk_bv_const(16, 10), x),
                                       tm.mk_ult(x, tm.mk_bv_const(16, 100)));
        smt_engine engine(tm, {.use_cache = false, .threads = threads});
        auto result = solve_sharded(engine, {feasible}, 3);
        ASSERT_TRUE(result.is_sat()) << "threads " << threads;
        EXPECT_EQ(eval_model(tm, feasible, result.model), 1u);
    }
}

TEST(engine_shard, sliced_shard_matches_plain_check) {
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

    strategy sliced = strategy::shard(2);
    sliced.slice_conflicts = 200;
    smt_engine sharded(tm, {.threads = 2});
    query_handle handle = sharded.submit({assertions, {}, sliced});
    backend_result got = handle.get();
    EXPECT_EQ(got.ans, expect.ans);
    EXPECT_EQ(handle.stats().strategy.slice_conflicts, 200u);
    EXPECT_GT(handle.stats().shard.rounds, 0u);
    if (got.is_sat()) {
        model_evaluator eval(tm, got.model);
        EXPECT_EQ(eval.value(tm.mk_bvmul(x, y)), 143u);
    }
}

TEST(engine_shard, depth_zero_degrades_to_plain_check) {
    smt::term_manager tm;
    smt::term x = tm.mk_bv_var("x", 8);
    smt::term q = tm.mk_ult(x, tm.mk_bv_const(8, 5));
    smt_engine engine(tm);
    EXPECT_TRUE(solve_single(engine, {q}).is_sat());
    // The depth-0 shard request is a cache hit on the plain solve's entry.
    shard_stats stats;
    EXPECT_TRUE(solve_sharded(engine, {q}, 0, &stats).is_sat());
    EXPECT_EQ(engine.stats().cache_hits, 1u);
    EXPECT_EQ(stats.cubes, 0u);
}

// ---- async futures ----------------------------------------------------------

TEST(engine_async, future_resolves_and_result_lands_in_cache) {
    smt::term_manager tm;
    smt::term x = tm.mk_bv_var("x", 16);
    smt::term y = tm.mk_bv_var("y", 16);
    smt::term commut = tm.mk_distinct(tm.mk_bvadd(x, y),
                                      tm.mk_bvsub(tm.mk_bvadd(tm.mk_bvadd(y, x), y), y));
    smt_engine engine(tm, {.threads = 2});
    auto future = submit_single(engine, {commut});
    EXPECT_EQ(future.get().ans, answer::unsat);
    EXPECT_EQ(solve_single(engine, {commut}).ans, answer::unsat);
    EXPECT_EQ(engine.stats().cache_hits, 1u);
    EXPECT_EQ(engine.stats().solver_runs, 1u);
}

TEST(engine_async, inflight_duplicates_coalesce_instead_of_resolving) {
    smt::term_manager tm;
    smt::term x = tm.mk_bv_var("x", 6);
    smt::term y = tm.mk_bv_var("y", 6);
    // Mildly hard (multiplier-backed UNSAT at a small width) so the first
    // query is usually still in flight when the duplicates arrive; either
    // way the accounting below must hold.
    smt::term hard = tm.mk_distinct(
        tm.mk_bvmul(x, tm.mk_bvadd(y, y)),
        tm.mk_bvadd(tm.mk_bvmul(x, y), tm.mk_bvmul(x, y)));
    smt_engine engine(tm, {.threads = 2});
    auto f1 = submit_single(engine, {hard});
    auto f2 = submit_single(engine, {hard});
    auto f3 = submit_single(engine, {hard});
    EXPECT_EQ(f1.get().ans, answer::unsat);
    EXPECT_EQ(f2.get().ans, answer::unsat);
    EXPECT_EQ(f3.get().ans, answer::unsat);
    // Exactly one solve; the duplicates either coalesced onto the in-flight
    // future or hit the cache after it completed — never re-solved.
    auto stats = engine.stats();
    EXPECT_EQ(stats.solver_runs, 1u);
    EXPECT_EQ(stats.coalesced + stats.cache_hits, 2u);
    EXPECT_EQ(stats.queries, 3u);
}

TEST(engine_async, cache_hit_resolves_immediately) {
    smt::term_manager tm;
    smt::term x = tm.mk_bv_var("x", 8);
    smt::term q = tm.mk_ult(x, tm.mk_bv_const(8, 9));
    smt_engine engine(tm);
    EXPECT_TRUE(solve_single(engine, {q}).is_sat());
    auto future = submit_single(engine, {q});
    EXPECT_TRUE(future.get().is_sat());
    EXPECT_EQ(engine.stats().cache_hits, 1u);
    EXPECT_EQ(engine.stats().solver_runs, 1u);
}

// ---- cache capacity / LRU ---------------------------------------------------

TEST(query_cache_lru, capacity_bounds_size_and_evicts_least_recently_used) {
    smt::term_manager tm;
    smt::term x = tm.mk_bv_var("x", 8);
    auto q = [&](std::uint64_t bound) {
        return std::vector<smt::term>{tm.mk_ult(x, tm.mk_bv_const(8, bound))};
    };
    smt_engine engine(tm, {.cache_capacity = 2});
    EXPECT_TRUE(solve_single(engine, q(10)).is_sat());
    EXPECT_TRUE(solve_single(engine, q(20)).is_sat());
    EXPECT_TRUE(solve_single(engine, q(10)).is_sat());  // touch: q10 is now MRU
    EXPECT_EQ(engine.stats().cache_hits, 1u);
    EXPECT_TRUE(solve_single(engine, q(30)).is_sat());  // evicts q20 (LRU)
    EXPECT_EQ(engine.cache().size(), 2u);
    EXPECT_EQ(engine.cache().stats().evictions, 1u);
    // q10 stayed resident, q20 was evicted and must re-solve.
    EXPECT_TRUE(solve_single(engine, q(10)).is_sat());
    EXPECT_EQ(engine.stats().cache_hits, 2u);
    const auto runs = engine.stats().solver_runs;
    EXPECT_TRUE(solve_single(engine, q(20)).is_sat());
    EXPECT_EQ(engine.stats().solver_runs, runs + 1);
}

TEST(query_cache_lru, unbounded_by_default) {
    smt::term_manager tm;
    smt::term x = tm.mk_bv_var("x", 8);
    smt_engine engine(tm);
    for (std::uint64_t i = 0; i < 16; ++i)
        EXPECT_TRUE(solve_single(engine, {tm.mk_ult(x, tm.mk_bv_const(8, 100 + i))}).is_sat());
    EXPECT_EQ(engine.cache().size(), 16u);
    EXPECT_EQ(engine.cache().stats().evictions, 0u);
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

TEST(application_routing, gametime_sharded_wcet_matches_plain) {
    ir::program p = ir::parse_program(modexp_src);
    ir::function f = ir::resolve_static_branches(
        ir::unroll_loops(*p.find_function("modexp")), p.width);
    ir::cfg g = ir::cfg::build(p, f);

    smt::term_manager tm_basis;
    substrate::smt_engine basis_engine(tm_basis);
    gametime::basis_info basis = gametime::extract_basis_paths(g, basis_engine);
    gametime::sarm_platform platform(p, f);
    gametime::timing_model model = gametime::learn_timing_model(basis, platform);
    smt::term_manager tm_plain;
    substrate::smt_engine plain(tm_plain);
    auto expected = gametime::predict_wcet(g, model, plain);
    ASSERT_TRUE(expected.has_value());

    // A fresh engine so the feasibility query actually solves (no cache
    // carry-over): decided as a depth-2 shard, the predicted longest path
    // is feasible as well.
    smt::term_manager tm_shard;
    substrate::smt_engine sharded(tm_shard, {.threads = 2});
    EXPECT_TRUE(
        ir::feasible_path_witness_with(g, expected->longest, sharded, strategy::shard(2)));
    EXPECT_EQ(sharded.stats().dispatched.shard, 1u);
}

TEST(application_routing, invgen_sharded_step_proof_matches_sequential) {
    aig::aig circuit;
    auto a = circuit.add_latch(true);
    auto b = circuit.add_latch(true);
    circuit.set_latch_next(a, b);
    circuit.set_latch_next(b, a);
    auto result = invgen::generate_invariants(circuit, {.simulation_rounds = 2});
    bool sequential = invgen::prove_with_invariants(circuit, a, result.proven);
    bool sharded = invgen::prove_with_invariants(circuit, a, result.proven,
                                                 {.shard_depth = 2, .shard_threads = 2});
    EXPECT_EQ(sequential, sharded);
    EXPECT_TRUE(sharded);

    // And a non-inductive property is rejected identically.
    aig::aig loose;
    auto in = loose.add_input();
    auto l = loose.add_latch(true);
    loose.set_latch_next(l, in);
    bool seq_loose = invgen::prove_with_invariants(loose, l, {});
    bool shard_loose = invgen::prove_with_invariants(loose, l, {},
                                                     {.shard_depth = 2, .shard_threads = 2});
    EXPECT_EQ(seq_loose, shard_loose);
    EXPECT_FALSE(shard_loose);
}

TEST(application_routing, ogis_overlapped_pipeline_synthesizes_correct_program) {
    auto bench = ogis::benchmark_p1_interchange();
    bench.config.overlap_queries = true;
    bench.config.oracle_threads = 2;
    bench.config.engine.threads = 2;
    auto outcome = ogis::run_benchmark(bench);
    ASSERT_EQ(outcome.status, core::loop_status::success);
    ASSERT_TRUE(outcome.program.has_value());
    // The synthesized program must agree with the reference semantics.
    util::rng rng(123);
    for (int t = 0; t < 64; ++t) {
        ogis::io_vector in{rng.next_u64() & 0xffffffffULL, rng.next_u64() & 0xffffffffULL};
        EXPECT_EQ(outcome.program->eval(bench.config.library, in), bench.reference(in));
    }
    EXPECT_GT(outcome.stats.oracle_queries, 0u);
    EXPECT_GT(outcome.stats.conflicts, 0u);
}

TEST(application_routing, ogis_parallel_seed_labelling_matches_sequential) {
    auto sequential_bench = ogis::benchmark_rightmost_off();
    auto sequential = ogis::run_benchmark(sequential_bench);
    ASSERT_EQ(sequential.status, core::loop_status::success);

    auto parallel_bench = ogis::benchmark_rightmost_off();
    parallel_bench.config.oracle_threads = 4;
    auto parallel = ogis::run_benchmark(parallel_bench);
    ASSERT_EQ(parallel.status, core::loop_status::success);

    // Same seeds, same labels, same loop: identical program and history.
    EXPECT_EQ(sequential.program->to_string(sequential_bench.config.library),
              parallel.program->to_string(parallel_bench.config.library));
    EXPECT_EQ(sequential.stats.iterations, parallel.stats.iterations);
    EXPECT_EQ(sequential.stats.oracle_queries, parallel.stats.oracle_queries);
}

}  // namespace
}  // namespace sciduction::substrate
