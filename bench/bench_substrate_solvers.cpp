// Substrate benchmarks: throughput of the deductive engines every
// application sits on — the CDCL SAT core, the QF_BV bit-blaster, and the
// AIG parallel simulator — plus the substrate layer on top of them
// (portfolio racing, query cache, batch dispatch).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "aig/aig.hpp"
#include "sat/dimacs.hpp"
#include "sat/pigeonhole.hpp"
#include "sat/solver.hpp"
#include "smt/solver.hpp"
#include "substrate/engine.hpp"
#include "substrate/portfolio.hpp"
#include "substrate/shard.hpp"
#include "util/rng.hpp"

namespace {

using namespace sciduction;
using sat::encode_pigeonhole;  // the shared hard-UNSAT family (sat/pigeonhole.hpp)

void BM_sat_pigeonhole(benchmark::State& state) {
    const int holes = static_cast<int>(state.range(0));
    for (auto _ : state) {
        sat::solver s;
        encode_pigeonhole(s, holes);
        auto r = s.solve();
        if (r != sat::solve_result::unsat) state.SkipWithError("pigeonhole must be unsat");
        benchmark::DoNotOptimize(s.stats().conflicts);
    }
}
BENCHMARK(BM_sat_pigeonhole)->Arg(6)->Arg(7)->Arg(8)->Unit(benchmark::kMillisecond);

// Portfolio-vs-single on the same pigeonhole family: 4 diversified CDCL
// instances race on a thread pool; the first answer wins and cancels the
// rest. Compare against BM_sat_pigeonhole at equal hole counts. The win
// comes from two effects: genuine parallelism (needs cores) and min-over-
// strategies (a diversified member refutes faster than the baseline).
void BM_sat_pigeonhole_portfolio(benchmark::State& state) {
    const int holes = static_cast<int>(state.range(0));
    for (auto _ : state) {
        substrate::portfolio_config cfg;
        cfg.members = 4;
        cfg.threads = 4;
        auto outcome = substrate::race(
            [&](unsigned member) {
                auto b = std::make_unique<substrate::sat_backend>(
                    substrate::diversified_options(member));
                encode_pigeonhole(b->solver(), holes);
                return b;
            },
            cfg, nullptr);
        if (!outcome.result.is_unsat()) state.SkipWithError("pigeonhole must be unsat");
        benchmark::DoNotOptimize(outcome.winner);
    }
}
BENCHMARK(BM_sat_pigeonhole_portfolio)->Arg(6)->Arg(7)->Arg(8)->Unit(benchmark::kMillisecond);

// Cube-and-conquer on the same pigeonhole family: lookahead splits the one
// hard query into a cube tree whose leaves solve independently — the
// "single hard query, many cores" scenario portfolio racing cannot cover.
// The counters expose total CPU conflicts: at depth 1-2 the cube total
// *undercuts* the single instance (measured here: PHP-7 ~4.9k vs ~5.9k,
// PHP-8 ~18.3k vs ~21.5k at depth 1) while exposing 2-4x parallelism;
// deeper trees trade extra total work for more parallel slack, the classic
// cube-and-conquer tradeoff (wall-clock wins need a multi-core runner —
// this container is 1-core, so compare the conflict counters).
void BM_sat_pigeonhole_sharded(benchmark::State& state) {
    const int holes = static_cast<int>(state.range(0));
    const unsigned depth = static_cast<unsigned>(state.range(1));
    std::uint64_t cube_conflicts = 0;
    std::uint64_t baseline_conflicts = 0;
    for (auto _ : state) {
        sat::solver prototype;
        encode_pigeonhole(prototype, holes);
        auto plan = substrate::generate_cubes(prototype, {.depth = depth});
        substrate::thread_pool pool(4);
        auto outcome = substrate::solve_cubes(
            [&](std::size_t) {
                auto b = std::make_unique<substrate::sat_backend>();
                encode_pigeonhole(b->solver(), holes);
                return b;
            },
            plan, pool);
        if (!outcome.result.is_unsat()) {
            state.SkipWithError("pigeonhole must be unsat");
            break;
        }
        cube_conflicts += outcome.stats.conflicts;
        state.PauseTiming();
        sat::solver single;
        encode_pigeonhole(single, holes);
        const bool single_unsat = single.solve() == sat::solve_result::unsat;
        baseline_conflicts += single.stats().conflicts;
        state.ResumeTiming();
        if (!single_unsat) {
            state.SkipWithError("pigeonhole must be unsat");
            break;
        }
    }
    state.counters["cube_conflicts"] = benchmark::Counter(
        static_cast<double>(cube_conflicts) / static_cast<double>(state.iterations()));
    state.counters["single_conflicts"] = benchmark::Counter(
        static_cast<double>(baseline_conflicts) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_sat_pigeonhole_sharded)
    ->Args({7, 1})
    ->Args({7, 2})
    ->Args({8, 1})
    ->Args({8, 3})
    ->Unit(benchmark::kMillisecond);

// ---- solver-feature benchmarks (reduction + inprocessing) -------------------
// The modern-CDCL acceptance evidence: learnt-DB reduction + inprocessing
// (solver_features) against the feature-off baseline, on the corpus
// instances this PR checked in as visible wins plus PHP-8 as the known
// adversarial shape (resolution-hard: the proof needs the clauses
// reduction drops, so features LOSE there — recorded on purpose so the
// tradeoff stays measured, see docs/TUNING.md). Counters per iteration:
// conflicts under each configuration and the derived conflicts/sec; wall
// time is the benchmark's own timing of the featured run.

/// The corpus instances where reduction + inprocessing measurably win
/// (headers in each file carry the numbers); index is the Arg.
const char* const kFeatureBenchInstances[] = {
    "rand3_unsat_e.cnf", "redun_wide_a.cnf", "redun_wide_b.cnf",
    "redun_wide_c.cnf",  "defn_alias_a.cnf",
};

sat::dimacs_problem load_corpus_cnf(const char* name) {
    const std::filesystem::path path = std::filesystem::path(SCIDUCTION_CORPUS_DIR) / name;
    std::ifstream in(path);
    return sat::read_dimacs(in);
}

/// Times the featured run and reports baseline-vs-featured conflict
/// counters; shared by the corpus and pigeonhole variants below.
void run_feature_bench(benchmark::State& state, const sat::dimacs_problem& problem,
                       sat::solver_features features) {
    std::uint64_t featured_conflicts = 0;
    std::uint64_t baseline_conflicts = 0;
    double featured_seconds = 0.0;
    for (auto _ : state) {
        sat::solver s;
        s.set_options(sat::apply_features({}, features));
        problem.load_into(s);
        const auto begin = std::chrono::steady_clock::now();
        auto r = s.solve();
        featured_seconds += std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - begin)
                                .count();
        if (r == sat::solve_result::unknown) state.SkipWithError("must decide");
        featured_conflicts += s.stats().conflicts;
        state.PauseTiming();
        sat::solver base;
        problem.load_into(base);
        if (base.solve() == sat::solve_result::unknown) state.SkipWithError("must decide");
        baseline_conflicts += base.stats().conflicts;
        state.ResumeTiming();
    }
    const auto iters = static_cast<double>(state.iterations());
    state.counters["conflicts"] =
        benchmark::Counter(static_cast<double>(featured_conflicts) / iters);
    state.counters["baseline_conflicts"] =
        benchmark::Counter(static_cast<double>(baseline_conflicts) / iters);
    if (featured_seconds > 0.0)
        state.counters["conflicts_per_sec"] =
            benchmark::Counter(static_cast<double>(featured_conflicts) / featured_seconds);
}

void BM_sat_inprocessing(benchmark::State& state) {
    const auto problem =
        load_corpus_cnf(kFeatureBenchInstances[static_cast<std::size_t>(state.range(0))]);
    run_feature_bench(state, problem, {.reduce = true, .inprocess = true});
}
BENCHMARK(BM_sat_inprocessing)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);

void BM_sat_reduce(benchmark::State& state) {
    const auto problem =
        load_corpus_cnf(kFeatureBenchInstances[static_cast<std::size_t>(state.range(0))]);
    run_feature_bench(state, problem, {.reduce = true, .inprocess = false});
}
BENCHMARK(BM_sat_reduce)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);

// PHP-8 with features on: the adversarial case (reduction fights the
// resolution proof). Keep it in the record so the regression direction is
// visible both ways.
void BM_sat_inprocessing_pigeonhole(benchmark::State& state) {
    for (auto _ : state) {
        sat::solver s;
        s.set_options(sat::apply_features({}, {.reduce = true, .inprocess = true}));
        encode_pigeonhole(s, static_cast<int>(state.range(0)));
        if (s.solve() != sat::solve_result::unsat) state.SkipWithError("pigeonhole must be unsat");
        benchmark::DoNotOptimize(s.stats().conflicts);
    }
}
BENCHMARK(BM_sat_inprocessing_pigeonhole)->Arg(7)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_sat_random_3sat(benchmark::State& state) {
    const int nv = static_cast<int>(state.range(0));
    const int nc = static_cast<int>(4.0 * nv);  // below threshold: mostly sat
    util::rng r(99);
    for (auto _ : state) {
        sat::solver s;
        for (int i = 0; i < nv; ++i) s.new_var();
        for (int i = 0; i < nc; ++i) {
            sat::clause_lits c;
            for (int j = 0; j < 3; ++j)
                c.push_back(sat::mk_lit(
                    static_cast<sat::var>(r.next_below(static_cast<std::uint64_t>(nv))),
                    r.next_bool()));
            s.add_clause(c);
        }
        benchmark::DoNotOptimize(s.solve());
    }
}
BENCHMARK(BM_sat_random_3sat)->Arg(100)->Arg(200)->Unit(benchmark::kMillisecond);

void BM_smt_commutativity_proof(benchmark::State& state) {
    // Prove x + y == y + x at the given width by refutation (UNSAT).
    const unsigned width = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        smt::term_manager tm;
        smt::term x = tm.mk_bv_var("x", width);
        smt::term y = tm.mk_bv_var("y", width);
        smt::smt_solver s(tm);
        // Defeat the commutative-normalization rewrite with an obfuscated rhs.
        smt::term lhs = tm.mk_bvadd(x, y);
        smt::term rhs = tm.mk_bvsub(tm.mk_bvadd(tm.mk_bvadd(y, x), y), y);
        s.assert_term(tm.mk_distinct(lhs, rhs));
        if (s.check() != smt::check_result::unsat) state.SkipWithError("must be unsat");
    }
}
BENCHMARK(BM_smt_commutativity_proof)->Arg(8)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_smt_mul_distributivity(benchmark::State& state) {
    // x*(y+z) == x*y + x*z — multiplier-heavy UNSAT instance.
    const unsigned width = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        smt::term_manager tm;
        smt::term x = tm.mk_bv_var("x", width);
        smt::term y = tm.mk_bv_var("y", width);
        smt::term z = tm.mk_bv_var("z", width);
        smt::smt_solver s(tm);
        s.assert_term(tm.mk_distinct(tm.mk_bvmul(x, tm.mk_bvadd(y, z)),
                                     tm.mk_bvadd(tm.mk_bvmul(x, y), tm.mk_bvmul(x, z))));
        if (s.check() != smt::check_result::unsat) state.SkipWithError("must be unsat");
    }
}
// Width 8 already takes ~1 min per proof on the from-scratch CDCL core
// (three 8-bit multipliers in one UNSAT query); the sweep stops at 6 to
// keep the suite snappy — the scaling trend is visible from 4 -> 6.
BENCHMARK(BM_smt_mul_distributivity)->Arg(4)->Arg(6)->Unit(benchmark::kMillisecond);

void BM_smt_path_feasibility(benchmark::State& state) {
    // The query shape GameTime issues: a conjunction of branch constraints.
    for (auto _ : state) {
        smt::term_manager tm;
        smt::term x = tm.mk_bv_var("x", 32);
        smt::smt_solver s(tm);
        for (int i = 0; i < 8; ++i) {
            smt::term bit = tm.mk_bvand(tm.mk_bvlshr(x, tm.mk_bv_const(32, i)),
                                        tm.mk_bv_const(32, 1));
            s.assert_term(tm.mk_eq(bit, tm.mk_bv_const(32, i % 2)));
        }
        if (s.check() != smt::check_result::sat) state.SkipWithError("must be sat");
        benchmark::DoNotOptimize(s.model_value(tm.mk_bv_var("x", 32)));
    }
}
BENCHMARK(BM_smt_path_feasibility)->Unit(benchmark::kMillisecond);

/// The repeated-oracle-query shape: the same branch-constraint conjunction
/// the sciduction loops re-issue. Builds the terms once, checks many times.
std::vector<smt::term> feasibility_assertions(smt::term_manager& tm, unsigned mul_width) {
    smt::term x = tm.mk_bv_var("x", 32);
    smt::term y = tm.mk_bv_var("y", 32);
    std::vector<smt::term> assertions;
    for (int i = 0; i < 8; ++i) {
        smt::term bit = tm.mk_bvand(tm.mk_bvlshr(x, tm.mk_bv_const(32, i)),
                                    tm.mk_bv_const(32, 1));
        assertions.push_back(tm.mk_eq(bit, tm.mk_bv_const(32, i % 2)));
    }
    // A multiplier makes the solve non-trivial so caching has real work to
    // save at the configured width. The branch constraints pin x's low byte
    // to 0xAA; the product target is chosen compatible (ym = 77 solves it).
    smt::term xm = tm.mk_extract(x, mul_width - 1, 0);
    smt::term ym = tm.mk_extract(y, mul_width - 1, 0);
    assertions.push_back(tm.mk_eq(tm.mk_bvmul(xm, ym),
                                  tm.mk_bv_const(mul_width, (0xAAULL * 77) &
                                                                smt::term_manager::mask(mul_width))));
    return assertions;
}

// Cached-vs-cold on a repeated query: cold re-solves every iteration (the
// request bypasses the cache); warm answers from the substrate query cache
// after the first solve. The ISSUE acceptance target is >= 10x between
// these two.
void BM_smt_repeated_query_cold(benchmark::State& state) {
    smt::term_manager tm;
    auto assertions = feasibility_assertions(tm, static_cast<unsigned>(state.range(0)));
    substrate::smt_engine engine(tm, {.use_cache = false});
    for (auto _ : state) {
        auto r = engine.submit(assertions, substrate::strategy::single()).get();
        if (!r.is_sat()) state.SkipWithError("must be sat");
        benchmark::DoNotOptimize(r.model);
    }
}
BENCHMARK(BM_smt_repeated_query_cold)->Arg(8)->Arg(12)->Unit(benchmark::kMicrosecond);

void BM_smt_repeated_query_cached(benchmark::State& state) {
    smt::term_manager tm;
    auto assertions = feasibility_assertions(tm, static_cast<unsigned>(state.range(0)));
    substrate::smt_engine engine(tm);
    for (auto _ : state) {
        auto r = engine.submit(assertions, substrate::strategy::single()).get();
        if (!r.is_sat()) state.SkipWithError("must be sat");
        benchmark::DoNotOptimize(r.model);
    }
}
BENCHMARK(BM_smt_repeated_query_cached)->Arg(8)->Arg(12)->Unit(benchmark::kMicrosecond);

// Batch dispatch of independent queries (the "all basis-path feasibility
// checks at once" shape) at 1 vs 4 worker threads: submit-many, await-all.
void BM_smt_batch_feasibility(benchmark::State& state) {
    const unsigned threads = static_cast<unsigned>(state.range(0));
    smt::term_manager tm;
    std::vector<substrate::solve_request> queries;
    smt::term x = tm.mk_bv_var("x", 16);
    smt::term y = tm.mk_bv_var("y", 16);
    for (std::uint64_t i = 0; i < 64; ++i)
        queries.push_back({{tm.mk_eq(tm.mk_bvmul(x, y), tm.mk_bv_const(16, 6 + i)),
                            tm.mk_ult(tm.mk_bv_const(16, 1), x)},
                           {},
                           substrate::strategy::single()});
    for (auto _ : state) {
        substrate::smt_engine engine(tm, {.use_cache = false, .threads = threads});
        std::vector<substrate::query_handle> handles;
        handles.reserve(queries.size());
        for (const auto& q : queries) handles.push_back(engine.submit(q));
        std::size_t decided = 0;
        for (auto& h : handles) decided += h.get().ans != substrate::answer::unknown;
        benchmark::DoNotOptimize(decided);
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_smt_batch_feasibility)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// The adaptive classifier over a mixed query stream: a tiny query, a
// multiplier-backed medium query, and a re-submit of the tiny one, all with
// strategy automatic. The per-kind auto-pick counters are uploaded as a CI
// artifact (ci.yml, "bench-counters"): with threads pinned to 4 the
// classifier's inputs are machine-independent, so the counters record the
// selection behaviour over time.
void BM_smt_engine_auto_strategy(benchmark::State& state) {
    std::uint64_t picked_single = 0;
    std::uint64_t picked_portfolio = 0;
    std::uint64_t picked_shard = 0;
    std::uint64_t hits = 0;
    for (auto _ : state) {
        smt::term_manager tm;
        substrate::smt_engine engine(tm, {.threads = 4});
        smt::term t = tm.mk_bv_var("tiny", 8);
        std::vector<smt::term> tiny{tm.mk_ult(t, tm.mk_bv_const(8, 9))};
        auto medium = feasibility_assertions(tm, 12);
        // Wide/huge: cheap to decide (pure propagation) but structurally
        // large, so the size thresholds — not the solve cost — drive the
        // classifier into its portfolio and shard regimes.
        std::vector<smt::term> wide;
        for (int i = 0; i < 220; ++i)
            wide.push_back(tm.mk_eq(tm.mk_bv_var(std::string("w").append(std::to_string(i)), 16),
                                    tm.mk_bv_const(16, 7 * i + 1)));
        std::vector<smt::term> huge;
        for (int i = 0; i < 1600; ++i)
            huge.push_back(tm.mk_eq(tm.mk_bv_var(std::string("h").append(std::to_string(i)), 16),
                                    tm.mk_bv_const(16, 5 * i + 3)));
        if (!engine.submit(tiny).get().is_sat()) state.SkipWithError("must be sat");
        if (!engine.submit(medium).get().is_sat()) state.SkipWithError("must be sat");
        if (!engine.submit(wide).get().is_sat()) state.SkipWithError("must be sat");
        if (!engine.submit(huge).get().is_sat()) state.SkipWithError("must be sat");
        if (!engine.submit(tiny).get().is_sat()) state.SkipWithError("must be sat");
        auto stats = engine.stats();
        picked_single += stats.auto_picks.single;
        picked_portfolio += stats.auto_picks.portfolio;
        picked_shard += stats.auto_picks.shard;
        hits += stats.cache_hits;
    }
    const auto iters = static_cast<double>(state.iterations());
    state.counters["auto_single"] = benchmark::Counter(static_cast<double>(picked_single) / iters);
    state.counters["auto_portfolio"] =
        benchmark::Counter(static_cast<double>(picked_portfolio) / iters);
    state.counters["auto_shard"] = benchmark::Counter(static_cast<double>(picked_shard) / iters);
    state.counters["cache_hits"] = benchmark::Counter(static_cast<double>(hits) / iters);
}
BENCHMARK(BM_smt_engine_auto_strategy)->Unit(benchmark::kMillisecond);

// The persistent-cache warm start (ISSUE 5): every iteration constructs a
// FRESH term_manager + engine pointed at one cache_path, issues a small
// GameTime-shaped query stream, and destroys the engine (which saves the
// cache). Iteration 1 of a cold file pays the solves; every later
// iteration — and every later *run* against the same path, which is how
// the CI warm-cache step drives it — answers from disk with zero solver
// runs, via structurally remapped, evaluation-verified models (the
// variable names differ per iteration on purpose). Counters (per
// iteration): solver_runs and cache_hits from the engine; remapped_models,
// remap_rejects and persisted_loads from the cache. Google Benchmark keeps
// only the last batch's counters, and by then every iteration reloads what
// the one before it saved, so first_solver_runs and first_persisted_loads
// also report the process's first iteration: the only one that shows
// whether the run started from a cold file (8 solves, 0 loads) or a warm
// one (0 solves, loads > 0).
// Set SCIDUCTION_BENCH_CACHE_PATH to persist across runs (CI does);
// otherwise a scratch file is used and removed.
void BM_smt_engine_persistent_cache(benchmark::State& state) {
    const char* env_path = std::getenv("SCIDUCTION_BENCH_CACHE_PATH");
    const std::string path =
        env_path != nullptr
            ? std::string(env_path)
            : (std::filesystem::temp_directory_path() / "bench_persistent_cache.bin").string();
    std::uint64_t solver_runs = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t remapped = 0;
    std::uint64_t rejects = 0;
    std::uint64_t persisted = 0;
    std::uint64_t iteration = 0;
    // Captured once per process: the benchmark function runs once per batch.
    static bool first_taken = false;
    static std::uint64_t first_solver_runs = 0;
    static std::uint64_t first_persisted_loads = 0;
    for (auto _ : state) {
        smt::term_manager tm;
        substrate::smt_engine engine(tm, {.cache_path = path});
        // Per-iteration variable names: a hit can only come from the
        // structural key, never from id or name reuse.
        const std::string salt = "it" + std::to_string(iteration++);
        smt::term x = tm.mk_bv_var("x" + salt, 16);
        smt::term y = tm.mk_bv_var("y" + salt, 16);
        for (std::uint64_t i = 0; i < 8; ++i) {
            auto r = engine
                         .submit({tm.mk_eq(tm.mk_bvmul(x, y), tm.mk_bv_const(16, 1 + 3 * i)),
                                  tm.mk_ult(tm.mk_bv_const(16, 1), x)},
                                 substrate::strategy::single())
                         .get();
            if (r.ans == substrate::answer::unknown) state.SkipWithError("must decide");
            benchmark::DoNotOptimize(r.model);
        }
        auto stats = engine.stats();
        solver_runs += stats.solver_runs;
        cache_hits += stats.cache_hits;
        auto cs = engine.cache().stats();
        remapped += cs.remapped_models;
        rejects += cs.remap_rejects;
        persisted += cs.persisted_loads;
        if (!first_taken) {
            first_taken = true;
            first_solver_runs = stats.solver_runs;
            first_persisted_loads = cs.persisted_loads;
        }
    }
    const auto iters = static_cast<double>(state.iterations());
    state.counters["solver_runs"] = benchmark::Counter(static_cast<double>(solver_runs) / iters);
    state.counters["cache_hits"] = benchmark::Counter(static_cast<double>(cache_hits) / iters);
    state.counters["remapped_models"] = benchmark::Counter(static_cast<double>(remapped) / iters);
    state.counters["remap_rejects"] = benchmark::Counter(static_cast<double>(rejects) / iters);
    state.counters["persisted_loads"] = benchmark::Counter(static_cast<double>(persisted) / iters);
    state.counters["first_solver_runs"] =
        benchmark::Counter(static_cast<double>(first_solver_runs));
    state.counters["first_persisted_loads"] =
        benchmark::Counter(static_cast<double>(first_persisted_loads));
    if (env_path == nullptr) std::remove(path.c_str());
}
BENCHMARK(BM_smt_engine_persistent_cache)->Unit(benchmark::kMillisecond);

void BM_aig_parallel_simulation(benchmark::State& state) {
    // 64-way parallel random simulation of a shift-register + logic mesh.
    aig::aig g;
    std::vector<aig::literal> ins;
    for (int i = 0; i < 8; ++i) ins.push_back(g.add_input());
    std::vector<aig::literal> latches;
    for (int i = 0; i < 64; ++i) latches.push_back(g.add_latch(false));
    util::rng r(5);
    std::vector<aig::literal> pool = ins;
    pool.insert(pool.end(), latches.begin(), latches.end());
    for (int i = 0; i < 500; ++i) {
        aig::literal a = pool[r.next_below(pool.size())];
        aig::literal b = pool[r.next_below(pool.size())];
        pool.push_back(g.add_and(r.next_bool() ? a : aig::negate(a),
                                 r.next_bool() ? b : aig::negate(b)));
    }
    for (std::size_t i = 0; i < latches.size(); ++i)
        g.set_latch_next(latches[i], pool[pool.size() - 1 - i]);
    auto st = g.initial_state();
    std::vector<std::uint64_t> inputs(8);
    for (auto _ : state) {
        for (auto& w : inputs) w = r.next_u64();
        auto values = g.simulate_step(st, inputs);
        st = g.next_state(values);
        benchmark::DoNotOptimize(st[0]);
    }
    state.SetItemsProcessed(state.iterations() * 64);  // patterns per step
}
BENCHMARK(BM_aig_parallel_simulation);

}  // namespace

BENCHMARK_MAIN();
