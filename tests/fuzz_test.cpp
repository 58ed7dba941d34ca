// Differential fuzz harness guarding the modernized CDCL core (clause
// arena, Glucose reduction, restart-boundary inprocessing). Three layers:
//
//   1. Seeded random-CNF differential rounds: every instance is decided by
//      the feature-off reference, then re-decided under {reduce-only,
//      inprocess-only, both} with aggressively tightened triggers and under
//      every strategy kind {single, portfolio, shard} through solve_cnf —
//      verdicts must agree and every sat model must satisfy the ORIGINAL
//      clauses (eliminated variables reconstructed).
//   2. Bitwise regression pins: with the features off, the search is
//      bit-identical to the pre-PR solver on the PR-3 pigeonhole harness
//      (conflicts / decisions / propagations / digest pinned to captured
//      values), and `clause_digest` is unchanged by inprocessing.
//   3. Composition pins: BVE model reconstruction through the query_cache
//      re-validation path and the DIMACS solve_cnf_file path, and the
//      deterministic portfolio/shard disciplines staying bit-identical
//      across {1,4} threads with the new features enabled.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "cnf_fuzz.hpp"
#include "sat/dimacs.hpp"
#include "sat/pigeonhole.hpp"
#include "sat/solver.hpp"
#include "substrate/portfolio.hpp"
#include "substrate/query_cache.hpp"
#include "substrate/solve_request.hpp"
#include "substrate/thread_pool.hpp"

namespace sciduction {
namespace {

using substrate::answer;
using substrate::cnf_outcome;
using substrate::solve_cnf;
using substrate::strategy;
using test::fuzz_cnf;
using test::generate_cnf;

/// Feature knobs tightened so reduction and inprocessing fire many times
/// even on the harness's small instances (the default triggers are tuned
/// for real workloads and would never trip below ~2000 conflicts).
sat::solver_options aggressive(bool reduce, bool inprocess) {
    sat::solver_options o;
    o.reduce_learnts = reduce;
    o.reduce_first = 50;
    o.reduce_inc = 20;
    o.inprocess = inprocess;
    o.inprocess_interval = 60;
    return o;
}

sat::solve_result reference_solve(const fuzz_cnf& cnf) {
    sat::solver s;
    cnf.load_into(s);
    return s.solve();
}

// ---- layer 1: seeded differential rounds ------------------------------------

TEST(fuzz_differential, feature_modes_agree_with_reference_and_models_hold) {
    int sat_rounds = 0;
    int unsat_rounds = 0;
    for (std::uint64_t seed = 1; seed <= 80; ++seed) {
        const fuzz_cnf cnf = generate_cnf(seed);
        const sat::solve_result want = reference_solve(cnf);
        (want == sat::solve_result::sat ? sat_rounds : unsat_rounds)++;
        for (int mode = 1; mode < 4; ++mode) {
            sat::solver s;
            s.set_options(aggressive((mode & 1) != 0, (mode & 2) != 0));
            cnf.load_into(s);
            const sat::solve_result got = s.solve();
            ASSERT_EQ(got, want) << "seed=" << seed << " mode=" << mode;
            if (got == sat::solve_result::sat) {
                ASSERT_TRUE(cnf.satisfied_by(s)) << "seed=" << seed << " mode=" << mode;
            }
        }
    }
    // The generator must exercise both verdicts, or the harness tests nothing.
    EXPECT_GT(sat_rounds, 10);
    EXPECT_GT(unsat_rounds, 10);
}

TEST(fuzz_differential, assumption_solves_agree_through_eliminated_variables) {
    // Underconstrained instances eliminate many variables; assuming over
    // them afterwards must transparently restore the original clauses
    // (solver::restore_eliminated) and still agree with the reference.
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        const fuzz_cnf cnf = generate_cnf(seed * 5 + 2);  // family mix, any shape works
        util::rng r;
        r.reseed(seed);
        std::vector<sat::lit> assumptions;
        for (int k = 0; k < 3; ++k)
            assumptions.push_back(
                sat::mk_lit(static_cast<sat::var>(
                                r.next_below(static_cast<std::uint64_t>(cnf.num_vars))),
                            r.next_below(2) == 1));
        sat::solver ref;
        cnf.load_into(ref);
        ASSERT_NE(ref.solve(), sat::solve_result::unknown);
        const sat::solve_result want = ref.solve(assumptions);

        sat::solver s;
        s.set_options(aggressive(true, true));
        cnf.load_into(s);
        s.solve();  // first solve: let elimination happen
        const sat::solve_result got = s.solve(assumptions);
        ASSERT_EQ(got, want) << "seed=" << seed;
        if (got == sat::solve_result::sat) {
            for (sat::lit a : assumptions)
                EXPECT_TRUE(s.model_lit(a)) << "seed=" << seed;
            EXPECT_TRUE(cnf.satisfied_by(s)) << "seed=" << seed;
        }
    }
}

TEST(fuzz_differential, strategies_agree_across_feature_sets) {
    // The strategy-layer cross-check: {off, reduce, inprocess+reduce} x
    // {single, portfolio, shard} through solve_cnf, all agreeing with the
    // feature-off reference and models holding on the original clauses.
    const sat::solver_features feature_sets[] = {
        {},                                  // off: the pre-PR configuration
        {.reduce = true},                    // reduce-only
        {.reduce = true, .inprocess = true}  // everything on
    };
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        const fuzz_cnf cnf = generate_cnf(seed);
        const sat::solve_result want = reference_solve(cnf);
        const answer expect =
            want == sat::solve_result::sat ? answer::sat : answer::unsat;
        auto build = [&cnf](unsigned, sat::solver& s) { cnf.load_into(s); };
        for (const sat::solver_features& f : feature_sets) {
            for (strategy st :
                 {strategy::single(), strategy::portfolio(3), strategy::shard(2)}) {
                st.features = f;
                cnf_outcome out = solve_cnf(build, st, 2);
                ASSERT_EQ(out.result.ans, expect)
                    << "seed=" << seed << " strategy=" << to_string(st.kind)
                    << " reduce=" << f.reduce << " inprocess=" << f.inprocess;
                if (out.result.is_sat()) {
                    // Evaluate the returned model on the original clauses.
                    const auto& model = out.result.sat_model;
                    for (const sat::clause_lits& c : cnf.clauses) {
                        bool sat = false;
                        for (sat::lit l : c) {
                            const auto v = static_cast<std::size_t>(sat::var_of(l));
                            if (v >= model.size()) continue;
                            if (model[v] == sat::lbool::l_undef) {
                                sat = true;  // unconstrained: either phase completes
                                break;
                            }
                            sat = sat || (model[v] == sat::lbool::l_true) != sat::sign_of(l);
                        }
                        ASSERT_TRUE(sat) << "seed=" << seed << " strategy="
                                         << to_string(st.kind);
                    }
                }
            }
        }
    }
}

// ---- layer 2: bitwise regression pins ---------------------------------------

struct pinned_run {
    int holes;
    std::uint64_t conflicts, decisions, propagations, restarts;
    std::uint64_t learnt_literals, minimized, deleted;
    std::uint64_t lbd_sum_tracked;  // with track_lbd on (PR-3 harness shape)
    std::uint64_t digest_lo, digest_hi, digest_clauses;
};

// Captured from the pre-PR solver (commit 11bfce7) on the PR-3 pigeonhole
// harness instances: the default-off configuration must reproduce every
// number bit for bit — any drift means the arena/watch rewrite changed the
// search, not just the data layout.
constexpr pinned_run pinned_runs[] = {
    {5, 150, 190, 1792, 1, 1029, 208, 0, 712,
     16942381021301478810ULL, 3825674198797292963ULL, 81},
    {6, 788, 926, 10415, 5, 8626, 1563, 0, 5623,
     16033485310376732690ULL, 14954085054079204251ULL, 133},
    {7, 5864, 7125, 83723, 29, 92280, 17824, 4811, 65065,
     13972939599297921053ULL, 15980772396125061237ULL, 204},
};

TEST(bitwise_pins, features_off_search_is_bit_identical_to_pre_pr_solver) {
    for (const pinned_run& pin : pinned_runs) {
        sat::solver s;
        sat::encode_pigeonhole(s, pin.holes);
        ASSERT_EQ(s.solve(), sat::solve_result::unsat) << "php" << pin.holes;
        const sat::solver_stats& st = s.stats();
        EXPECT_EQ(st.conflicts, pin.conflicts) << "php" << pin.holes;
        EXPECT_EQ(st.decisions, pin.decisions) << "php" << pin.holes;
        EXPECT_EQ(st.propagations, pin.propagations) << "php" << pin.holes;
        EXPECT_EQ(st.restarts, pin.restarts) << "php" << pin.holes;
        EXPECT_EQ(st.learnt_literals, pin.learnt_literals) << "php" << pin.holes;
        EXPECT_EQ(st.minimized_literals, pin.minimized) << "php" << pin.holes;
        EXPECT_EQ(st.deleted_clauses, pin.deleted) << "php" << pin.holes;
        const sat::clause_digest d = s.digest();
        EXPECT_EQ(d.lo, pin.digest_lo) << "php" << pin.holes;
        EXPECT_EQ(d.hi, pin.digest_hi) << "php" << pin.holes;
        EXPECT_EQ(d.clauses, pin.digest_clauses) << "php" << pin.holes;
        // No new-feature machinery may have run in the default configuration.
        EXPECT_EQ(st.reduces, 0u);
        EXPECT_EQ(st.inprocessings, 0u);
        EXPECT_EQ(st.eliminated_vars, 0u);
    }
}

TEST(bitwise_pins, lbd_tracking_unchanged_by_the_arena_rewrite) {
    for (const pinned_run& pin : pinned_runs) {
        sat::solver s;
        sat::solver_options o;
        o.track_lbd = true;
        s.set_options(o);
        sat::encode_pigeonhole(s, pin.holes);
        ASSERT_EQ(s.solve(), sat::solve_result::unsat) << "php" << pin.holes;
        EXPECT_EQ(s.stats().lbd_sum, pin.lbd_sum_tracked) << "php" << pin.holes;
        EXPECT_EQ(s.stats().conflicts, pin.conflicts) << "php" << pin.holes;
    }
}

TEST(bitwise_pins, clause_digest_unchanged_by_inprocessing) {
    // The digest fingerprints the input clause stream, taken at add_clause
    // time — simplification afterwards (subsumption, BVE)
    // must not perturb it.
    for (std::uint64_t seed : {3ULL, 6ULL, 9ULL}) {
        const fuzz_cnf cnf = generate_cnf(seed);
        sat::solver off;
        cnf.load_into(off);
        off.solve();
        sat::solver on;
        on.set_options(aggressive(true, true));
        cnf.load_into(on);
        on.solve();
        EXPECT_EQ(on.digest(), off.digest()) << "seed=" << seed;
    }
}

// ---- layer 3: composition pins ----------------------------------------------

TEST(bve_reconstruction, models_survive_the_query_cache_revalidation_path) {
    // The CNF cache re-validates a cached sat model on a freshly built
    // prototype by assuming every model literal — if BVE reconstruction
    // left an eliminated variable wrong, the propagation refutes it and
    // this hits the fallback solve instead of a cache hit.
    substrate::query_cache cache{std::string{}};
    // Seed 13 (mixed-width family) is sat and eliminates 14 variables
    // under inprocessing — a real reconstruction workload.
    const fuzz_cnf cnf = generate_cnf(13);
    ASSERT_EQ(reference_solve(cnf), sat::solve_result::sat) << "pick a sat seed";
    auto build = [&cnf](unsigned, sat::solver& s) { cnf.load_into(s); };
    strategy st = strategy::single();
    st.features = sat::solver_features{.reduce = true, .inprocess = true};
    cnf_outcome first = solve_cnf(build, st, 1, {}, &cache);
    ASSERT_EQ(first.result.ans, answer::sat);
    EXPECT_FALSE(first.cache_hit);
    cnf_outcome second = solve_cnf(build, st, 1, {}, &cache);
    ASSERT_EQ(second.result.ans, answer::sat);
    EXPECT_TRUE(second.cache_hit) << "reconstructed model failed re-validation";
}

TEST(bve_reconstruction, models_survive_the_dimacs_file_path) {
    // End to end through solve_cnf_file: write a sat instance out as
    // DIMACS, decide it with the features on, and evaluate the returned
    // model against the parsed clauses.
    const fuzz_cnf cnf = generate_cnf(13);  // sat, 14 variables eliminated
    const std::string path = ::testing::TempDir() + "fuzz_bve_reconstruction.cnf";
    {
        std::ofstream out(path);
        out << "p cnf " << cnf.num_vars << ' ' << cnf.clauses.size() << "\n";
        for (const sat::clause_lits& c : cnf.clauses) {
            for (sat::lit l : c)
                out << (sat::sign_of(l) ? -(sat::var_of(l) + 1) : sat::var_of(l) + 1) << ' ';
            out << "0\n";
        }
    }
    strategy st = strategy::single();
    st.features = sat::solver_features{.reduce = true, .inprocess = true};
    cnf_outcome out = substrate::solve_cnf_file(path, st, 1);
    std::remove(path.c_str());
    ASSERT_EQ(out.result.ans, answer::sat);
    const auto& model = out.result.sat_model;
    for (const sat::clause_lits& c : cnf.clauses) {
        bool sat = false;
        for (sat::lit l : c) {
            const auto v = static_cast<std::size_t>(sat::var_of(l));
            if (v >= model.size() || model[v] == sat::lbool::l_undef) {
                sat = true;
                break;
            }
            sat = sat || (model[v] == sat::lbool::l_true) != sat::sign_of(l);
        }
        ASSERT_TRUE(sat);
    }
}

std::unique_ptr<substrate::sat_backend> featured_member(unsigned member, int holes) {
    auto b = std::make_unique<substrate::sat_backend>(
        sat::apply_features(substrate::diversified_options(member),
                            {.reduce = true, .inprocess = true}));
    sat::encode_pigeonhole(b->solver(), holes);
    return b;
}

TEST(feature_determinism, portfolio_bit_identical_across_thread_counts) {
    // Inprocessing triggers on conflict counts at restart boundaries, so
    // the deterministic portfolio discipline must stay bit-identical
    // across {1,4} threads with the features enabled.
    auto run = [](unsigned threads) {
        substrate::portfolio_config cfg;
        cfg.members = 4;
        cfg.slice_conflicts = 300;
        substrate::thread_pool pool(threads);
        return substrate::race([](unsigned m) { return featured_member(m, 7); }, cfg, &pool);
    };
    substrate::portfolio_outcome one = run(1);
    substrate::portfolio_outcome four = run(4);
    EXPECT_EQ(one.result.ans, answer::unsat);
    EXPECT_EQ(four.result.ans, answer::unsat);
    EXPECT_EQ(one.winner, four.winner);
    EXPECT_EQ(one.rounds, four.rounds);
    EXPECT_EQ(one.total_conflicts, four.total_conflicts);
}

TEST(feature_determinism, shard_identical_across_thread_counts) {
    auto build = [](unsigned, sat::solver& s) { sat::encode_pigeonhole(s, 7); };
    auto run = [&](unsigned threads) {
        strategy st = strategy::shard(2);
        st.features = sat::solver_features{.reduce = true, .inprocess = true};
        st.slice_conflicts = 2000;
        return solve_cnf(build, st, threads);
    };
    cnf_outcome one = run(1);
    cnf_outcome four = run(4);
    EXPECT_EQ(one.result.ans, answer::unsat);
    EXPECT_EQ(four.result.ans, answer::unsat);
    EXPECT_EQ(one.total_conflicts, four.total_conflicts);
    EXPECT_EQ(one.shard.refuted, four.shard.refuted);
    EXPECT_EQ(one.shard.pruned, four.shard.pruned);
    EXPECT_EQ(one.rounds, four.rounds);
}

}  // namespace
}  // namespace sciduction
