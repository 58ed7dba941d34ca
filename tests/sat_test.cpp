#include <gtest/gtest.h>

#include <sstream>

#include "sat/dimacs.hpp"
#include "sat/gates.hpp"
#include "sat/pigeonhole.hpp"
#include "sat/solver.hpp"
#include "util/rng.hpp"

namespace sciduction::sat {
namespace {

TEST(sat_solver, trivial_sat) {
    solver s;
    var a = s.new_var();
    var b = s.new_var();
    s.add_clause(mk_lit(a), mk_lit(b));
    s.add_clause(~mk_lit(a), mk_lit(b));
    EXPECT_EQ(s.solve(), solve_result::sat);
    EXPECT_TRUE(s.model_bool(b));
}

TEST(sat_solver, trivial_unsat) {
    solver s;
    var a = s.new_var();
    s.add_clause(mk_lit(a));
    EXPECT_FALSE(s.add_clause(~mk_lit(a)));
    EXPECT_EQ(s.solve(), solve_result::unsat);
}

TEST(sat_solver, empty_formula_is_sat) {
    solver s;
    s.new_var();
    EXPECT_EQ(s.solve(), solve_result::sat);
}

TEST(sat_solver, tautologies_and_duplicates_handled) {
    solver s;
    var a = s.new_var();
    var b = s.new_var();
    s.add_clause({mk_lit(a), ~mk_lit(a), mk_lit(b)});  // tautology: no-op
    s.add_clause({mk_lit(a), mk_lit(a)});              // duplicate literal
    EXPECT_EQ(s.num_clauses(), 0u);                    // unit propagated, tautology dropped
    EXPECT_EQ(s.solve(), solve_result::sat);
    EXPECT_TRUE(s.model_bool(a));
}

TEST(sat_solver, unit_propagation_chain) {
    solver s;
    std::vector<var> v;
    for (int i = 0; i < 10; ++i) v.push_back(s.new_var());
    for (int i = 0; i + 1 < 10; ++i) s.add_clause(~mk_lit(v[i]), mk_lit(v[i + 1]));
    s.add_clause(mk_lit(v[0]));
    EXPECT_EQ(s.solve(), solve_result::sat);
    for (int i = 0; i < 10; ++i) EXPECT_TRUE(s.model_bool(v[i]));
}

TEST(sat_solver, assumptions_sat_and_unsat) {
    solver s;
    var a = s.new_var();
    var b = s.new_var();
    s.add_clause(~mk_lit(a), mk_lit(b));  // a -> b
    EXPECT_EQ(s.solve({mk_lit(a), ~mk_lit(b)}), solve_result::unsat);
    EXPECT_FALSE(s.conflict_core().empty());
    EXPECT_EQ(s.solve({mk_lit(a), mk_lit(b)}), solve_result::sat);
    // Solver stays reusable after assumption-unsat.
    EXPECT_EQ(s.solve(), solve_result::sat);
}

TEST(sat_solver, conflict_core_subset_of_assumptions) {
    solver s;
    var a = s.new_var();
    var b = s.new_var();
    var c = s.new_var();
    s.add_clause(~mk_lit(a), ~mk_lit(b));  // !(a & b)
    EXPECT_EQ(s.solve({mk_lit(a), mk_lit(b), mk_lit(c)}), solve_result::unsat);
    // The core must only mention the conflicting assumptions (a, b), not c.
    for (lit l : s.conflict_core()) EXPECT_NE(var_of(l), c);
}

// Pigeonhole principle: n+1 pigeons in n holes is unsatisfiable. A classic
// resolution-hard family that exercises clause learning and restarts.
class pigeonhole : public ::testing::TestWithParam<int> {};

TEST_P(pigeonhole, unsat) {
    const int holes = GetParam();
    const int pigeons = holes + 1;
    solver s;
    std::vector<std::vector<var>> x(pigeons, std::vector<var>(holes));
    for (auto& row : x)
        for (auto& v : row) v = s.new_var();
    for (int p = 0; p < pigeons; ++p) {
        clause_lits c;
        for (int h = 0; h < holes; ++h) c.push_back(mk_lit(x[p][h]));
        s.add_clause(c);
    }
    for (int h = 0; h < holes; ++h)
        for (int p1 = 0; p1 < pigeons; ++p1)
            for (int p2 = p1 + 1; p2 < pigeons; ++p2)
                s.add_clause(~mk_lit(x[p1][h]), ~mk_lit(x[p2][h]));
    EXPECT_EQ(s.solve(), solve_result::unsat);
    EXPECT_GT(s.stats().conflicts, 0u);
}

INSTANTIATE_TEST_SUITE_P(sizes, pigeonhole, ::testing::Values(3, 4, 5, 6, 7));

// Property: agreement with brute force on random small instances, and
// models must actually satisfy the formula.
bool brute_force_sat(int nv, const std::vector<clause_lits>& clauses) {
    for (int m = 0; m < (1 << nv); ++m) {
        bool all = true;
        for (const auto& c : clauses) {
            bool any = false;
            for (lit l : c) {
                bool v = ((m >> var_of(l)) & 1) != 0;
                if (sign_of(l) ? !v : v) {
                    any = true;
                    break;
                }
            }
            if (!any) {
                all = false;
                break;
            }
        }
        if (all) return true;
    }
    return false;
}

class random_cnf : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(random_cnf, matches_brute_force) {
    util::rng r(GetParam());
    for (int iter = 0; iter < 300; ++iter) {
        int nv = 3 + static_cast<int>(r.next_below(8));
        int nc = 2 + static_cast<int>(r.next_below(static_cast<std::uint64_t>(nv) * 5));
        std::vector<clause_lits> clauses;
        for (int i = 0; i < nc; ++i) {
            clause_lits c;
            int len = 1 + static_cast<int>(r.next_below(3));
            for (int j = 0; j < len; ++j)
                c.push_back(mk_lit(static_cast<var>(r.next_below(static_cast<std::uint64_t>(nv))),
                                   r.next_bool()));
            clauses.push_back(c);
        }
        solver s;
        for (int v = 0; v < nv; ++v) s.new_var();
        bool ok = true;
        for (const auto& c : clauses) ok = s.add_clause(c) && ok;
        bool got = ok && s.solve() == solve_result::sat;
        ASSERT_EQ(got, brute_force_sat(nv, clauses)) << "iteration " << iter;
        if (got) {
            for (const auto& c : clauses) {
                bool any = false;
                for (lit l : c) any = any || s.model_lit(l);
                ASSERT_TRUE(any) << "model violates a clause";
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(seeds, random_cnf, ::testing::Values(11, 22, 33, 44));

TEST(sat_solver, conflict_budget_gives_unknown) {
    // Large pigeonhole with a tiny budget must give up explicitly (unknown
    // with budget_exhausted() set), not wrongly and not by throwing —
    // exceptions are reserved for programming errors.
    const int holes = 9;
    solver s;
    std::vector<std::vector<var>> x(holes + 1, std::vector<var>(holes));
    for (auto& row : x)
        for (auto& v : row) v = s.new_var();
    for (auto& row : x) {
        clause_lits c;
        for (var v : row) c.push_back(mk_lit(v));
        s.add_clause(c);
    }
    for (int h = 0; h < holes; ++h)
        for (int p1 = 0; p1 <= holes; ++p1)
            for (int p2 = p1 + 1; p2 <= holes; ++p2)
                s.add_clause(~mk_lit(x[p1][h]), ~mk_lit(x[p2][h]));
    s.set_conflict_budget(10);
    EXPECT_EQ(s.solve(), solve_result::unknown);
    EXPECT_TRUE(s.budget_exhausted());
    EXPECT_FALSE(s.interrupted());
    EXPECT_FALSE(s.paused());
}

TEST(sat_solver, conflict_pause_preserves_state_and_resumes_to_same_answer) {
    solver plain;
    encode_pigeonhole(plain, 6);
    ASSERT_EQ(plain.solve(), solve_result::unsat);

    solver paused;
    encode_pigeonhole(paused, 6);
    std::uint64_t slices = 0;
    solve_result r = solve_result::unknown;
    while (r == solve_result::unknown) {
        paused.set_conflict_pause(paused.stats().conflicts + 200);
        r = paused.solve();
        ++slices;
        ASSERT_LT(slices, 1000u) << "paused solve must converge";
    }
    paused.set_conflict_pause(0);
    EXPECT_EQ(r, solve_result::unsat);
    EXPECT_GT(slices, 1u) << "PHP-6 takes >200 conflicts, so at least one pause";
}

TEST(sat_solver, track_lbd_accumulates_without_changing_search) {
    solver plain;
    encode_pigeonhole(plain, 6);
    ASSERT_EQ(plain.solve(), solve_result::unsat);
    EXPECT_EQ(plain.stats().lbd_sum, 0u);  // LBD tracking off by default

    solver tracked;
    solver_options opts;
    opts.track_lbd = true;
    tracked.set_options(opts);
    encode_pigeonhole(tracked, 6);
    ASSERT_EQ(tracked.solve(), solve_result::unsat);

    EXPECT_GT(tracked.stats().lbd_sum, 0u);
    // Identical search: only the LBD bookkeeping differs.
    EXPECT_EQ(plain.stats().conflicts, tracked.stats().conflicts);
    EXPECT_EQ(plain.stats().decisions, tracked.stats().decisions);
    EXPECT_EQ(plain.stats().propagations, tracked.stats().propagations);
}

// ---- gate encoder ----------------------------------------------------------------

TEST(gates, truth_tables) {
    // For every gate and input combination, force the inputs and check the
    // output via solving.
    for (int mask = 0; mask < 4; ++mask) {
        bool va = (mask & 1) != 0;
        bool vb = (mask & 2) != 0;
        solver s;
        gate_encoder g(s);
        lit a = g.fresh();
        lit b = g.fresh();
        lit and_o = g.and_gate(a, b);
        lit or_o = g.or_gate(a, b);
        lit xor_o = g.xor_gate(a, b);
        lit iff_o = g.iff_gate(a, b);
        s.add_clause(va ? a : ~a);
        s.add_clause(vb ? b : ~b);
        ASSERT_EQ(s.solve(), solve_result::sat);
        EXPECT_EQ(s.model_lit(and_o), va && vb);
        EXPECT_EQ(s.model_lit(or_o), va || vb);
        EXPECT_EQ(s.model_lit(xor_o), va != vb);
        EXPECT_EQ(s.model_lit(iff_o), va == vb);
    }
}

TEST(gates, ite_and_full_adder) {
    for (int mask = 0; mask < 8; ++mask) {
        bool vc = (mask & 1) != 0;
        bool vt = (mask & 2) != 0;
        bool ve = (mask & 4) != 0;
        solver s;
        gate_encoder g(s);
        lit c = g.fresh();
        lit t = g.fresh();
        lit e = g.fresh();
        lit ite_o = g.ite_gate(c, t, e);
        auto [sum, carry] = g.full_adder(c, t, e);
        s.add_clause(vc ? c : ~c);
        s.add_clause(vt ? t : ~t);
        s.add_clause(ve ? e : ~e);
        ASSERT_EQ(s.solve(), solve_result::sat);
        EXPECT_EQ(s.model_lit(ite_o), vc ? vt : ve);
        int total = int(vc) + int(vt) + int(ve);
        EXPECT_EQ(s.model_lit(sum), (total & 1) != 0);
        EXPECT_EQ(s.model_lit(carry), total >= 2);
    }
}

TEST(gates, constant_simplification) {
    solver s;
    gate_encoder g(s);
    lit a = g.fresh();
    EXPECT_EQ(g.and_gate(a, g.constant(false)), g.constant(false));
    EXPECT_EQ(g.and_gate(a, g.constant(true)), a);
    EXPECT_EQ(g.xor_gate(a, a), g.constant(false));
    EXPECT_EQ(g.xor_gate(a, ~a), g.constant(true));
    EXPECT_EQ(g.or_gate(a, ~a), g.constant(true));
    EXPECT_EQ(g.ite_gate(g.constant(true), a, ~a), a);
}


// ---- DIMACS -----------------------------------------------------------------------

TEST(dimacs, roundtrip_and_solve) {
    const char* text =
        "c tiny instance\n"
        "p cnf 3 3\n"
        "1 2 0\n"
        "-1 3 0\n"
        "-2 -3 0\n";
    solver s;
    EXPECT_EQ(read_dimacs(text, s), 3u);
    EXPECT_EQ(s.num_vars(), 3);
    EXPECT_EQ(s.solve(), solve_result::sat);
    // Model satisfies the original clauses.
    EXPECT_TRUE(s.model_lit(mk_lit(0)) || s.model_lit(mk_lit(1)));
    EXPECT_TRUE(!s.model_lit(mk_lit(0)) || s.model_lit(mk_lit(2)));
    EXPECT_TRUE(!s.model_lit(mk_lit(1)) || !s.model_lit(mk_lit(2)));
}

TEST(dimacs, unsat_instance) {
    solver s;
    read_dimacs("p cnf 1 2\n1 0\n-1 0\n", s);
    EXPECT_EQ(s.solve(), solve_result::unsat);
}

TEST(dimacs, malformed_inputs_throw) {
    solver s;
    EXPECT_THROW(read_dimacs("p cnf x 3\n", s), std::runtime_error);
    EXPECT_THROW(read_dimacs("1 2 3\n", s), std::runtime_error);  // missing 0
    EXPECT_THROW(read_dimacs("hello\n", s), std::runtime_error);
    EXPECT_THROW(read_dimacs("", s), std::runtime_error);
}

TEST(dimacs, write_format) {
    std::vector<clause_lits> clauses{{mk_lit(0), ~mk_lit(1)}, {mk_lit(2)}};
    std::ostringstream os;
    write_dimacs(os, 3, clauses);
    EXPECT_EQ(os.str(), "p cnf 3 2\n1 -2 0\n3 0\n");
    // Round trip.
    solver s;
    EXPECT_EQ(read_dimacs(os.str(), s), 2u);
    EXPECT_EQ(s.solve(), solve_result::sat);
}

// ---- options mid-incremental-session --------------------------------------------

TEST(solver_options, mid_session_retune_preserves_saved_phases) {
    // Regression: set_options is documented safe between solve() calls, but
    // used to re-seed every saved phase, wiping the phase-saving state of
    // an in-progress incremental session.
    solver s;
    std::vector<var> v;
    for (int i = 0; i < 8; ++i) v.push_back(s.new_var());

    // Unconstrained: the default phase decides everything false.
    ASSERT_EQ(s.solve(), solve_result::sat);
    for (var x : v) EXPECT_FALSE(s.model_bool(x));

    // Assumptions drive everything true; phase saving then reproduces that
    // in a plain solve.
    std::vector<lit> all_true;
    for (var x : v) all_true.push_back(mk_lit(x));
    ASSERT_EQ(s.solve(all_true), solve_result::sat);
    ASSERT_EQ(s.solve(), solve_result::sat);
    for (var x : v) EXPECT_TRUE(s.model_bool(x));

    // Mid-session retune (same initial-phase option): the saved phases —
    // and hence the model — must survive.
    solver_options retuned;
    retuned.var_decay = 0.9;
    retuned.restart_base = 42.0;
    retuned.random_seed = 7;
    s.set_options(retuned);
    ASSERT_EQ(s.solve(), solve_result::sat);
    for (var x : v) EXPECT_TRUE(s.model_bool(x)) << "saved phase clobbered by set_options";
}

TEST(solver_options, mid_session_retune_keeps_incremental_session_correct) {
    // Retune between solves of one incremental session, then keep adding
    // clauses and solving under assumptions: answers and failed-assumption
    // cores must stay exact.
    solver s;
    var a = s.new_var();
    var b = s.new_var();
    var c = s.new_var();
    s.add_clause(mk_lit(a), mk_lit(b), mk_lit(c));
    ASSERT_EQ(s.solve(), solve_result::sat);

    solver_options retuned;
    retuned.restart_base = 25.0;
    retuned.random_branch_freq = 0.1;
    retuned.random_seed = 3;
    s.set_options(retuned);

    s.add_clause(~mk_lit(a), mk_lit(b));
    s.add_clause(~mk_lit(b));
    EXPECT_EQ(s.solve({mk_lit(a)}), solve_result::unsat);
    // The failed-assumption core names the assumption (negated).
    ASSERT_EQ(s.conflict_core().size(), 1u);
    EXPECT_EQ(s.conflict_core()[0], ~mk_lit(a));
    EXPECT_EQ(s.solve({mk_lit(c)}), solve_result::sat);

    // Changing the initial-phase option still re-seeds phases, as the
    // portfolio's diversification needs.
    solver_options flipped;
    flipped.init_phase_true = true;
    s.set_options(flipped);
    ASSERT_EQ(s.solve(), solve_result::sat);
    EXPECT_TRUE(s.model_bool(c));
}

TEST(lookahead, probe_literal_reports_implications_and_restores_state) {
    solver s;
    var a = s.new_var();
    var b = s.new_var();
    var d = s.new_var();
    s.add_clause(~mk_lit(a), mk_lit(b));
    s.add_clause(~mk_lit(b), mk_lit(d));
    auto probe = s.probe_literal(mk_lit(a));
    EXPECT_FALSE(probe.conflict);
    EXPECT_EQ(probe.implied, 3u);  // a, b, d
    // State restored: the same probe repeats identically, and solving works.
    auto again = s.probe_literal(mk_lit(a));
    EXPECT_EQ(again.implied, 3u);
    EXPECT_EQ(s.solve(), solve_result::sat);
}

TEST(lookahead, probe_literal_detects_failed_literal) {
    solver s;
    var a = s.new_var();
    var b = s.new_var();
    s.add_clause(~mk_lit(a), mk_lit(b));
    s.add_clause(~mk_lit(a), ~mk_lit(b));
    auto probe = s.probe_literal(mk_lit(a));
    EXPECT_TRUE(probe.conflict);  // a implies b and ~b
    EXPECT_EQ(s.solve(), solve_result::sat);  // formula itself is fine (~a)
}

TEST(lookahead, occurrence_counts_over_problem_clauses) {
    solver s;
    var a = s.new_var();
    var b = s.new_var();
    var c = s.new_var();
    s.add_clause(mk_lit(a), mk_lit(b));
    s.add_clause(~mk_lit(a), mk_lit(c));
    auto counts = s.occurrence_counts();
    ASSERT_EQ(counts.size(), 3u);
    EXPECT_EQ(counts[static_cast<std::size_t>(a)], 2u);
    EXPECT_EQ(counts[static_cast<std::size_t>(b)], 1u);
    EXPECT_EQ(counts[static_cast<std::size_t>(c)], 1u);
}

}  // namespace
}  // namespace sciduction::sat
