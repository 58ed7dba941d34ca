/// \file
/// Pins the DIMACS front door: the strict parser grammar (every documented
/// rejection in sat/dimacs.hpp throws, with the "dimacs:" prefix callers
/// rely on), the write/read round trip as a seeded property test, and the
/// substrate routing — `solve_cnf_dimacs` / `solve_cnf_file` must reach the
/// same verdict under every strategy (the replica contract holds for
/// replayed clause streams).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>

#include "sat/dimacs.hpp"
#include "substrate/query_cache.hpp"
#include "substrate/solve_request.hpp"

namespace sciduction {
namespace {

using sat::clause_lits;
using sat::dimacs_problem;
using sat::lit;
using sat::mk_lit;
using sat::read_dimacs;
using sat::write_dimacs;

// Expects `text` to be rejected and the message to carry the documented
// "dimacs:" prefix plus a recognizable fragment.
void expect_rejected(const std::string& text, const std::string& fragment) {
    try {
        read_dimacs(text);
        FAIL() << "accepted malformed input: " << text;
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_EQ(what.rfind("dimacs:", 0), 0u) << what;
        EXPECT_NE(what.find(fragment), std::string::npos)
            << "message '" << what << "' lacks '" << fragment << "' for input: " << text;
    }
}

// ---- strict grammar: every documented rejection ---------------------------------

TEST(dimacs_strict, missing_problem_line) {
    expect_rejected("1 2 0\n", "problem line");
    expect_rejected("", "problem line");
    expect_rejected("c only comments\nc nothing else\n", "problem line");
}

TEST(dimacs_strict, clause_data_before_header) {
    expect_rejected("1 0\np cnf 2 1\n", "problem line");
}

TEST(dimacs_strict, duplicate_problem_line) {
    expect_rejected("p cnf 2 1\np cnf 2 1\n1 0\n", "duplicate");
}

TEST(dimacs_strict, malformed_problem_line) {
    expect_rejected("p cnf x 3\n", "problem line");
    expect_rejected("p dnf 2 1\n1 0\n", "problem line");
    expect_rejected("p cnf -2 1\n", "problem line");
    expect_rejected("p cnf 2 1 junk\n1 0\n", "problem line");
    expect_rejected("p cnf 2\n1 0\n", "problem line");
}

TEST(dimacs_strict, literal_past_declared_vars) {
    expect_rejected("p cnf 2 1\n3 0\n", "exceeds");
    expect_rejected("p cnf 2 1\n-3 0\n", "exceeds");
    // Boundary: exactly the declared count is fine.
    EXPECT_NO_THROW(read_dimacs("p cnf 2 1\n2 -1 0\n"));
}

TEST(dimacs_strict, zero_length_clause) {
    expect_rejected("p cnf 2 2\n1 0\n0\n", "zero-length");
    expect_rejected("p cnf 2 1\n0\n", "zero-length");
}

TEST(dimacs_strict, unterminated_clause) {
    expect_rejected("p cnf 3 1\n1 2 3\n", "terminating 0");
    expect_rejected("p cnf 3 2\n1 0\n-2 3", "terminating 0");
}

TEST(dimacs_strict, trailing_garbage) {
    expect_rejected("p cnf 2 1\n1 0\nhello\n", "token");
    expect_rejected("p cnf 2 1\n1 x 0\n", "token");
    expect_rejected("p cnf 2 1\n1 0 garbage\n", "token");
}

// ---- tolerated shapes -----------------------------------------------------------

TEST(dimacs_accepts, comments_blanks_and_satlib_trailer) {
    // Comments anywhere, blank lines, clauses spanning lines, the SATLIB
    // '%' end-of-instance trailer, and a clause count that is only a hint.
    const std::string text =
        "c header comment\n"
        "\n"
        "p cnf 3 99\n"
        "c mid-stream comment\n"
        "1 -2\n"
        "0\n"
        "3 0\n"
        "%\n"
        "0\n"
        "this would be garbage but the %% trailer ended the instance\n";
    dimacs_problem p = read_dimacs(text);
    EXPECT_EQ(p.num_vars, 3);
    ASSERT_EQ(p.clauses.size(), 2u);
    EXPECT_EQ(p.clauses[0], (clause_lits{mk_lit(0), mk_lit(1, true)}));
    EXPECT_EQ(p.clauses[1], (clause_lits{mk_lit(2)}));
}

TEST(dimacs_accepts, load_into_replays_the_parse) {
    dimacs_problem p = read_dimacs("p cnf 2 2\n1 2 0\n-1 -2 0\n");
    sat::solver s;
    p.load_into(s);
    EXPECT_EQ(s.num_vars(), 2);
    EXPECT_EQ(s.num_clauses(), 2u);
    EXPECT_EQ(s.solve(), sat::solve_result::sat);
}

// ---- round-trip property --------------------------------------------------------

// Seeded random instances: write_dimacs -> read_dimacs must preserve the
// clause set (order and literal order included — the replica contract keys
// the cache on the exact clause stream).
TEST(dimacs_roundtrip, random_instances_preserve_clauses) {
    std::mt19937 rng(2012);  // DAC 2012, for want of a nicer seed
    for (int round = 0; round < 50; ++round) {
        std::uniform_int_distribution<int> nvars_dist(1, 40);
        const int num_vars = nvars_dist(rng);
        std::uniform_int_distribution<int> nclauses_dist(1, 60);
        std::uniform_int_distribution<int> len_dist(1, 5);
        std::uniform_int_distribution<int> var_dist(0, num_vars - 1);
        std::bernoulli_distribution sign_dist(0.5);

        dimacs_problem original;
        original.num_vars = num_vars;
        const int num_clauses = nclauses_dist(rng);
        for (int c = 0; c < num_clauses; ++c) {
            clause_lits cl;
            const int len = len_dist(rng);
            for (int l = 0; l < len; ++l) cl.push_back(mk_lit(var_dist(rng), sign_dist(rng)));
            original.clauses.push_back(std::move(cl));
        }

        std::ostringstream os;
        write_dimacs(os, original);
        dimacs_problem reread = read_dimacs(os.str());
        EXPECT_EQ(reread.num_vars, original.num_vars) << "round " << round;
        EXPECT_EQ(reread.clauses, original.clauses) << "round " << round;
    }
}

// ---- substrate routing ----------------------------------------------------------

// One verdict per strategy, and they must all agree — both on a sat and on
// an unsat instance (php(3,2): 3 pigeons into 2 holes).
TEST(dimacs_strategies, verdict_identical_across_strategies) {
    const std::string sat_text = "p cnf 4 4\n1 2 0\n-1 3 0\n-2 4 0\n-3 -4 1 0\n";
    const std::string unsat_text =
        "p cnf 6 9\n"
        "1 2 0\n3 4 0\n5 6 0\n"
        "-1 -3 0\n-1 -5 0\n-3 -5 0\n"
        "-2 -4 0\n-2 -6 0\n-4 -6 0\n";
    const substrate::strategy strategies[] = {
        substrate::strategy::single(), substrate::strategy::portfolio(3),
        substrate::strategy::shard(2), substrate::strategy::automatic()};
    for (const auto& strat : strategies) {
        dimacs_problem sat_p = read_dimacs(sat_text);
        substrate::cnf_outcome sat_out = substrate::solve_cnf_dimacs(sat_p, strat, 2);
        EXPECT_EQ(sat_out.result.ans, substrate::answer::sat);
        // Evaluate the model against the parsed clauses: each clause needs
        // one literal not assigned false (undef = unconstrained = fine).
        for (const clause_lits& cl : sat_p.clauses) {
            bool ok = false;
            for (lit l : cl) {
                sat::lbool v = sat_out.result.sat_model[var_of(l)];
                if (v == sat::lbool::l_undef || (v == sat::lbool::l_true) != sign_of(l)) ok = true;
            }
            EXPECT_TRUE(ok) << "clause falsified under " << to_string(sat_out.executed);
        }

        substrate::cnf_outcome unsat_out =
            substrate::solve_cnf_dimacs(read_dimacs(unsat_text), strat, 2);
        EXPECT_EQ(unsat_out.result.ans, substrate::answer::unsat);
    }
}

TEST(dimacs_strategies, solve_cnf_file_reports_malformed_via_status) {
    // A missing file and a malformed file both surface through the error
    // model, never as an exception.
    substrate::cnf_outcome missing = substrate::solve_cnf_file("/nonexistent/no.cnf");
    EXPECT_EQ(missing.result.ans, substrate::answer::unknown);
    EXPECT_EQ(missing.result.status, substrate::solve_status::malformed);
    EXPECT_FALSE(missing.result.status_detail.empty());

    const std::string path = testing::TempDir() + "dimacs_malformed.cnf";
    {
        std::ofstream out(path);
        out << "p cnf 2 1\n3 0\n";  // literal past declared vars
    }
    substrate::cnf_outcome bad = substrate::solve_cnf_file(path);
    EXPECT_EQ(bad.result.status, substrate::solve_status::malformed);
    EXPECT_NE(bad.result.status_detail.find("dimacs:"), std::string::npos);
    std::remove(path.c_str());
}

TEST(dimacs_strategies, solve_cnf_file_hits_the_fingerprint_cache) {
    const std::string path = testing::TempDir() + "dimacs_cached.cnf";
    {
        std::ofstream out(path);
        out << "p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n";
    }
    substrate::query_cache cache{std::string{}};  // CNF-level only, not persisted
    substrate::cnf_outcome first =
        substrate::solve_cnf_file(path, substrate::strategy::single(), 1, {}, &cache);
    EXPECT_EQ(first.result.ans, substrate::answer::sat);
    EXPECT_FALSE(first.cache_hit);
    substrate::cnf_outcome second =
        substrate::solve_cnf_file(path, substrate::strategy::single(), 1, {}, &cache);
    EXPECT_EQ(second.result.ans, substrate::answer::sat);
    EXPECT_TRUE(second.cache_hit);
    std::remove(path.c_str());
}

}  // namespace
}  // namespace sciduction
