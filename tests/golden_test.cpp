/// \file
/// The checked-in scenario corpus, solved in-process: every corpus/*.cnf
/// and corpus/*.smt2 file must reproduce the verdict pinned in its
/// `.expected` golden (the same goldens tools/run_corpus.py diffs the CLI
/// driver against), every sat model must evaluate to true on the original
/// problem, and the verdict must not depend on the strategy. The corpus
/// also feeds the write/read round-trip check, so the DIMACS exporter is
/// exercised on real instances rather than toys.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "frontend/smtlib2.hpp"
#include "sat/dimacs.hpp"
#include "substrate/engine.hpp"

namespace sciduction {
namespace {

namespace fs = std::filesystem;

struct scenario {
    fs::path path;
    substrate::answer expected;  ///< verdict pinned by the .expected golden
};

// Reads the verdict from a scenario's golden file ("s SATISFIABLE" /
// "s UNSATISFIABLE" first line).
substrate::answer expected_verdict(const fs::path& scenario_path) {
    std::ifstream in(scenario_path.string() + ".expected");
    EXPECT_TRUE(in.good()) << "missing golden for " << scenario_path
                           << " (run tools/run_corpus.py --regen)";
    std::string line;
    std::getline(in, line);
    if (line == "s SATISFIABLE") return substrate::answer::sat;
    if (line == "s UNSATISFIABLE") return substrate::answer::unsat;
    ADD_FAILURE() << "unrecognized golden verdict '" << line << "' for " << scenario_path;
    return substrate::answer::unknown;
}

std::vector<scenario> corpus(const std::string& extension) {
    std::vector<scenario> out;
    for (const fs::directory_entry& entry : fs::directory_iterator(SCIDUCTION_CORPUS_DIR))
        if (entry.path().extension() == extension)
            out.push_back({entry.path(), expected_verdict(entry.path())});
    std::sort(out.begin(), out.end(),
              [](const scenario& a, const scenario& b) { return a.path < b.path; });
    return out;
}

// A CNF model satisfies a clause when some literal is not assigned false
// (undef means the variable was unconstrained).
void expect_model_satisfies(const sat::dimacs_problem& p, const std::vector<sat::lbool>& model,
                            const fs::path& path) {
    ASSERT_GE(model.size(), static_cast<std::size_t>(p.num_vars)) << path;
    for (const sat::clause_lits& cl : p.clauses) {
        bool satisfied = false;
        for (sat::lit l : cl) {
            sat::lbool v = model[var_of(l)];
            if (v == sat::lbool::l_undef || (v == sat::lbool::l_true) != sign_of(l))
                satisfied = true;
        }
        EXPECT_TRUE(satisfied) << "model falsifies a clause of " << path;
    }
}

// ---- DIMACS scenarios -----------------------------------------------------------

TEST(golden_corpus, cnf_scenarios_match_their_goldens) {
    std::vector<scenario> scenarios = corpus(".cnf");
    EXPECT_GE(scenarios.size(), 10u) << "corpus shrank?";
    for (const scenario& sc : scenarios) {
        SCOPED_TRACE(sc.path.string());
        substrate::cnf_outcome out = substrate::solve_cnf_file(sc.path.string());
        EXPECT_EQ(out.result.status, substrate::solve_status::ok) << out.result.status_detail;
        EXPECT_EQ(out.result.ans, sc.expected);
        if (out.result.ans == substrate::answer::sat) {
            std::ifstream in(sc.path);
            expect_model_satisfies(sat::read_dimacs(in), out.result.sat_model, sc.path);
        }
    }
}

TEST(golden_corpus, cnf_verdicts_identical_across_strategies) {
    const substrate::strategy strategies[] = {
        substrate::strategy::single(), substrate::strategy::portfolio(3),
        substrate::strategy::shard(2), substrate::strategy::automatic()};
    for (const scenario& sc : corpus(".cnf")) {
        SCOPED_TRACE(sc.path.string());
        for (const auto& strat : strategies) {
            substrate::cnf_outcome out = substrate::solve_cnf_file(sc.path.string(), strat, 2);
            EXPECT_EQ(out.result.ans, sc.expected) << to_string(out.executed);
            if (out.result.ans == substrate::answer::sat) {
                std::ifstream in(sc.path);
                expect_model_satisfies(sat::read_dimacs(in), out.result.sat_model, sc.path);
            }
        }
    }
}

TEST(golden_corpus, cnf_scenarios_round_trip_through_write_dimacs) {
    for (const scenario& sc : corpus(".cnf")) {
        SCOPED_TRACE(sc.path.string());
        std::ifstream in(sc.path);
        sat::dimacs_problem original = sat::read_dimacs(in);
        std::ostringstream os;
        sat::write_dimacs(os, original);
        sat::dimacs_problem reread = sat::read_dimacs(os.str());
        EXPECT_EQ(reread.num_vars, original.num_vars);
        EXPECT_EQ(reread.clauses, original.clauses);
    }
}

// ---- SMT-LIB2 scenarios ---------------------------------------------------------

TEST(golden_corpus, smt2_scenarios_match_their_goldens) {
    std::vector<scenario> scenarios = corpus(".smt2");
    EXPECT_GE(scenarios.size(), 10u) << "corpus shrank?";
    for (const scenario& sc : scenarios) {
        SCOPED_TRACE(sc.path.string());
        smt::term_manager tm;
        frontend::script script = frontend::parse_script_file(sc.path.string(), tm);
        EXPECT_TRUE(script.check_sat);
        // The :status annotation, the golden, and the solver must agree.
        ASSERT_TRUE(script.expected_status.has_value()) << "corpus scripts carry :status";
        EXPECT_EQ(*script.expected_status,
                  sc.expected == substrate::answer::sat ? "sat" : "unsat");

        substrate::smt_engine engine(tm);
        substrate::backend_result r =
            engine.solve({script.assertions, {}, substrate::strategy::single()});
        EXPECT_EQ(r.status, substrate::solve_status::ok) << r.status_detail;
        EXPECT_EQ(r.ans, sc.expected);
        if (r.ans == substrate::answer::sat) {
            substrate::model_evaluator ev(tm, r.model);
            for (const smt::term& t : script.assertions)
                EXPECT_EQ(ev.value(t), 1u) << "model falsifies an assertion of " << sc.path;
        }
    }
}

TEST(golden_corpus, smt2_verdicts_identical_across_strategies) {
    const substrate::strategy strategies[] = {substrate::strategy::portfolio(3),
                                              substrate::strategy::shard(2),
                                              substrate::strategy::automatic()};
    for (const scenario& sc : corpus(".smt2")) {
        SCOPED_TRACE(sc.path.string());
        smt::term_manager tm;
        frontend::script script = frontend::parse_script_file(sc.path.string(), tm);
        substrate::engine_config cfg;
        cfg.threads = 2;
        // Cache off: every strategy must decide the script itself, not
        // replay the first strategy's answer.
        cfg.use_cache = false;
        substrate::smt_engine engine(tm, cfg);
        for (const auto& strat : strategies) {
            substrate::backend_result r = engine.solve({script.assertions, {}, strat});
            EXPECT_EQ(r.ans, sc.expected);
            if (r.ans == substrate::answer::sat) {
                substrate::model_evaluator ev(tm, r.model);
                for (const smt::term& t : script.assertions) EXPECT_EQ(ev.value(t), 1u);
            }
        }
    }
}

}  // namespace
}  // namespace sciduction
