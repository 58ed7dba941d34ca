#include "instances.hpp"

#include <sstream>

#include "frontend/smtlib2.hpp"
#include "sat/dimacs.hpp"
#include "smt/solver.hpp"
#include "substrate/engine.hpp"
#include "substrate/solve_request.hpp"

namespace perfbench {

namespace {

using namespace sciduction;

substrate::answer from_sat(sat::solve_result r) {
    switch (r) {
        case sat::solve_result::sat: return substrate::answer::sat;
        case sat::solve_result::unsat: return substrate::answer::unsat;
        case sat::solve_result::unknown: break;
    }
    return substrate::answer::unknown;
}

substrate::answer from_smt(smt::check_result r) {
    switch (r) {
        case smt::check_result::sat: return substrate::answer::sat;
        case smt::check_result::unsat: return substrate::answer::unsat;
        case smt::check_result::unknown: break;
    }
    return substrate::answer::unknown;
}

void add_search_stats(layer_sample& l, const sat::solver_stats& st) {
    l["sat.conflicts"] += static_cast<double>(st.conflicts);
    l["sat.decisions"] += static_cast<double>(st.decisions);
    l["sat.propagations"] += static_cast<double>(st.propagations);
}

/// The sciduction_run model check: no clause may have every literal
/// assigned false (an unassigned variable completes either way).
std::string check_cnf_model(const sat::dimacs_problem& p, const std::vector<sat::lbool>& model) {
    auto lit_false = [&](sat::lit l) {
        const auto v = static_cast<std::size_t>(sat::var_of(l));
        if (v >= model.size() || model[v] == sat::lbool::l_undef) return false;
        return (model[v] == sat::lbool::l_true) == sat::sign_of(l);
    };
    for (std::size_t i = 0; i < p.clauses.size(); ++i) {
        bool violated = !p.clauses[i].empty();
        for (sat::lit l : p.clauses[i])
            if (!lit_false(l)) {
                violated = false;
                break;
            }
        if (violated) return "model violates clause " + std::to_string(i + 1);
    }
    return {};
}

}  // namespace

const char* verdict_name(substrate::answer a) {
    switch (a) {
        case substrate::answer::sat: return "SATISFIABLE";
        case substrate::answer::unsat: return "UNSATISFIABLE";
        case substrate::answer::unknown: break;
    }
    return "UNKNOWN";
}

verdict decide_cnf(const std::string& text, tracer* tr, layer_sample* layers) {
    verdict v;
    sat::dimacs_problem problem;
    auto t0 = bench_clock::now();
    try {
        obs::span s = maybe_span(tr, "frontend", "frontend.read_dimacs");
        std::istringstream in(text);
        problem = sat::read_dimacs(in);
    } catch (const std::exception& e) {
        v.error = std::string("parse: ") + e.what();
        return v;
    }
    const double parse_ms = ms_since(t0);

    t0 = bench_clock::now();
    substrate::cnf_outcome out;
    {
        obs::span s = maybe_span(tr, "substrate", "substrate.solve_cnf_dimacs");
        out = substrate::solve_cnf_dimacs(problem, substrate::strategy::single(), 1);
        s.arg("conflicts", out.total_conflicts);
    }
    const double solve_ms = ms_since(t0);
    v.ans = out.result.ans;
    if (out.result.status != substrate::solve_status::ok)
        v.error = "solve status " + std::string(substrate::to_string(out.result.status));
    else if (out.result.is_sat())
        v.error = check_cnf_model(problem, out.result.sat_model);

    if (layers != nullptr) {
        layer_sample& l = *layers;
        l["frontend.parse_ms"] += parse_ms;
        l["frontend.bytes"] += static_cast<double>(text.size());
        l["substrate.solve_ms"] += solve_ms;
        l["substrate.solver_runs"] += 1;
        // Replay on the bare CDCL core: loading is substrate work (it is
        // inside solve_cnf_dimacs too), the solve() call is the search.
        const auto replay_start = bench_clock::now();
        sat::solver replay;
        problem.load_into(replay);
        t0 = bench_clock::now();
        sat::solve_result r;
        {
            obs::span s = maybe_span(tr, "sat", "sat.solve");
            r = replay.solve();
            s.arg("conflicts", replay.stats().conflicts);
        }
        l["sat.search_ms"] += ms_since(t0);
        add_search_stats(l, replay.stats());
        l["bench.replay_ms"] += ms_since(replay_start);
        if (v.error.empty() && (from_sat(r) != v.ans || replay.stats().conflicts != out.total_conflicts))
            v.error = "the layer replay diverged from the substrate solve";
    }
    return v;
}

verdict decide_smt2(const std::string& text, tracer* tr, layer_sample* layers) {
    verdict v;
    smt::term_manager tm;
    frontend::script script;
    auto t0 = bench_clock::now();
    try {
        obs::span s = maybe_span(tr, "frontend", "frontend.parse_script");
        script = frontend::parse_script(text, tm);
    } catch (const std::exception& e) {
        v.error = std::string("parse: ") + e.what();
        return v;
    }
    const double parse_ms = ms_since(t0);
    if (!script.check_sat) {
        v.error = "script has no (check-sat)";
        return v;
    }

    substrate::engine_config cfg;
    cfg.use_cache = false;
    cfg.threads = 1;
    t0 = bench_clock::now();
    substrate::backend_result res;
    substrate::engine_stats stats;
    {
        obs::span s = maybe_span(tr, "substrate", "substrate.smt_engine.solve");
        substrate::smt_engine engine(tm, cfg);
        substrate::solve_request req;
        req.assertions = script.assertions;
        req.strategy = substrate::strategy::single();
        res = engine.solve(std::move(req));
        stats = engine.stats();
        s.arg("conflicts", res.conflicts);
    }
    const double solve_ms = ms_since(t0);
    v.ans = res.ans;
    if (res.status != substrate::solve_status::ok) {
        v.error = "solve status " + std::string(substrate::to_string(res.status));
    } else if (res.is_sat()) {
        substrate::model_evaluator eval(tm, res.model);
        for (std::size_t i = 0; i < script.assertions.size(); ++i)
            if (eval.value(script.assertions[i]) == 0) {
                v.error = "model falsifies assertion " + std::to_string(i + 1);
                break;
            }
    }
    if (v.error.empty() && script.expected_status &&
        (*script.expected_status == "sat" || *script.expected_status == "unsat") &&
        (v.ans == substrate::answer::sat) != (*script.expected_status == "sat"))
        v.error = "verdict contradicts :status " + *script.expected_status;

    if (layers != nullptr) {
        layer_sample& l = *layers;
        l["frontend.parse_ms"] += parse_ms;
        l["frontend.bytes"] += static_cast<double>(text.size());
        l["substrate.solve_ms"] += solve_ms;
        l["substrate.cache_hits"] += static_cast<double>(stats.cache_hits);
        l["substrate.solver_runs"] += static_cast<double>(stats.solver_runs);
        const auto replay_start = bench_clock::now();
        smt::smt_solver replay(tm);
        t0 = bench_clock::now();
        {
            obs::span s = maybe_span(tr, "smt", "smt.assert_term");
            for (smt::term a : script.assertions) replay.assert_term(a);
        }
        l["smt.blast_ms"] += ms_since(t0);
        l["smt.cnf_vars"] += static_cast<double>(replay.sat_core().num_vars());
        l["smt.cnf_clauses"] += static_cast<double>(replay.num_clauses());
        t0 = bench_clock::now();
        smt::check_result r;
        {
            obs::span s = maybe_span(tr, "sat", "smt.check");
            r = replay.check();
            s.arg("conflicts", replay.stats().conflicts);
        }
        l["sat.search_ms"] += ms_since(t0);
        add_search_stats(l, replay.stats());
        l["bench.replay_ms"] += ms_since(replay_start);
        if (v.error.empty() && (from_smt(r) != v.ans || replay.stats().conflicts != res.conflicts))
            v.error = "the layer replay diverged from the substrate solve";
    }
    return v;
}

}  // namespace perfbench
