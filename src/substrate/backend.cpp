#include "substrate/backend.hpp"

namespace sciduction::substrate {

namespace {

answer from_sat(sat::solve_result r) {
    switch (r) {
        case sat::solve_result::sat: return answer::sat;
        case sat::solve_result::unsat: return answer::unsat;
        case sat::solve_result::unknown: return answer::unknown;
    }
    return answer::unknown;
}

answer from_smt(smt::check_result r) {
    switch (r) {
        case smt::check_result::sat: return answer::sat;
        case smt::check_result::unsat: return answer::unsat;
        case smt::check_result::unknown: return answer::unknown;
    }
    return answer::unknown;
}

/// Classifies an unknown answer from the solver's own abort flags (decided
/// answers are always solve_status::ok). Reading the flags right after the
/// solve is the one place the *reason* for an unknown is still known.
solve_status classify_unknown(const sat::solver& core) {
    if (core.interrupted()) return solve_status::cancelled;
    if (core.paused() || core.budget_exhausted()) return solve_status::over_budget;
    return solve_status::internal;  // no known abort cause: report loudly
}

}  // namespace

const char* to_string(solve_status s) {
    switch (s) {
        case solve_status::ok: return "ok";
        case solve_status::cancelled: return "cancelled";
        case solve_status::timeout: return "timeout";
        case solve_status::over_budget: return "over_budget";
        case solve_status::malformed: return "malformed";
        case solve_status::internal: return "internal";
    }
    return "?";
}

// ---- sat_backend ------------------------------------------------------------

sat_backend::sat_backend(sat::solver_options opts) { solver_.set_options(opts); }

void sat_backend::set_assumptions(std::vector<sat::lit> assumptions) {
    assumptions_ = std::move(assumptions);
}

namespace {

/// Negate the solver's conflict clause back into the failed assumptions.
std::vector<sat::lit> failed_assumptions(const std::vector<sat::lit>& conflict) {
    std::vector<sat::lit> core;
    core.reserve(conflict.size());
    for (sat::lit l : conflict) core.push_back(~l);
    return core;
}

}  // namespace

backend_result sat_backend::check_cube(const std::vector<sat::lit>& cube,
                                       const std::atomic<bool>* cancel) {
    std::vector<sat::lit> assumed = assumptions_;
    assumed.insert(assumed.end(), cube.begin(), cube.end());
    solver_.set_interrupt(cancel);
    backend_result result;
    const std::uint64_t conflicts_before = solver_.stats().conflicts;
    const std::uint64_t reduces_before = solver_.stats().reduces;
    const std::uint64_t inproc_before = solver_.stats().inprocessings;
    result.ans = from_sat(solver_.solve(assumed));
    solver_.set_interrupt(nullptr);
    result.conflicts = solver_.stats().conflicts - conflicts_before;
    result.reduces = solver_.stats().reduces - reduces_before;
    result.inprocessings = solver_.stats().inprocessings - inproc_before;
    result.eliminated_vars = solver_.stats().eliminated_vars;
    if (result.ans == answer::unknown) result.status = classify_unknown(solver_);
    if (result.ans == answer::sat) {
        result.sat_model.reserve(static_cast<std::size_t>(solver_.num_vars()));
        for (sat::var v = 0; v < solver_.num_vars(); ++v)
            result.sat_model.push_back(solver_.model_value(v));
    } else if (result.ans == answer::unsat) {
        result.core = failed_assumptions(solver_.conflict_core());
    }
    return result;
}

// ---- smt_backend ------------------------------------------------------------

smt_backend::smt_backend(smt::term_manager& tm, std::vector<smt::term> assertions,
                         std::vector<smt::term> assumptions, sat::solver_options opts)
    : solver_(tm), assertions_(std::move(assertions)), assumptions_(std::move(assumptions)) {
    solver_.set_sat_options(opts);
}

void smt_backend::prepare() {
    if (asserted_) return;
    // Deterministic blasting order — assertions, then assumption terms —
    // gives identically-constructed backends identical CNF numbering, which
    // is what lets the shard layer transfer cube literals between replicas.
    for (smt::term t : assertions_) solver_.assert_term(t);
    assumption_lits_.reserve(assumptions_.size());
    for (smt::term t : assumptions_) assumption_lits_.push_back(solver_.literal_of(t));
    asserted_ = true;
}

backend_result smt_backend::check_cube(const std::vector<sat::lit>& cube,
                                       const std::atomic<bool>* cancel) {
    prepare();
    std::vector<sat::lit> assumed = assumption_lits_;
    assumed.insert(assumed.end(), cube.begin(), cube.end());
    solver_.set_interrupt(cancel);
    backend_result result;
    const std::uint64_t conflicts_before = solver_.sat_core().stats().conflicts;
    const std::uint64_t reduces_before = solver_.sat_core().stats().reduces;
    const std::uint64_t inproc_before = solver_.sat_core().stats().inprocessings;
    result.ans = from_smt(solver_.check_under(assumed));
    solver_.set_interrupt(nullptr);
    result.conflicts = solver_.sat_core().stats().conflicts - conflicts_before;
    result.reduces = solver_.sat_core().stats().reduces - reduces_before;
    result.inprocessings = solver_.sat_core().stats().inprocessings - inproc_before;
    result.eliminated_vars = solver_.sat_core().stats().eliminated_vars;
    if (result.ans == answer::unknown) result.status = classify_unknown(solver_.sat_core());
    if (result.ans == answer::sat) result.model = solver_.model_env();
    else if (result.ans == answer::unsat) result.core = failed_assumptions(solver_.conflict_core());
    return result;
}

// ---- model evaluation -------------------------------------------------------

std::uint64_t model_evaluator::value(smt::term t) const { return tm_.evaluate_completed(t, env_); }

std::uint64_t eval_model(const smt::term_manager& tm, smt::term t, const smt::env& model) {
    return tm.evaluate_completed(t, model);
}

}  // namespace sciduction::substrate
