#include "substrate/portfolio.hpp"

#include <algorithm>
#include <vector>

#include "obs/trace.hpp"
#include "substrate/annotations.hpp"
#include "substrate/thread_pool.hpp"

namespace sciduction::substrate {

sat::solver_options diversified_options(unsigned member) {
    sat::solver_options opts;
    if (member == 0) return opts;  // baseline: bit-for-bit the single solver
    opts.random_seed = 0x5eed0000ULL + member;
    opts.init_phase_true = (member % 2) == 1;
    switch (member % 4) {
        case 1:
            // Aggressive restarts with light random diversification.
            opts.restart_base = 50.0;
            opts.random_branch_freq = 0.02;
            break;
        case 2:
            // Slow decay: long-term activity memory, conservative restarts.
            opts.var_decay = 0.99;
            opts.restart_base = 300.0;
            break;
        case 3:
            // Fast decay: locally-focused search, frequent random probes.
            opts.var_decay = 0.85;
            opts.random_branch_freq = 0.05;
            opts.restart_luby_factor = 3.0;
            break;
        default: break;
    }
    return opts;
}

namespace {

/// Arms the per-instance conflict budget on a freshly built backend: the
/// pause threshold is absolute, so a fresh core pauses after exactly
/// `budget` conflicts and answers unknown with its state intact.
void arm_budget(solver_backend& backend, std::uint64_t budget) {
    if (budget == 0) return;
    if (sat::solver* core = backend.sat_core())
        core->set_conflict_pause(core->stats().conflicts + budget);
}

portfolio_outcome race_single(const backend_factory& factory, const solve_controls& controls) {
    portfolio_outcome outcome;
    auto backend = factory(0);
    arm_budget(*backend, controls.conflict_budget);
    obs::span slice(controls.trace, controls.trace_track, "member#0");
    slice.arg("query", controls.trace_query);
    outcome.result = backend->check(controls.cancel);
    slice.arg("conflicts", outcome.result.conflicts);
    slice.end();
    outcome.total_conflicts = outcome.result.conflicts;
    return outcome;
}

/// Free-running race. An external cancel flag in `controls` doubles as
/// the race's own loser-cancellation line, so a caller setting it
/// mid-solve aborts every member cooperatively.
portfolio_outcome race_free(const backend_factory& factory, unsigned members, thread_pool& pool,
                            const solve_controls& controls) {
    struct race_state {
        std::atomic<bool> local_cancel{false};
        std::atomic<bool>* cancel = nullptr;
        sd::mutex mutex;
        portfolio_outcome outcome SD_GUARDED_BY(mutex);
        bool decided SD_GUARDED_BY(mutex) = false;
    } state;
    state.cancel = controls.cancel != nullptr ? controls.cancel : &state.local_cancel;

    pool.parallel_for(members, [&](std::size_t member) {
        if (state.cancel->load(std::memory_order_relaxed)) return;
        auto backend = factory(static_cast<unsigned>(member));
        arm_budget(*backend, controls.conflict_budget);
        obs::span slice(controls.trace, controls.trace_track,
                        "member#" + std::to_string(member));
        slice.arg("query", controls.trace_query);
        slice.arg("member", member);
        backend_result result = backend->check(state.cancel);
        slice.arg("conflicts", result.conflicts);
        slice.end();
        const std::uint64_t conflicts = result.conflicts;
        const bool definite = result.ans != answer::unknown;
        sd::lock_guard lock(state.mutex);
        state.outcome.total_conflicts += conflicts;
        if (!definite && !state.decided)
            // All-unknown race: report the members' own abort classification
            // (cancelled / over_budget) instead of a bare unknown.
            state.outcome.result.status = result.status;
        if (!definite || state.decided) return;  // cancelled, aborted, or lost
        state.decided = true;
        state.outcome.result = std::move(result);
        state.outcome.winner = static_cast<unsigned>(member);
        state.cancel->store(true, std::memory_order_relaxed);
    });
    // parallel_for is a barrier, but the analysis cannot see that: read
    // the outcome under the lock it is guarded by.
    sd::lock_guard lock(state.mutex);
    return state.outcome;  // all-unknown leaves the default (answer::unknown)
}

/// Budgeted rounds: members advance in fixed conflict slices with a
/// barrier between rounds. Every member's work in round r depends only on
/// its own deterministic search, so the whole outcome is reproducible
/// across thread counts.
portfolio_outcome race_rounds(const backend_factory& factory, unsigned members,
                              std::uint64_t slice, thread_pool& pool,
                              const solve_controls& controls) {
    std::vector<std::unique_ptr<solver_backend>> team;
    team.reserve(members);
    for (unsigned m = 0; m < members; ++m) team.push_back(factory(m));

    std::vector<backend_result> answers(members);
    std::vector<char> decided(members, 0);
    portfolio_outcome out;
    for (;;) {
        ++out.rounds;
        auto run_member = [&](std::size_t m) {
            if (decided[m] != 0) return;
            sat::solver* core = team[m]->sat_core();
            if (core != nullptr) core->set_conflict_pause(core->stats().conflicts + slice);
            backend_result r = team[m]->check(controls.cancel);
            if (core != nullptr) core->set_conflict_pause(0);
            if (r.ans != answer::unknown) {
                decided[m] = 1;
                answers[m] = std::move(r);
            }
        };
        // Members are independent within a round, so every schedule of the
        // round computes the same thing. The round span is logical time
        // made visible: round numbers are identical across thread counts
        // even though wall time is not.
        obs::span round_span(controls.trace, controls.trace_track,
                             "round#" + std::to_string(out.rounds));
        round_span.arg("query", controls.trace_query);
        round_span.arg("round", out.rounds);
        pool.parallel_for(members, run_member);
        round_span.end();
        // External cancellation and budget exhaustion resolve at the round
        // barrier (deterministically for the budget: member conflict counts
        // are scheduling-independent). Either finalizes with unknown.
        const bool cancelled =
            controls.cancel != nullptr && controls.cancel->load(std::memory_order_relaxed);
        bool exhausted = controls.conflict_budget != 0;
        if (exhausted) {
            for (unsigned m = 0; m < members && exhausted; ++m) {
                if (decided[m] != 0) continue;
                sat::solver* core = team[m]->sat_core();
                exhausted = core == nullptr || core->stats().conflicts >= controls.conflict_budget;
            }
        }
        if (cancelled || exhausted) {
            bool any_decided = false;
            for (unsigned m = 0; m < members; ++m) any_decided = any_decided || decided[m] != 0;
            if (!any_decided) {
                for (unsigned k = 0; k < members; ++k) {
                    if (sat::solver* core = team[k]->sat_core())
                        out.total_conflicts += core->stats().conflicts;
                }
                out.result.status =
                    cancelled ? solve_status::cancelled : solve_status::over_budget;
                return out;  // answer stays unknown
            }
        }
        // Deterministic winner: the lowest-indexed member with an answer.
        for (unsigned m = 0; m < members; ++m) {
            if (decided[m] == 0) continue;
            out.result = std::move(answers[m]);
            out.winner = m;
            if (sat::solver* core = team[m]->sat_core()) {
                // The deciding slice's delta would understate the winner's
                // whole solve; report its cumulative conflicts, matching
                // what the single-solve and free-race paths return.
                out.result.conflicts = core->stats().conflicts;
            }
            for (unsigned k = 0; k < members; ++k) {
                if (sat::solver* core = team[k]->sat_core())
                    out.total_conflicts += core->stats().conflicts;
            }
            return out;
        }
    }
}

}  // namespace

portfolio_outcome race(const backend_factory& factory, const portfolio_config& cfg,
                       thread_pool* pool, const solve_controls& controls) {
    const unsigned members = cfg.members == 0 ? 1 : cfg.members;
    if (members == 1) return race_single(factory, controls);
    std::unique_ptr<thread_pool> transient;
    if (pool == nullptr) {
        transient = std::make_unique<thread_pool>(
            cfg.threads == 0 ? std::min(members, default_concurrency()) : cfg.threads);
        pool = transient.get();
    }
    if (cfg.slice_conflicts != 0)
        return race_rounds(factory, members, cfg.slice_conflicts, *pool, controls);
    return race_free(factory, members, *pool, controls);
}

}  // namespace sciduction::substrate
