#include "substrate/shard.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "obs/trace.hpp"
#include "substrate/annotations.hpp"

namespace sciduction::substrate {

namespace {

constexpr unsigned max_depth = 12;

}  // namespace

cube_plan generate_cubes(sat::solver& s, const cube_config& cfg) {
    cube_plan plan;
    if (!s.okay()) {
        plan.root_unsat = true;
        return plan;
    }

    // Static ranking: most-occurring variables first (ties by index, so the
    // ranking — and hence the whole plan — is deterministic).
    auto counts = s.occurrence_counts();
    std::vector<sat::var> order(counts.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](sat::var a, sat::var b) {
        return counts[static_cast<std::size_t>(a)] > counts[static_cast<std::size_t>(b)];
    });

    // Lookahead pass: probe both polarities of each candidate. A conflicting
    // probe yields an entailed unit (failed literal) that strengthens the
    // formula for free; a clean pair is scored by how evenly and strongly it
    // constrains — the classic march-style product+sum heuristic.
    struct scored_var {
        sat::var v;
        std::uint64_t score;
    };
    std::vector<scored_var> candidates;
    unsigned probed = 0;
    for (sat::var v : order) {
        if (probed >= cfg.probe_candidates) break;
        if (counts[static_cast<std::size_t>(v)] == 0) break;  // rest are unused vars
        ++probed;
        auto pos = s.probe_literal(sat::mk_lit(v));
        if (pos.conflict) {
            sat::lit unit = sat::mk_lit(v, /*negated=*/true);
            plan.forced.push_back(unit);
            if (!s.add_clause(unit)) {
                plan.root_unsat = true;
                return plan;
            }
            continue;
        }
        auto neg = s.probe_literal(sat::mk_lit(v, /*negated=*/true));
        if (neg.conflict) {
            sat::lit unit = sat::mk_lit(v);
            plan.forced.push_back(unit);
            if (!s.add_clause(unit)) {
                plan.root_unsat = true;
                return plan;
            }
            continue;
        }
        if (pos.implied == 0) continue;  // assigned meanwhile (by a forced unit)
        const std::uint64_t p = pos.implied;
        const std::uint64_t n = neg.implied;
        candidates.push_back({v, p * n + p + n});
    }

    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const scored_var& a, const scored_var& b) { return a.score > b.score; });

    const unsigned depth =
        std::min({static_cast<unsigned>(candidates.size()), cfg.depth, max_depth});
    plan.split_vars.reserve(depth);
    for (unsigned i = 0; i < depth; ++i) plan.split_vars.push_back(candidates[i].v);

    // Leaves in lexicographic order: bit j of the cube index (MSB first)
    // picks the sign of split variable j, so cubes 2m and 2m+1 are siblings
    // differing only in the sign of the last split variable.
    const std::size_t leaves = std::size_t{1} << depth;
    plan.cubes.resize(leaves);
    for (std::size_t k = 0; k < leaves; ++k) {
        plan.cubes[k].lits.reserve(depth);
        for (unsigned j = 0; j < depth; ++j) {
            const bool negated = ((k >> (depth - 1 - j)) & 1) != 0;
            plan.cubes[k].lits.push_back(sat::mk_lit(plan.split_vars[j], negated));
        }
    }
    return plan;
}

namespace {

/// Arms the per-pair conflict budget on a freshly built replica (the
/// threshold is cumulative over the pair's cubes).
void arm_budget(solver_backend& backend, std::uint64_t budget) {
    if (budget == 0) return;
    if (sat::solver* core = backend.sat_core())
        core->set_conflict_pause(core->stats().conflicts + budget);
}

/// Free-running scheduler: one task per sibling pair claimed off the pool.
/// An external cancel flag in `controls` doubles as the SAT race's own
/// cancellation line, so a caller setting it mid-solve aborts every pair.
shard_outcome solve_cubes_free(const indexed_shard_factory& factory, const cube_plan& plan,
                               thread_pool& pool, const solve_controls& controls) {
    shard_outcome out;
    out.stats.cubes = plan.cubes.size();
    out.cube_fates.assign(plan.cubes.size(), cube_status::pending);
    auto settle = [&](std::size_t i, cube_status fate) {
        out.cube_fates[i] = fate;
        if (controls.progress != nullptr)
            controls.progress->done.fetch_add(1, std::memory_order_relaxed);
    };

    struct race_state {
        std::atomic<bool> local_cancel{false};
        std::atomic<bool>* cancel = nullptr;
        sd::mutex mutex;
        bool decided SD_GUARDED_BY(mutex) = false;
        backend_result winner SD_GUARDED_BY(mutex);
        std::size_t winning_cube SD_GUARDED_BY(mutex) = shard_outcome::no_cube;
    } state;
    state.cancel = controls.cancel != nullptr ? controls.cancel : &state.local_cancel;

    const std::size_t pairs = (plan.cubes.size() + 1) / 2;
    std::vector<std::uint64_t> pair_conflicts(pairs, 0);

    // One task per sibling pair; parallel_for's claim loop is the refill —
    // idle workers keep pulling the next pair index until the tree is drained.
    pool.parallel_for(pairs, [&](std::size_t pair) {
        const std::size_t first = 2 * pair;
        const std::size_t last = std::min(first + 2, plan.cubes.size());
        if (state.cancel->load(std::memory_order_relaxed)) {
            for (std::size_t i = first; i < last; ++i) settle(i, cube_status::skipped);
            return;
        }
        // One incremental solver per pair: the sibling reuses the clauses
        // learnt refuting its twin, and the pair's work is scheduling-
        // independent (the all-UNSAT determinism contract).
        auto backend = factory(pair);
        arm_budget(*backend, controls.conflict_budget);
        obs::span slice(controls.trace, controls.trace_track, "pair#" + std::to_string(pair));
        slice.arg("query", controls.trace_query);
        slice.arg("pair", pair);
        bool sibling_pruned = false;
        for (std::size_t i = first; i < last; ++i) {
            if (state.cancel->load(std::memory_order_relaxed)) {
                settle(i, cube_status::skipped);
                continue;
            }
            if (sibling_pruned) {
                settle(i, cube_status::pruned);
                continue;
            }
            std::vector<sat::lit> assumed = plan.cubes[i].lits;
            assumed.insert(assumed.end(), plan.forced.begin(), plan.forced.end());
            backend_result r = backend->check_cube(assumed, state.cancel);
            pair_conflicts[pair] += r.conflicts;
            if (r.ans == answer::unknown) {  // cancelled or budget-exhausted mid-solve
                settle(i, cube_status::skipped);
                continue;
            }
            if (r.ans == answer::sat) {
                settle(i, cube_status::satisfied);
                for (std::size_t j = i + 1; j < last; ++j) settle(j, cube_status::skipped);
                sd::lock_guard lock(state.mutex);
                if (!state.decided) {
                    state.decided = true;
                    state.winner = std::move(r);
                    state.winning_cube = i;
                    state.cancel->store(true, std::memory_order_relaxed);
                }
                return;
            }
            settle(i, cube_status::refuted);
            // Sibling pruning: the twin differs only in the last literal; a
            // refutation that never used it refutes the twin as well.
            if (i + 1 < last && !plan.cubes[i].lits.empty()) {
                const sat::lit split = plan.cubes[i].lits.back();
                sibling_pruned =
                    std::find(r.core.begin(), r.core.end(), split) == r.core.end();
            }
        }
    });

    for (std::size_t i = 0; i < out.cube_fates.size(); ++i) {
        switch (out.cube_fates[i]) {
            case cube_status::refuted: ++out.stats.refuted; break;
            case cube_status::pruned: ++out.stats.pruned; break;
            case cube_status::skipped: ++out.stats.skipped; break;
            default: break;
        }
    }
    for (std::uint64_t c : pair_conflicts) out.stats.conflicts += c;

    {
        // parallel_for is a barrier, but the analysis cannot see that:
        // read the decision under the lock it is guarded by.
        sd::lock_guard lock(state.mutex);
        if (state.decided) {
            out.result = std::move(state.winner);
            out.winning_cube = state.winning_cube;
            return out;
        }
    }
    const bool all_refuted =
        out.stats.refuted + out.stats.pruned == plan.cubes.size();
    out.result.ans = all_refuted ? answer::unsat : answer::unknown;
    if (!all_refuted)
        // Skipped cubes mean external cancellation or a per-pair budget
        // running dry (a SAT win sets the flag too, but then decided above).
        out.result.status = state.cancel->load(std::memory_order_relaxed)
                                ? solve_status::cancelled
                                : solve_status::over_budget;
    return out;
}

/// Sliced scheduler: every pair holds a persistent solver and advances in
/// fixed conflict slices, with a barrier between rounds. Each pair's work
/// in round r depends only on its own deterministic search, so answers,
/// per-cube fates and stats are identical for any thread count. A SAT
/// answer is resolved at the barrier in pair order.
shard_outcome solve_cubes_rounds(const indexed_shard_factory& factory, const cube_plan& plan,
                                 thread_pool& pool, std::uint64_t slice,
                                 const solve_controls& controls) {
    shard_outcome out;
    out.stats.cubes = plan.cubes.size();
    out.cube_fates.assign(plan.cubes.size(), cube_status::pending);
    auto settle = [&](std::size_t i, cube_status fate) {
        out.cube_fates[i] = fate;
        if (controls.progress != nullptr)
            controls.progress->done.fetch_add(1, std::memory_order_relaxed);
    };

    const std::size_t pairs = (plan.cubes.size() + 1) / 2;

    struct pair_task {
        std::unique_ptr<solver_backend> backend;
        std::size_t first = 0;
        std::size_t last = 0;
        std::size_t next = 0;  // next cube index to decide
        bool sibling_pruned = false;
        bool done = false;
        bool found_sat = false;
        backend_result sat_result;
        std::size_t sat_cube = shard_outcome::no_cube;
    };
    std::vector<pair_task> tasks(pairs);
    for (std::size_t p = 0; p < pairs; ++p) {
        tasks[p].backend = factory(p);
        tasks[p].first = 2 * p;
        tasks[p].last = std::min(2 * p + 2, plan.cubes.size());
        tasks[p].next = tasks[p].first;
    }

    bool any_sat = false;
    bool aborted = false;
    for (;;) {
        ++out.stats.rounds;
        auto run_pair = [&](std::size_t p) {
            pair_task& t = tasks[p];
            if (t.done) return;
            sat::solver* core = t.backend->sat_core();
            if (core != nullptr) core->set_conflict_pause(core->stats().conflicts + slice);
            while (t.next < t.last) {
                if (t.sibling_pruned) {
                    settle(t.next++, cube_status::pruned);
                    continue;
                }
                std::vector<sat::lit> assumed = plan.cubes[t.next].lits;
                assumed.insert(assumed.end(), plan.forced.begin(), plan.forced.end());
                backend_result r = t.backend->check_cube(assumed, controls.cancel);
                if (r.ans == answer::unknown) break;  // slice exhausted; resume next round
                if (r.ans == answer::sat) {
                    settle(t.next, cube_status::satisfied);
                    t.found_sat = true;
                    t.sat_result = std::move(r);
                    t.sat_cube = t.next;
                    for (std::size_t j = t.next + 1; j < t.last; ++j)
                        settle(j, cube_status::skipped);
                    t.done = true;
                    break;
                }
                settle(t.next, cube_status::refuted);
                if (t.next + 1 < t.last && !plan.cubes[t.next].lits.empty()) {
                    const sat::lit split = plan.cubes[t.next].lits.back();
                    t.sibling_pruned =
                        std::find(r.core.begin(), r.core.end(), split) == r.core.end();
                }
                ++t.next;
            }
            if (core != nullptr) core->set_conflict_pause(0);
            if (t.next >= t.last) t.done = true;
        };
        // Round numbers are the sliced discipline's logical clock;
        // the span makes them visible without perturbing the barrier.
        obs::span round_span(controls.trace, controls.trace_track,
                             "round#" + std::to_string(out.stats.rounds));
        round_span.arg("query", controls.trace_query);
        round_span.arg("round", out.stats.rounds);
        pool.parallel_for(pairs, run_pair);
        round_span.end();
        // Barrier resolution, in pair order (deterministic).
        for (std::size_t p = 0; p < pairs; ++p) {
            if (tasks[p].found_sat && !any_sat) {
                any_sat = true;
                out.result = std::move(tasks[p].sat_result);
                out.winning_cube = tasks[p].sat_cube;
            }
        }
        if (any_sat) break;
        // External cancellation resolves at the barrier; budget-exhausted
        // pairs retire deterministically (their conflict counts are
        // scheduling-independent) with their remaining cubes skipped.
        if (controls.cancel != nullptr && controls.cancel->load(std::memory_order_relaxed)) {
            aborted = true;
            break;
        }
        if (controls.conflict_budget != 0) {
            for (pair_task& t : tasks) {
                if (t.done) continue;
                sat::solver* core = t.backend->sat_core();
                if (core == nullptr || core->stats().conflicts >= controls.conflict_budget) {
                    for (std::size_t i = t.next; i < t.last; ++i)
                        settle(i, cube_status::skipped);
                    t.next = t.last;
                    t.done = true;
                }
            }
        }
        bool all_done = true;
        for (const pair_task& t : tasks) all_done = all_done && t.done;
        if (all_done) break;
    }

    // A SAT win (or an external cancellation) abandons every undecided cube
    // of the other pairs.
    for (pair_task& t : tasks) {
        if (any_sat || aborted) {
            for (std::size_t i = t.next; i < t.last; ++i)
                if (out.cube_fates[i] == cube_status::pending) settle(i, cube_status::skipped);
        }
        if (sat::solver* core = t.backend->sat_core())
            out.stats.conflicts += core->stats().conflicts;
    }
    for (std::size_t i = 0; i < out.cube_fates.size(); ++i) {
        switch (out.cube_fates[i]) {
            case cube_status::refuted: ++out.stats.refuted; break;
            case cube_status::pruned: ++out.stats.pruned; break;
            case cube_status::skipped: ++out.stats.skipped; break;
            default: break;
        }
    }
    if (!any_sat) {
        const bool all_refuted = out.stats.refuted + out.stats.pruned == plan.cubes.size();
        out.result.ans = all_refuted ? answer::unsat : answer::unknown;
        if (!all_refuted)
            out.result.status =
                aborted ? solve_status::cancelled : solve_status::over_budget;
    }
    return out;
}

}  // namespace

shard_outcome solve_cubes(const indexed_shard_factory& factory, const cube_plan& plan,
                          thread_pool& pool, std::uint64_t slice_conflicts,
                          const solve_controls& controls) {
    if (plan.root_unsat) {
        shard_outcome out;
        out.stats.cubes = plan.cubes.size();
        out.cube_fates.assign(plan.cubes.size(), cube_status::pending);
        out.result.ans = answer::unsat;
        return out;
    }
    if (slice_conflicts != 0)
        return solve_cubes_rounds(factory, plan, pool, slice_conflicts, controls);
    return solve_cubes_free(factory, plan, pool, controls);
}

}  // namespace sciduction::substrate
