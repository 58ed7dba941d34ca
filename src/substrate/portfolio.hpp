/// \file
/// Portfolio solving: race N diversified solver instances, return the first
/// answer, cancel the rest.
///
/// CDCL runtimes are heavy-tailed in the search strategy: two instances of
/// the same solver with different seeds / phases / restart schedules can
/// differ by orders of magnitude on one query. Racing a small, diversified
/// portfolio turns worst-case members into the minimum over members — the
/// classic multi-engine trick (ManySAT / ppfolio lineage) that the ROADMAP's
/// multi-backend north star builds on. Because every member decides the
/// *same* problem, sat/unsat answers are deterministic regardless of which
/// member wins; only the satisfying model (when one exists) depends on the
/// winner.
///
/// One entry point, `race`, runs two execution disciplines, picked by
/// portfolio_config::slice_conflicts:
///  * free race        — free-running members, first answer wins (0);
///  * budgeted rounds  — members advance in fixed conflict slices with a
///                       barrier between rounds (N > 0): identical answers
///                       and stats for 1 vs N threads.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "substrate/backend.hpp"
#include "substrate/thread_pool.hpp"

namespace sciduction::substrate {

/// Portfolio shape and execution discipline. See docs/TUNING.md.
struct portfolio_config {
    /// Member instances to race; 1 degenerates to a single solve.
    unsigned members = 4;
    /// Worker threads of the transient pool a race without a caller pool
    /// spins up (0 = min(members, hardware concurrency)). Members beyond the
    /// thread count start only if an earlier member finishes without an
    /// answer.
    unsigned threads = 0;
    /// Conflicts each member runs per round: 0 races the members
    /// free-running; N > 0 selects the budgeted-rounds discipline.
    std::uint64_t slice_conflicts = 0;
};

/// Builds the member'th diversified instance of one problem. Member 0 must
/// be the baseline configuration so a 1-member portfolio reproduces the
/// single-solver behaviour exactly.
using backend_factory = std::function<std::unique_ptr<solver_backend>(unsigned member)>;

/// What a race returns: the winning answer plus aggregate cost counters
/// over every member.
struct portfolio_outcome {
    backend_result result;     ///< first definite answer (winner's model if sat)
    unsigned winner = 0;       ///< member index that produced the answer
    /// Total solver conflicts across all members (scheduling-independent
    /// in the budgeted rounds).
    std::uint64_t total_conflicts = 0;
    /// Rounds driven (budgeted rounds only; 0 in the free races).
    std::uint64_t rounds = 0;
};

/// Races cfg.members instances built by `factory` and returns the first
/// definite answer, cancelling the losers. Answer unknown only if every
/// member returned unknown. Members run on `pool`; a null pool spins up a
/// transient one (callers racing in a loop should hold a pool).
/// `controls` carries the external control lines: a cooperative cancel flag
/// (set it and every member aborts; the race then answers unknown) and a
/// per-member conflict budget (the budgeted-rounds driver checks it at its
/// barriers; the free race arms each member's conflict-pause). In the
/// budgeted rounds (cfg.slice_conflicts > 0) the winner is the
/// lowest-indexed member that answers in the deciding round, which
/// makes the full outcome — answer, model, stats — reproducible across
/// thread counts.
portfolio_outcome race(const backend_factory& factory, const portfolio_config& cfg,
                       thread_pool* pool, const solve_controls& controls = {});

/// Standard diversification for the member'th portfolio slot: member 0 is
/// the baseline; others vary seed, initial phase, random-branch frequency,
/// activity decay, and the restart schedule.
sat::solver_options diversified_options(unsigned member);

}  // namespace sciduction::substrate
