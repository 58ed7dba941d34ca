/// \file
/// Cube-and-conquer sharding: split one *hard* query into a balanced tree
/// of cubes and decide the cubes concurrently.
///
/// Portfolio racing (portfolio.hpp) scales easy-to-diversify instances; it
/// cannot scale a single hard query — every member re-proves the same
/// search space. Cube-and-conquer does: a bounded lookahead pass picks the
/// most constraining variables, the induced assignment tree's leaves (the
/// "cubes") become independent `solve(assumptions)` calls, and a scheduler
/// spreads them over the thread pool. A cube that is satisfiable settles
/// the whole query (first SAT wins, the rest are cancelled); when every
/// cube is refuted the query is UNSAT, and the failed-assumption core of a
/// refuted cube prunes its sibling whenever the split literal took no part
/// in the refutation.
///
/// Determinism contract: answers are deterministic in all modes. For
/// all-UNSAT trees the full shard_stats are deterministic too — the
/// scheduler's unit of work is a *sibling pair* solved sequentially on one
/// incremental solver instance, so the per-pair work is independent of
/// thread count and scheduling order. The free scheduler's SAT races only
/// promise a model satisfying the query; which cube wins is
/// timing-dependent. The sliced scheduler (budgeted rounds) resolves SAT
/// at its round barriers in pair order, so there the winning cube and
/// model are reproducible too.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "substrate/backend.hpp"
#include "substrate/thread_pool.hpp"

namespace sciduction::substrate {

/// One cube: a conjunction of assumption literals selecting a leaf of the
/// split tree.
struct cube {
    std::vector<sat::lit> lits;  ///< the assumption literals, root split first
};

/// Knobs of the lookahead cube generator.
struct cube_config {
    /// Split variables; the tree has up to 2^depth leaves. Clamped to 12.
    unsigned depth = 3;
    /// Occurrence-ranked variables probed by the lookahead pass.
    unsigned probe_candidates = 16;
};

/// The output of the cube generator: a balanced tree over `split_vars`,
/// flattened into leaves in lexicographic order (cubes 2m and 2m+1 are
/// siblings differing only in the sign of the last split variable).
struct cube_plan {
    std::vector<sat::var> split_vars;  ///< chosen splitting variables, root first
    std::vector<cube> cubes;           ///< the leaves; a single empty cube if depth is 0
    std::vector<sat::lit> forced;      ///< entailed units found by failed-literal probes
    bool root_unsat = false;           ///< probing refuted the formula outright
};

/// Runs bounded lookahead on `s` (which must hold the problem clauses, at
/// decision level 0) and emits a balanced cube tree. Probing may add
/// entailed unit clauses to `s` (failed literals); they are also recorded
/// in `forced` so shard replicas can assume them. Deterministic: same
/// solver contents => same plan.
cube_plan generate_cubes(sat::solver& s, const cube_config& cfg = {});

/// Per-cube fate, exposed for tests and stats aggregation.
enum class cube_status : unsigned char {
    pending,    ///< never dispatched (only transiently observable)
    refuted,    ///< a solver run proved the cube unsat
    pruned,     ///< refuted for free: the sibling's unsat core excluded the split literal
    satisfied,  ///< a solver run found a model under the cube
    skipped     ///< abandoned after another cube won a SAT race
};

/// Aggregate work breakdown of one solve_cubes run.
struct shard_stats {
    std::size_t cubes = 0;        ///< leaves in the dispatched plan
    std::size_t refuted = 0;      ///< cubes a solver run proved unsat
    std::size_t pruned = 0;       ///< cubes refuted for free by a sibling's core
    std::size_t skipped = 0;      ///< cubes abandoned after a SAT race win
    std::uint64_t conflicts = 0;  ///< total solver conflicts across all cube runs
    /// Rounds driven (sliced scheduler only; 0 in the free one).
    std::uint64_t rounds = 0;

    /// Field-wise equality (the determinism tests compare whole snapshots).
    bool operator==(const shard_stats&) const = default;
};

/// What solve_cubes returns: the combined answer plus per-cube accounting.
struct shard_outcome {
    /// Sentinel for winning_cube when no cube was satisfiable.
    static constexpr std::size_t no_cube = static_cast<std::size_t>(-1);

    backend_result result;               ///< sat: winner's model; unsat: empty
    std::size_t winning_cube = no_cube;  ///< index of the SAT cube, if any
    shard_stats stats;                    ///< aggregate work breakdown
    std::vector<cube_status> cube_fates;  ///< per-cube, indexed like plan.cubes
};

/// Builds the replica of the shared problem that solves sibling pair
/// `pair`. The construction must be deterministic — every replica must
/// produce the same CNF with the same variable numbering as the solver
/// `generate_cubes` probed, or the plan's cube literals are meaningless
/// (same contract as the invgen portfolio factories). The index exists for
/// callers that keep per-pair metadata; callers that do not need it ignore
/// it. Deterministic: pair p always receives index p regardless of
/// scheduling.
using indexed_shard_factory = std::function<std::unique_ptr<solver_backend>(std::size_t pair)>;

/// Decides the problem by dispatching the plan's cubes across the caller's
/// `pool`. Work-stealing-style refill: the unit of work is a sibling pair,
/// and idle workers claim the next pair index until the tree is drained. A
/// SAT cube cancels everything else; all-UNSAT aggregates deterministically
/// (see the header comment's determinism contract).
///
/// `slice_conflicts` picks the scheduler: 0 runs each pair free to
/// completion; N > 0 gives every pair a persistent solver that advances N
/// conflicts per round, with a barrier between rounds. The sliced
/// scheduler makes the whole outcome reproducible across thread counts,
/// and its barriers are the points where a shared pool can hand its
/// workers to other work.
///
/// `controls` carries the external control lines: a cooperative cancel
/// flag (set it and every pair aborts; undecided cubes are marked skipped
/// and the outcome answers unknown), a progress line whose `done` count is
/// bumped once per settled cube, and a per-pair conflict budget (armed as
/// a conflict-pause on the free scheduler, checked at the round barriers
/// of the sliced one).
shard_outcome solve_cubes(const indexed_shard_factory& factory, const cube_plan& plan,
                          thread_pool& pool, std::uint64_t slice_conflicts = 0,
                          const solve_controls& controls = {});

}  // namespace sciduction::substrate
