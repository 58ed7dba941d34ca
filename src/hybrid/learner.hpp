// Hyperbox learning from labeled points — the *inductive engine* of the
// switching-logic application (paper Sec. 5.2).
//
// Following Goldman-Kearns hyperbox learning: given a membership (label)
// oracle whose positive region is — under the structure hypothesis — an
// axis-aligned box on a known grid, locate the box's two diagonal corners
// by per-dimension binary search anchored at a known positive point. The
// search terminates when each corner is a positive example whose immediate
// outer neighbour (one grid step) is negative or outside the
// overapproximation.
#pragma once

#include <functional>
#include <optional>

#include "hybrid/mds.hpp"

namespace sciduction::hybrid {

using label_fn = std::function<bool(const state&)>;

struct learner_config {
    /// Grid resolution per dimension (scalar applied to all by default).
    std::vector<double> grid;
    /// Max membership queries for the seed scan.
    int max_seed_probes = 256;
    /// Outward-scan stride (per dimension; defaults to 100x grid when
    /// empty). The corner search walks out from the seed at this stride
    /// until it sees a negative, then bisects the boundary down to grid
    /// resolution. Under a valid structure hypothesis (positives form one
    /// box) any stride finds the exact corner; when the hypothesis is
    /// transiently violated mid-fixpoint, the stride bounds how far a
    /// disconnected positive region can mislead the learner.
    std::vector<double> coarse_step;
};

struct learner_stats {
    std::uint64_t queries = 0;      ///< logical membership queries issued
    std::uint64_t seed_probes = 0;
    std::uint64_t oracle_calls = 0;  ///< actual oracle invocations (cache misses)
    std::uint64_t cache_hits = 0;
};

/// Scans the box middle-out along each axis for a positive point. Returns
/// nullopt if none of the probed grid points is positive (the guard is then
/// deemed empty). The middle-out order reflects the hyperbox hypothesis:
/// positives form one box, so a hit anywhere identifies it.
std::optional<state> find_seed(const box& over, const label_fn& label,
                               const learner_config& cfg, learner_stats& stats);

/// Learns the positive box inside `over` containing `seed`. Requires
/// label(seed) == true. Corner coordinates land on the grid.
box learn_box(const box& over, const state& seed, const label_fn& label,
              const learner_config& cfg, learner_stats& stats);

/// find_seed + learn_box; empty box when no seed is found. Membership
/// queries are memoized for the duration of the call
/// (substrate::oracle_cache): the seed scan and the per-dimension
/// bisections revisit snapped grid points, so `oracle_calls` counts the
/// distinct points labelled and `cache_hits` the repeats.
box learn_guard(const box& over, const label_fn& label, const learner_config& cfg,
                learner_stats& stats);

}  // namespace sciduction::hybrid
