// Oracle-guided component-based program synthesis (paper Sec. 4).
//
// Sciduction triple:
//   H — loop-free compositions of a finite component library (component.hpp);
//   I — learning from *distinguishing inputs*: iteratively query the I/O
//       oracle on inputs that separate semantically different candidates
//       consistent with everything seen so far (Goldman–Kearns teaching
//       sets: each distinguishing input covers part of the "incorrect
//       concepts" universe);
//   D — the SMT solver, (i) synthesizing candidates consistent with the
//       examples via a location encoding and (ii) finding the
//       distinguishing inputs.
//
// Guarantee (paper Sec. 4.3 / Fig. 7): if the library is sufficient
// (valid(H)), the synthesized program is correct; otherwise the procedure
// reports unrealizability or may return a program consistent with the
// examples yet wrong — exactly the conditional-soundness contract.
#pragma once

#include <chrono>
#include <optional>

#include "core/hypothesis.hpp"
#include "core/loops.hpp"
#include "core/oracles.hpp"
#include "ogis/component.hpp"
#include "substrate/engine.hpp"

namespace sciduction::ogis {

using io_vector = std::vector<std::uint64_t>;
using spec_oracle = core::io_oracle<io_vector, io_vector>;

struct synthesis_config {
    unsigned width = 32;
    unsigned num_inputs = 1;
    unsigned num_outputs = 1;
    std::vector<component> library;
    int max_iterations = 64;
    /// Random inputs used to prime the example set before the first
    /// synthesis query ("starts with one or more randomly chosen inputs").
    int initial_examples = 2;
    std::uint64_t seed = 2010;
    /// Engine for the synthesis/distinguishing queries, each submitted as
    /// a single solve so the models — and hence the candidate programs —
    /// stay deterministic. The default (cache on) reproduces the
    /// historical behaviour; `engine.threads` sizes the pool the
    /// overlapped queries run on.
    /// Setting `engine.cache_path` persists the query cache across runs:
    /// the cache key is structural, so a re-run (fresh term_manager and
    /// all) answers its repeated synthesis/distinguish queries from the
    /// file with remapped, evaluation-verified models (docs/CACHING.md).
    substrate::engine_config engine;
    /// Overlap each round's synthesis and distinguishing queries through
    /// the engine's async API: whenever the current candidate survives an
    /// oracle answer, the next distinguishing query and a speculative
    /// re-synthesis run concurrently (the speculation is a free cache hit
    /// when the candidate was freshly synthesized). The returned program
    /// carries the same guarantee — every candidate is checked consistent
    /// with all revealed examples, and the success / unrealizable verdicts
    /// are reached by the same deductive arguments — but the exact
    /// iteration trajectory may differ from the sequential loop (as with
    /// any speculative CEGIS pipelining).
    bool overlap_queries = false;
    /// Worker threads labelling the seed examples through
    /// substrate::parallel_map before the loop starts. > 1 requires a
    /// thread-safe oracle (the built-in benchmark oracles are); 1 labels
    /// sequentially inside the loop, as before.
    unsigned oracle_threads = 1;
};

struct synthesis_stats {
    int iterations = 0;
    std::uint64_t oracle_queries = 0;
    int synthesis_queries = 0;
    int distinguish_queries = 0;
    int speculative_queries = 0;  ///< overlapped re-synthesis solves launched
    std::uint64_t substrate_cache_hits = 0;  ///< solver queries answered memoized
    std::uint64_t solver_runs = 0;           ///< solver instances actually run
    /// Solver conflicts of the queries this run solved; a cache hit or a
    /// coalesced duplicate adds none.
    std::uint64_t conflicts = 0;
    double elapsed_seconds = 0;
};

struct synthesis_outcome {
    core::loop_status status = core::loop_status::budget_exhausted;
    std::optional<lf_program> program;
    synthesis_stats stats;
    core::soundness_report report;
};

/// Runs the OGIS loop against the given I/O oracle.
synthesis_outcome synthesize(const synthesis_config& cfg, spec_oracle& oracle);

/// The structure hypothesis H of this application, for reporting.
core::structure_hypothesis component_library_hypothesis(std::size_t library_size);

}  // namespace sciduction::ogis
