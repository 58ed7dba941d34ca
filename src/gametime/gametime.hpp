// GameTime: game-theoretic timing analysis of software (paper Sec. 3).
//
// The sciduction triple here is:
//   H — the weight-perturbation model: the platform adversarially assigns a
//       path-independent weight w in R^m to CFG edges plus a path-dependent
//       perturbation pi with bounded mean (Sec. 3.2);
//   I — a learning algorithm that infers (w) from end-to-end measurements
//       of *basis paths* chosen uniformly at random;
//   D — the SMT solver, used to decide basis-path feasibility and emit the
//       test case driving execution down each path (Fig. 5).
//
// The platform is strictly a black box behind platform_oracle: GameTime sees
// only cycle counts, never cache state — the paper's whole point about
// avoiding manual environment modelling.
#pragma once

#include <optional>

#include "arch/machine.hpp"
#include "core/hypothesis.hpp"
#include "core/oracles.hpp"
#include "ir/cfg.hpp"
#include "ir/symexec.hpp"
#include "substrate/engine.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace sciduction::gametime {

/// End-to-end measurement interface to the platform (environment E).
using platform_oracle = core::measurement_oracle<std::vector<std::uint64_t>>;

/// The default platform: a SARM machine run from a randomly perturbed
/// environment state on every measurement.
class sarm_platform final : public platform_oracle {
public:
    /// `f` must be the same (unrolled, branch-resolved) function the CFG was
    /// built from, so measured runs traverse exactly the CFG's paths.
    sarm_platform(const ir::program& p, const ir::function& f,
                  arch::timing_config timing = {}, std::uint64_t seed = 20120604,
                  double fill = 0.6, std::uint64_t perturb_address_space = 0x9000);

    std::uint64_t measure(const std::vector<std::uint64_t>& args) override;

    /// Deterministic measurement from a cold environment state.
    std::uint64_t measure_cold(const std::vector<std::uint64_t>& args);

    [[nodiscard]] std::uint64_t measurements() const { return count_; }
    [[nodiscard]] const arch::compiled_function& compiled() const { return compiled_; }

private:
    arch::compiled_function compiled_;
    arch::machine machine_;
    util::rng rng_;
    double fill_;
    std::uint64_t address_space_;
    std::uint64_t count_ = 0;
};

/// A feasible basis of the CFG's path space plus the SMT-derived test cases.
struct basis_info {
    std::vector<ir::path> paths;
    std::vector<std::vector<std::uint64_t>> tests;  ///< args driving each basis path
    util::rmatrix matrix;                           ///< rows = edge vectors (b x m)
    std::size_t paths_considered = 0;               ///< enumeration effort
    std::size_t smt_queries = 0;      ///< rank-increasing candidates consulted
};

struct basis_config {
    /// Most paths enumerated before extraction gives up with
    /// std::runtime_error ("enumeration limit exceeded").
    std::size_t enumeration_limit = 1u << 20;
};

/// Extracts a maximal set of linearly independent *feasible* paths, querying
/// the SMT solver for feasibility/tests only on rank-increasing candidates
/// (paper Fig. 5, "Extract FEASIBLE BASIS PATHS with corresponding Test
/// Cases"). The result size is at most m - n + 2. Queries route through the
/// substrate engine (query cache, optional portfolio).
basis_info extract_basis_paths(const ir::cfg& g, substrate::smt_engine& engine,
                               const basis_config& cfg = {});
/// Back-compat convenience: runs on a transient cached engine over `tm`,
/// built from `engine_cfg` — pass an `engine_config::cache_path` to warm-
/// start repeated runs from a persisted query cache (docs/CACHING.md).
basis_info extract_basis_paths(const ir::cfg& g, smt::term_manager& tm,
                               std::size_t enumeration_limit = 1u << 20,
                               const substrate::engine_config& engine_cfg = {});

/// The learned (w, pi) timing model.
struct timing_model {
    util::rvector edge_weights;          ///< w: predicted cycles per edge (exact)
    std::vector<double> basis_means;     ///< mean measured cycles per basis path
    std::vector<double> basis_spread;    ///< max - min per basis path (pi witness)
    int measurements = 0;
};

struct learn_config {
    int trials_per_basis_path = 10;
    std::uint64_t seed = 61;
};

/// Runs the randomized measurement game: basis paths are drawn uniformly at
/// random per trial and measured end-to-end; w is the minimum-norm exact
/// solution of  B w = mean-lengths.
timing_model learn_timing_model(const basis_info& basis, platform_oracle& platform,
                                const learn_config& cfg = {});

/// Predicted execution time of an arbitrary path: x . w. Exact-rational
/// inputs, returned as double for reporting.
double predict_path_time(const ir::cfg& g, const timing_model& model, const ir::path& p);

struct wcet_estimate {
    ir::path longest;
    double predicted_cycles = 0;
    std::vector<std::uint64_t> test_args;  ///< drives execution down `longest`
};

/// Predicts the worst-case path: longest path in the DAG under the learned
/// edge weights, with SMT feasibility check (falls back to exhaustive
/// search over feasible paths when the DP-longest path is infeasible).
/// When the same engine also ran basis extraction, the feasibility re-check
/// of a basis path is a cache hit.
std::optional<wcet_estimate> predict_wcet(const ir::cfg& g, const timing_model& model,
                                          substrate::smt_engine& engine);
/// Back-compat convenience on a transient engine; `engine_cfg` as in
/// extract_basis_paths (a shared `cache_path` makes the feasibility
/// re-check of an already-extracted basis path a warm hit even across
/// processes).
std::optional<wcet_estimate> predict_wcet(const ir::cfg& g, const timing_model& model,
                                          smt::term_manager& tm,
                                          const substrate::engine_config& engine_cfg = {});

/// The paper's problem <TA> (Sec. 3.1): "is the execution time of P on E
/// always at most tau?" — answered by predicting the longest path, running
/// it, and comparing. Probabilistically sound under H (Sec. 3.3).
struct ta_answer {
    bool within_bound = false;
    double predicted_worst_cycles = 0;
    std::uint64_t measured_worst_cycles = 0;
    std::vector<std::uint64_t> witness_args;  ///< test case when the answer is NO
    core::soundness_report report;
};

ta_answer decide_ta(const ir::cfg& g, const timing_model& model, smt::term_manager& tm,
                    sarm_platform& platform, double tau,
                    const substrate::engine_config& engine_cfg = {});

/// The structure hypothesis H of this application, for reporting.
core::structure_hypothesis weight_perturbation_hypothesis();

}  // namespace sciduction::gametime
