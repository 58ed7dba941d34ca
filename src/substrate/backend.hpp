/// \file
/// The substrate's uniform deductive-engine interface.
///
/// Every sciduction application (GameTime Sec. 3, OGIS Sec. 4, invariant
/// generation Sec. 2.4.1) hammers a deductive engine D with near-identical
/// oracle queries. solver_backend is the one seam those queries flow
/// through: a *prepared problem instance* that can be decided once,
/// cooperatively cancelled, and read back. Two adapters cover the repo's
/// engines — sat_backend over the CDCL core (CNF level, used by invgen) and
/// smt_backend over the QF_BV bit-blaster (term level, used by GameTime and
/// OGIS). The portfolio (portfolio.hpp) races diversified backends; the
/// query cache (query_cache.hpp) memoizes term-level results; the batch API
/// (engine.hpp) dispatches independent backends concurrently.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sat/solver.hpp"
#include "smt/solver.hpp"

/// \namespace sciduction
/// From-scratch C++20 reproduction of "Sciduction: combining induction,
/// deduction, and structure for verification and synthesis" (Seshia, DAC
/// 2012), grown toward a production-scale verification/synthesis engine.
namespace sciduction {}

/// The deductive substrate: uniform solver backends plus the caching and
/// concurrency strategies (portfolio, cube-and-conquer sharding, batching,
/// async futures) every application loop routes its queries through. See
/// docs/ARCHITECTURE.md.
/// Telemetry layer (src/obs/): forward-declared here so solve_controls can
/// carry an optional tracer without the substrate core depending on it.
namespace sciduction::obs {
class trace_collector;
}  // namespace sciduction::obs

namespace sciduction::substrate {

/// Three-valued outcome of a deductive query.
enum class answer : std::uint8_t {
    sat,     ///< a satisfying model was found
    unsat,   ///< the query was refuted
    unknown  ///< cancelled, paused, or aborted before an answer
};

/// *Why* a query ended the way it did — the regular error model every
/// substrate entry point reports through (carried on backend_result and
/// request_stats). A decided query is `ok`; an `unknown` answer always
/// carries one of the failure statuses, so callers (and the serving
/// protocol) never have to translate exceptions: exceptions are reserved
/// for programming errors (invalid terms, misuse of the API), never used
/// for expected outcomes like budgets or cancellation.
enum class solve_status : std::uint8_t {
    ok,           ///< the query was decided (sat or unsat)
    cancelled,    ///< cooperatively cancelled via the cancel flag
    timeout,      ///< the await-side time budget expired (handle-level)
    over_budget,  ///< the conflict budget (or slice budget) ran out
    malformed,    ///< the request failed validation; nothing ran
    internal      ///< an internal error was caught and serialized
};

/// Human-readable name of a solve status (logs, stats, protocol dumps).
const char* to_string(solve_status s);

/// Cube counts of one sharded solve, readable mid-flight.
struct cube_progress {
    std::atomic<std::size_t> total{0};  ///< cubes in the dispatched plan
    std::atomic<std::size_t> done{0};   ///< cubes settled so far
};

/// External control lines a caller threads into a long-running solve. All
/// fields are optional; a default-constructed solve_controls leaves every
/// scheduler byte-identical to its uncontrolled behaviour. Pointed-to
/// objects must outlive the solve.
struct solve_controls {
    /// Cooperative cancellation: set the flag from another thread and every
    /// backend of the solve aborts with answer::unknown. Schedulers that
    /// race (portfolio, shard SAT race) also *write* this flag when a winner
    /// cancels the losers, so after a decided race it reads true.
    std::atomic<bool>* cancel = nullptr;
    /// Progress line: the shard dispatcher publishes the plan's cube count
    /// before dispatching, and the shard schedulers bump `done` once per
    /// settled cube (refuted / pruned / satisfied / skipped). Other
    /// strategies leave it untouched.
    cube_progress* progress = nullptr;
    /// Conflict budget per backend instance (per portfolio member, per
    /// shard sibling pair); a backend that exhausts it answers unknown with
    /// all state intact. The budgeted-rounds disciplines check it at their
    /// barriers instead. 0 = unlimited.
    std::uint64_t conflict_budget = 0;
    /// Span tracer the schedulers record per-member / per-pair / per-round
    /// solve slices into. nullptr = tracing off (zero cost). Observation
    /// only: tracing must never perturb the search (the deterministic
    /// disciplines stay bit-identical with it enabled).
    obs::trace_collector* trace = nullptr;
    /// Track the solve's spans are recorded on (see trace_collector).
    std::uint32_t trace_track = 0;
    /// Request identifier stamped as the "query" arg of every span.
    std::uint64_t trace_query = 0;
};

/// Uniform result of one deductive query. CNF-level backends populate
/// sat_model (indexed by sat::var); term-level backends populate model (a
/// smt::env of the blasted variables, ready for term_manager::evaluate).
struct backend_result {
    answer ans = answer::unknown;        ///< the verdict
    std::vector<sat::lbool> sat_model;   ///< CNF-level model (sat answers)
    smt::env model;                      ///< term-level model (sat answers)
    /// On an unsat answer under assumptions: the assumption literals the
    /// final conflict actually used (CNF level, un-negated). Empty when the
    /// problem is unsat regardless of the assumptions. The shard scheduler
    /// prunes sibling cubes with this.
    std::vector<sat::lit> core;
    /// Solver conflicts this check spent — the scheduling-independent cost
    /// metric the shard benches and stats aggregate.
    std::uint64_t conflicts = 0;
    /// Clause-DB reductions the instance ran during this check (Glucose
    /// discipline; zero unless solver_options::reduce_learnts is on).
    std::uint64_t reduces = 0;
    /// Inprocessing passes (subsumption / elimination) the instance ran
    /// during this check; zero unless solver_options::inprocess is on.
    std::uint64_t inprocessings = 0;
    /// Variables currently eliminated by bounded variable elimination on the
    /// instance after this check (models are already reconstructed — this is
    /// accounting only).
    std::uint64_t eliminated_vars = 0;
    /// Why the query ended this way: `ok` for decided answers; unknown
    /// answers carry cancelled / timeout / over_budget / malformed /
    /// internal. Backends classify from the solver's own abort flags;
    /// schedulers propagate the winning (or aggregated) status.
    solve_status status = solve_status::ok;
    /// Detail line for malformed / internal statuses (the validation
    /// message or the caught exception's what()); empty otherwise.
    std::string status_detail;

    /// True when the answer is answer::sat.
    [[nodiscard]] bool is_sat() const { return ans == answer::sat; }
    /// True when the answer is answer::unsat.
    [[nodiscard]] bool is_unsat() const { return ans == answer::unsat; }
};

/// One prepared deductive problem instance. check() decides it; a non-null
/// cancel flag set by another thread aborts the search (the backend then
/// answers unknown). check_cube() decides the same instance under extra
/// CNF-level assumption literals — the shard layer's cubes — and may be
/// called repeatedly (incrementally: learnt clauses carry over between
/// cubes). Instances are single-owner and not thread-safe — concurrency
/// comes from racing, batching, or sharding *distinct* instances.
class solver_backend {
public:
    /// Virtual destructor: backends are owned polymorphically.
    virtual ~solver_backend() = default;

    /// Decides the prepared instance under extra CNF-level assumption
    /// literals (the shard layer's cubes); may be called repeatedly and
    /// incrementally. A non-null `cancel` set by another thread aborts the
    /// search with answer::unknown.
    virtual backend_result check_cube(const std::vector<sat::lit>& cube,
                                      const std::atomic<bool>* cancel) = 0;
    /// Decides the prepared instance (no extra cube literals).
    backend_result check(const std::atomic<bool>* cancel) { return check_cube({}, cancel); }
    /// Decides the prepared instance without a cancel flag.
    backend_result check() { return check(nullptr); }
    /// Builds the instance's CNF now if the adapter defers it (smt_backend
    /// blasts lazily); the cube generator needs the clauses before the
    /// first check. No-op for eager adapters.
    virtual void prepare() {}

    /// The CNF-level CDCL core of this instance, or nullptr for backends
    /// without one (both shipped adapters have one). The schedulers arm
    /// conflict budgets and set their conflict-pause slices through it,
    /// and read its conflict counts back.
    [[nodiscard]] virtual sat::solver* sat_core() { return nullptr; }
};

/// Arms a conflict budget on `backend`'s CDCL core: the core pauses after
/// `budget` more conflicts and answers unknown (solve_status::over_budget)
/// with its state intact. The threshold is absolute, so on a backend reused
/// across cubes the budget spans all of them. A budget of 0 (unlimited) or
/// a backend without a core leaves the search untouched.
void arm_conflict_budget(solver_backend& backend, std::uint64_t budget);

/// CNF-level adapter owning a sat::solver. The caller (or a build callback)
/// populates the solver with variables and clauses, then check() decides it
/// under the configured assumptions.
class sat_backend final : public solver_backend {
public:
    /// Creates an empty instance with the given search options.
    explicit sat_backend(sat::solver_options opts = {});

    /// The owned CDCL solver, for populating with variables and clauses.
    [[nodiscard]] sat::solver& solver() { return solver_; }
    /// Persistent assumption literals added to every check_cube call.
    void set_assumptions(std::vector<sat::lit> assumptions);

    backend_result check_cube(const std::vector<sat::lit>& cube,
                              const std::atomic<bool>* cancel) override;
    [[nodiscard]] sat::solver* sat_core() override { return &solver_; }

private:
    sat::solver solver_;
    std::vector<sat::lit> assumptions_;
};

/// Term-level adapter owning an smt::smt_solver over a shared term_manager.
/// Only *reads* the manager (blasting never creates terms), so distinct
/// smt_backends over one manager may run concurrently — provided no thread
/// builds new terms meanwhile.
class smt_backend final : public solver_backend {
public:
    /// Prepares an instance deciding the conjunction of `assertions` under
    /// the (non-persisted) `assumptions`. Blasting is deferred to the first
    /// check_cube / prepare call; all terms must already exist in `tm`.
    smt_backend(smt::term_manager& tm, std::vector<smt::term> assertions,
                std::vector<smt::term> assumptions = {}, sat::solver_options opts = {});

    backend_result check_cube(const std::vector<sat::lit>& cube,
                              const std::atomic<bool>* cancel) override;
    [[nodiscard]] sat::solver* sat_core() override { return &solver_.sat_core(); }

    /// The underlying SMT solver (and through it the blasted SAT core) —
    /// the shard layer's cube generator probes it for splitting variables.
    [[nodiscard]] smt::smt_solver& solver() { return solver_; }
    /// Blasts the assertions and assumption terms if not yet done. Called
    /// implicitly by check_cube; explicitly by the cube generator, which
    /// needs the CNF before the first solve.
    void prepare() override;

private:
    smt::smt_solver solver_;
    std::vector<smt::term> assertions_;
    std::vector<smt::term> assumptions_;
    std::vector<sat::lit> assumption_lits_;
    bool asserted_ = false;
};

/// Reads many term values out of one model: the env is taken once and
/// variables absent from it (never blasted, hence unconstrained) read as
/// zero — the same model completion as smt::smt_solver::model_value
/// (term_manager::evaluate_completed, linear in the term DAG).
class model_evaluator {
public:
    /// Takes the model env once; `tm` must outlive the evaluator.
    model_evaluator(const smt::term_manager& tm, smt::env model)
        : tm_(tm), env_(std::move(model)) {}

    /// Evaluates `t` under the model, reading unbound variables as zero.
    [[nodiscard]] std::uint64_t value(smt::term t) const;

private:
    const smt::term_manager& tm_;
    smt::env env_;
};

/// One-shot form of model_evaluator::value over a borrowed model env.
std::uint64_t eval_model(const smt::term_manager& tm, smt::term t, const smt::env& model);

}  // namespace sciduction::substrate
