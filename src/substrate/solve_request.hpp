/// \file
/// The substrate's unified request model: one `solve_request` describes a
/// deductive query *and* how to decide it.
///
/// A `solve_request` is data: the assertions plus a composable `strategy`
/// descriptor — `automatic | single | portfolio | shard` with the conflict
/// slice, conflict/time budgets and cache policy as per-request fields.
/// `smt_engine::submit` (engine.hpp) is the one entry point consuming it;
/// `solve_cnf` below is the CNF-level analogue for workloads (invgen) that
/// build clauses directly instead of terms. Both decide every instance through the one
/// dispatcher declared here: `classify` resolves an `automatic` request
/// on its prototype instance, and `execute` runs the resolved strategy.
///
/// `strategy::auto_select` closes the ROADMAP "adaptive member selection
/// per query shape" item: a deterministic classifier over cheap structural
/// features (variable/clause counts, incrementality, worker threads) that
/// picks the strategy and the shard depth.
#pragma once

#include <optional>

#include "sat/dimacs.hpp"
#include "substrate/backend.hpp"
#include "substrate/shard.hpp"

namespace sciduction::substrate {

/// The four ways the substrate can decide one query.
enum class strategy_kind : std::uint8_t {
    automatic,  ///< classify the query and pick one of the concrete kinds
    single,     ///< one solver instance on one thread
    portfolio,  ///< race N diversified instances
    shard       ///< cube-and-conquer one hard query across the pool
};

/// Human-readable name of a strategy kind (bench/stat labels).
const char* to_string(strategy_kind k);

/// A strategy after resolution: every knob concrete, `kind` never
/// `automatic` once classified. This is what `execute` runs and what
/// `query_handle::stats()` reports back. The initializers are the library
/// defaults every unset request field takes (docs/TUNING.md).
struct resolved_strategy {
    strategy_kind kind = strategy_kind::single;  ///< concrete execution discipline
    unsigned members = 4;            ///< portfolio members (kind portfolio)
    unsigned depth = 3;              ///< cube split depth (kind shard)
    unsigned probe_candidates = 16;  ///< lookahead probes per cube generation
    sat::solver_features features{}; ///< CDCL feature toggles (reduction/inprocessing)
    bool use_cache = true;           ///< consult/populate the query cache
    std::uint64_t conflict_budget = 0;  ///< per-instance conflict cap (0 = unlimited)
    std::uint64_t slice_conflicts = 0;  ///< budgeted-rounds slice (0 = free-running)
    std::uint64_t time_budget_ms = 0;   ///< await-side wall-clock cap (0 = unlimited)
};

/// The cheap structural features `strategy::auto_select` classifies on.
/// `classify` fills them from the prototype instance (whose construction
/// is paid anyway by the solve); tests construct them directly.
struct query_features {
    std::size_t variables = 0;    ///< CNF variables of the blasted instance
    std::size_t clauses = 0;      ///< CNF problem clauses of the blasted instance
    std::size_t assumptions = 0;  ///< per-check assumption terms (incremental shape)
    unsigned threads = 1;         ///< worker threads available to the engine
};

/// How to decide one query: the kind plus optional per-request overrides.
/// Unset fields take the library defaults (`resolved_strategy`'s
/// initializers) in the engine and in `solve_cnf` alike; only an unset
/// `use_cache` follows the engine's `engine_config::use_cache`. The
/// precedence contract is tested in solve_request_test.cpp.
struct strategy {
    /// Requested execution discipline; `automatic` defers to auto_select.
    strategy_kind kind = strategy_kind::automatic;
    /// Portfolio members to race (unset = 4).
    std::optional<unsigned> members;
    /// Cube split depth for the shard kind (unset = 3).
    std::optional<unsigned> depth;
    /// Lookahead probes per cube generation (unset = 16).
    std::optional<unsigned> probe_candidates;
    /// CDCL feature toggles — Glucose clause-DB reduction and restart-
    /// boundary inprocessing (`sat::solver_features`). Applied on top of
    /// every instance's options (including diversified portfolio members),
    /// so the whole strategy runs with one feature set; triggers are
    /// conflict-count based, keeping the deterministic disciplines
    /// bit-identical across thread counts (unset = both off).
    std::optional<sat::solver_features> features;
    /// Consult/populate the query cache for this request (unset = the
    /// engine's `engine_config::use_cache`; on in `solve_cnf`). Coalescing
    /// of in-flight duplicates is independent of this.
    std::optional<bool> use_cache;
    /// Conflict budget per solver instance; exhausting it yields
    /// answer::unknown. 0 = unlimited.
    std::uint64_t conflict_budget = 0;
    /// Conflicts per portfolio member or shard sibling pair per round: N > 0
    /// runs the budgeted-rounds schedulers, whose outcome is identical at
    /// every thread count and whose round barriers let a shared pool
    /// preempt the solve; 0 runs them free-running. `single` ignores it,
    /// and `auto_select` never sets it: an `automatic` request's slice
    /// applies to whichever kind the classifier picks.
    std::uint64_t slice_conflicts = 0;
    /// Wall-clock budget enforced at `query_handle::get()`: on expiry the
    /// solve is cooperatively cancelled and the handle yields
    /// answer::unknown. 0 = unlimited.
    std::uint64_t time_budget_ms = 0;

    /// A strategy left entirely to the classifier.
    static strategy automatic() { return {}; }
    /// One solver instance, library defaults for everything else.
    static strategy single();
    /// Portfolio race; `members` 0 leaves the count unset (4 members).
    static strategy portfolio(unsigned members = 0);
    /// Cube-and-conquer; `depth` 0 leaves the depth unset (depth 3).
    static strategy shard(unsigned depth = 0);

    /// The deterministic per-query classifier (ROADMAP "adaptive member
    /// selection per query shape"). Pure function of the features: tiny
    /// and assumption-carrying queries stay single, large ones shard with
    /// depth ~ log2(threads), and the rest race a portfolio when there
    /// are at least two threads (single otherwise). Never returns
    /// `automatic`.
    static strategy auto_select(const query_features& f);

    /// Applies this request's explicitly-set fields over a classifier
    /// pick and returns the combined strategy — the precedence rule
    /// "request field > classifier pick" (defaults apply at resolve
    /// time); budgets and the slice always copy from the request.
    /// `classify` routes through this.
    [[nodiscard]] strategy overriding(strategy pick) const;

    /// Resolves this request against the library defaults: unset optionals
    /// take `resolved_strategy`'s initializers, set fields override,
    /// budgets and the slice copy through. Degenerate combinations
    /// normalize to `single` (a 1-member portfolio, a shard of explicit
    /// depth 0). `automatic`
    /// resolves its *fields* but keeps its kind — `classify` picks the
    /// kind once the prototype instance exists.
    [[nodiscard]] resolved_strategy resolve() const;

    /// Checks the explicitly-set fields for nonsense the resolve/clamp
    /// machinery would otherwise paper over (a 0-member portfolio, a cube
    /// depth beyond the generator's clamp, a 0-probe lookahead).
    /// Returns an explanation, or empty when valid. `smt_engine::submit`
    /// and the daemon's admission both call this and report failures as
    /// solve_status::malformed instead of throwing.
    [[nodiscard]] std::string validate() const;
};

/// Thresholds of `strategy::auto_select`, exposed so tests and docs stay in
/// sync with the classifier (see docs/TUNING.md).
struct auto_select_thresholds {
    static constexpr std::size_t small_clauses = 2000;   ///< below: single
    static constexpr std::size_t small_variables = 600;  ///< below (and small_clauses): single
    static constexpr std::size_t large_clauses = 20000;  ///< at/above: shard
};

/// One term-level deductive request — what `smt_engine::submit` consumes:
/// the query itself (decide the conjunction of `assertions` under the
/// non-persisted `assumptions`) plus the strategy deciding it. All terms
/// must exist before submission (backends only read the term manager).
struct solve_request {
    std::vector<smt::term> assertions;   ///< terms asserted true
    std::vector<smt::term> assumptions;  ///< extra per-check assumption terms
    /// How to decide the query; default lets the classifier pick.
    struct strategy strategy;

    /// Checks the request for shapes that cannot be solved: invalid
    /// (default-constructed) terms plus everything strategy::validate
    /// rejects. Returns an explanation, or empty when valid.
    [[nodiscard]] std::string validate() const;
};

/// The shared classifier of `smt_engine` and `solve_cnf`: resolves an
/// `automatic` request on its prototype's variable and clause counts, the
/// assumption count and the worker threads (0 = hardware). Precedence:
/// request field > `strategy::auto_select` pick > library default.
resolved_strategy classify(const strategy& requested, const sat::solver& prototype,
                           std::size_t assumptions, unsigned threads);

/// Builds the member'th instance of the query with the given options.
/// Every instance must encode the identical CNF with identical variable
/// numbering (the portfolio and shard replica contract).
using instance_factory =
    std::function<std::unique_ptr<solver_backend>(unsigned member, sat::solver_options opts)>;

/// What `execute` returns: the verdict plus the accounting of the
/// discipline that ran.
struct dispatch_outcome {
    backend_result result;      ///< the verdict (winner's model if sat)
    unsigned winner = 0;        ///< portfolio member that answered (kind portfolio)
    std::uint64_t total_conflicts = 0;  ///< conflicts across all instances
    shard_stats shard;                  ///< shard work breakdown (kind shard)
    std::uint64_t rounds = 0;     ///< budgeted rounds driven (0 when free-running)
    std::uint64_t instances = 0;  ///< runs: 1, the members, or the shard replicas built
};

/// The shared executor of `smt_engine` and `solve_cnf`: decides one query
/// under a resolved strategy. The optional `prototype` (member 0's
/// options; built through `make` when absent) is recycled as the single
/// instance, portfolio member 0 or the shard lookahead instance. Member m
/// gets `diversified_options(m)` under the strategy's features; shard
/// replicas are member 0. Portfolio and shard run on `pool`, or on a
/// transient pool of `threads` workers (0 = hardware, capped at a
/// portfolio's member count) when it is null;
/// `single` never uses one. A shard publishes its cube count on
/// `controls.progress` before dispatching.
dispatch_outcome execute(const resolved_strategy& rs, std::unique_ptr<solver_backend> prototype,
                         const instance_factory& make, thread_pool* pool, unsigned threads,
                         const solve_controls& controls);

/// What `solve_cnf` returns: the executor's outcome plus the kind that ran
/// and whether the CNF-level cache answered.
struct cnf_outcome : dispatch_outcome {
    strategy_kind executed = strategy_kind::single;  ///< the kind that actually ran
    /// The result came from the CNF-level cache: no search ran (a cached
    /// sat model is re-validated on the prototype instance by propagation
    /// only; `executed` then reports `single` and `winner` 0).
    bool cache_hit = false;
};

/// Deterministic CNF builder handed to solve_cnf: populate `s` with the
/// member'th instance of the problem. Every member must build the identical
/// CNF with identical variable numbering (the replica contract); the member
/// index exists so callers can record per-member metadata (e.g. invgen's
/// violation literals), not to vary the formula.
using cnf_builder = std::function<void(unsigned member, sat::solver& s)>;

/// The substrate's result cache (query_cache.hpp); forward-declared here
/// so solve_cnf can accept one without the header dependency.
class query_cache;

/// CNF-level analogue of `smt_engine::submit` for workloads that build
/// clauses directly (invgen's refinement rounds and inductive-step proof):
/// resolves `strat` against the library defaults and decides the built
/// instances through `execute` — single solve, diversified portfolio
/// race, or cube-and-conquer. `automatic` goes through `classify` on a
/// prototype instance. Synchronous; `threads` 0 = hardware, and more than
/// `max_threads` is reported as solve_status::malformed.
///
/// A non-null `cache` memoizes results under the instance's
/// `cnf_fingerprint` (the clause-stream digest — sound because the
/// builder contract already requires deterministic construction). Cached
/// unsat answers return immediately; a cached sat model is re-validated
/// against the freshly built prototype by assuming every model literal
/// (propagation, no search) and falls back to a normal solve if the
/// propagation refutes it. With a persistent cache (query_cache
/// constructed with a path) this is invgen's cross-run warm start.
cnf_outcome solve_cnf(const cnf_builder& build, const strategy& strat, unsigned threads = 0,
                      const solve_controls& controls = {}, query_cache* cache = nullptr);

/// Decides a parsed DIMACS instance through solve_cnf: the clause-level
/// form is replayed identically into every portfolio member / shard
/// replica (the builder contract holds by construction), so strategies,
/// budgets, and the CNF fingerprint cache all apply to standard benchmark
/// files exactly as they do to in-tree builders.
cnf_outcome solve_cnf_dimacs(const sat::dimacs_problem& problem, const strategy& strat = {},
                             unsigned threads = 0, const solve_controls& controls = {},
                             query_cache* cache = nullptr);

/// Reads a DIMACS CNF file and decides it through solve_cnf — the
/// standard-format front door `sciduction_run` and the scenario corpus
/// use. An unreadable or malformed file is reported through the regular
/// error model (solve_status::malformed with the parser's message as
/// status_detail), never thrown: a bad benchmark file is an expected
/// input, not a programming error.
cnf_outcome solve_cnf_file(const std::string& path, const strategy& strat = {},
                           unsigned threads = 0, const solve_controls& controls = {},
                           query_cache* cache = nullptr);

}  // namespace sciduction::substrate
