/// \file
/// smt_engine: the facade the application layers route their deductive
/// queries through.
///
/// One engine per (term_manager, workload) combines the substrate pieces
/// behind a single entry point: `submit(solve_request)` accepts the
/// assertions plus a per-request `strategy` descriptor (solve_request.hpp)
/// and returns a `query_handle` — awaitable, cooperatively cancellable,
/// progress- and stats-readable. Every execution discipline flows through
/// it:
///   * query cache    — memoizes results across the workload's loop
///                      (optionally capacity-bounded with LRU eviction);
///                      every sat hit is remapped and verified by evaluation;
///   * single         — one solver instance;
///   * portfolio      — races diversified instances on the pool;
///   * shard          — cube-and-conquers one hard query across the pool
///                      (both in reproducible budgeted rounds with
///                      `strategy::slice_conflicts`);
///   * automatic      — `strategy::auto_select` classifies the query on
///                      cheap structural features;
///   * coalescing     — a submit equal to one already in flight shares its
///                      handle instead of re-solving.
/// `submit` is asynchronous; `solve` is its synchronous twin (executed on
/// the calling thread, so sequential workloads stay free of worker
/// threads). Multi-tenant serving opens one `engine_session` per tenant
/// (open_session): session submits ride a fair dispatch lane of the pool
/// and are accounted in a per-tenant `session_stats` slice — the
/// scheduling substrate sciductiond (src/service/) builds on. A
/// default-configured engine running
/// single-strategy requests is observationally identical to constructing
/// one smt::smt_solver per query, which is what the application modules
/// did before the substrate existed.
#pragma once

#include <future>
#include <memory>

#include "obs/trace.hpp"
#include "substrate/annotations.hpp"
#include "substrate/query_cache.hpp"
#include "substrate/solve_request.hpp"
#include "substrate/thread_pool.hpp"

namespace sciduction::substrate {

/// Per-engine configuration: the cache, the worker threads and tracing.
/// How a query is decided is not configured here: the request's `strategy`
/// carries it, and its unset fields take the library defaults
/// (solve_request.hpp). See docs/TUNING.md for guidance.
struct engine_config {
    /// Memoize term-level results in the structural query cache; the
    /// policy of every request whose `strategy::use_cache` is unset.
    bool use_cache = true;
    /// Query-cache capacity (results retained); 0 = unbounded. Bounded
    /// caches evict least-recently-used entries, keeping long CEGIS runs'
    /// memory flat while the hot re-checks stay resident.
    std::size_t cache_capacity = 0;
    /// Worker threads for every strategy and for batch/async dispatch
    /// (0 = hardware).
    unsigned threads = 0;
    /// Persist the query cache at this path: loaded when the engine is
    /// constructed, saved when it is destroyed (and on explicit
    /// cache().save()), so repeated CLI/CI runs of the same workload start
    /// warm — cached entries are keyed structurally, so even a fresh
    /// term_manager hits them (models are remapped and
    /// evaluation-verified). Empty = in-process only. Ignored when
    /// `shared_cache` is set. See docs/CACHING.md.
    std::string cache_path{};
    /// Share one query_cache between several engines (each over its own
    /// term_manager): structurally identical queries submitted through any
    /// of them are solved once and remapped for the rest. When set,
    /// `cache_path` / `cache_capacity` of this config are ignored — the
    /// shared cache was constructed with its own. The cache must outlive
    /// every engine using it (shared ownership guarantees that).
    std::shared_ptr<query_cache> shared_cache{};
    /// Share one thread_pool between several engines (sciductiond runs one
    /// pool for every tenant engine). When set, `threads` is ignored and
    /// the engine never constructs its own pool. Unlike an owned pool, the
    /// shared pool is *not* drained by ~smt_engine — await every handle
    /// before destroying the engine (the daemon's drain does exactly that).
    std::shared_ptr<thread_pool> shared_pool{};
    /// Span tracer every submit records its request life into (submit,
    /// strategy resolve, cache lookup, queue wait, solve, per-member /
    /// per-pair slices). Share one collector between engines (the daemon
    /// does, one track per tenant) or leave null for zero-cost no tracing.
    /// Tracing is observation-only: deterministic disciplines stay
    /// bit-identical with it enabled (pinned by tests/obs_test.cpp).
    std::shared_ptr<obs::trace_collector> trace{};
    /// Track name the engine's spans are recorded under (registered at
    /// construction); empty = "engine". Ignored when `trace` is null.
    std::string trace_track_name{};

    /// Checks the configuration for nonsense (a thread count above
    /// `max_threads`). Returns an explanation, or empty when valid. The
    /// smt_engine constructor throws std::invalid_argument on a failing
    /// config — misconfiguring an engine is a programming error, unlike a
    /// malformed request.
    [[nodiscard]] std::string validate() const;
};

/// Per-strategy dispatch counters (how often each concrete kind ran).
struct strategy_picks {
    std::uint64_t single = 0;     ///< single-instance solves
    std::uint64_t portfolio = 0;  ///< portfolio races
    std::uint64_t shard = 0;      ///< cube-and-conquer dispatches

    /// Sum over all kinds.
    [[nodiscard]] std::uint64_t total() const { return single + portfolio + shard; }
    /// Bumps the counter matching `k` (automatic is never dispatched).
    void count(strategy_kind k);
};

/// Engine-level counters, cumulative over the engine's lifetime. The
/// cache's own counters (remapped models, warm-start loads, rejects) are
/// read from `cache().stats()`; for a shared cache they aggregate over
/// every engine sharing it.
struct engine_stats {
    std::uint64_t queries = 0;      ///< submits
    std::uint64_t cache_hits = 0;   ///< queries answered from the query cache
    std::uint64_t solver_runs = 0;  ///< backends actually constructed+checked
    std::uint64_t coalesced = 0;    ///< submits joined to an in-flight duplicate
    strategy_picks dispatched;      ///< executed strategies, by concrete kind
    strategy_picks auto_picks;      ///< the subset chosen by strategy::auto_select
};

/// Mid-flight progress snapshot of one submitted request.
struct query_progress {
    bool started = false;           ///< a worker picked the request up
    bool finished = false;          ///< the result is ready
    bool cancel_requested = false;  ///< cancel() was called on a handle
    std::size_t cubes_total = 0;    ///< kind shard: cubes in the dispatched plan
    std::size_t cubes_done = 0;     ///< kind shard: cubes settled so far
    /// Live solver conflicts spent so far, sampled at restart boundaries
    /// (the sat::solver progress hook); 0 until the first restart.
    std::uint64_t conflicts = 0;
    /// The resolved strategy kind driving the solve — `automatic` until
    /// classification has run (progress readers see *why* a request is
    /// slow: which discipline it is burning conflicts under).
    strategy_kind strategy = strategy_kind::automatic;
};

/// Post-hoc accounting of one submitted request, readable from its handle.
/// Fully populated once the handle is ready; mid-flight reads see the
/// resolved strategy and whatever the solve has filled in so far.
struct request_stats {
    /// The strategy that actually ran (kind automatic only if the request
    /// was answered from the cache before classification).
    resolved_strategy strategy;
    bool auto_selected = false;  ///< strategy::auto_select made the pick
    bool cache_hit = false;      ///< answered from the query cache
    bool coalesced = false;      ///< this handle joined an in-flight duplicate
    unsigned winner = 0;         ///< kind portfolio: member that answered
    std::uint64_t conflicts = 0; ///< conflicts of the returned result
    std::uint64_t rounds = 0;    ///< budgeted rounds driven (0 when free-running)
    shard_stats shard;           ///< kind shard: work breakdown (else zeroed)
    /// Why the solve ended the way it did (mirrors the result's
    /// solve_status; `ok` until completion). A handle-level timeout is
    /// reported on the result `get()` returns, not here — the shared solve
    /// may outlive one handle's await budget.
    solve_status status = solve_status::ok;
    /// Detail line for malformed / internal statuses; empty otherwise.
    std::string status_detail;
};

/// Implementation detail of the engine (not part of the public API).
namespace detail {
/// Shared state behind query_handle; defined in engine.cpp.
struct query_state;
}  // namespace detail

/// A submitted query: awaitable (get/wait/ready), cooperatively
/// cancellable (cancel), and progress/stats-readable mid-flight. Handles
/// are cheap shared references — copies (and handles returned for
/// coalesced duplicate submits) observe the same underlying solve, so
/// cancelling any of them cancels the shared solve. A request's
/// `time_budget_ms` is enforced at get(): on expiry the solve is
/// cancelled and the handle yields answer::unknown. The budget is
/// per-handle — a coalesced duplicate keeps its own time budget even
/// though the solve (and its conflict budget) belong to the first
/// submission.
class query_handle {
public:
    /// An empty handle; valid() is false until assigned from submit().
    query_handle() = default;

    /// Whether this handle refers to a submitted request.
    [[nodiscard]] bool valid() const { return state_ != nullptr; }
    /// Whether the result is ready (never blocks).
    [[nodiscard]] bool ready() const;
    /// Blocks until the result is ready (ignores the time budget).
    void wait() const;
    /// Awaits and returns the result, enforcing the request's time budget:
    /// on expiry the solve is cooperatively cancelled and the (unknown)
    /// result of the aborted solve is returned.
    [[nodiscard]] backend_result get();
    /// Requests cooperative cancellation: every backend of the solve aborts
    /// at its next check and the result becomes answer::unknown (unless the
    /// solve already decided). Idempotent; safe from any thread.
    void cancel();
    /// Progress snapshot (thread-safe, never blocks).
    [[nodiscard]] query_progress progress() const;
    /// Accounting snapshot (thread-safe; complete once ready()).
    [[nodiscard]] request_stats stats() const;

private:
    friend class smt_engine;
    query_handle(std::shared_ptr<detail::query_state> state,
                 std::shared_future<backend_result> future, std::uint64_t time_budget_ms,
                 bool coalesced)
        : state_(std::move(state)),
          future_(std::move(future)),
          time_budget_ms_(time_budget_ms),
          coalesced_(coalesced) {}

    // The future lives in the handle, NOT in the shared query_state: the
    // solve task's closure owns a reference to the state, and the future's
    // shared state owns the closure — storing the future inside
    // query_state would close a shared_ptr cycle and leak every request.
    std::shared_ptr<detail::query_state> state_;
    std::shared_future<backend_result> future_;
    std::uint64_t time_budget_ms_ = 0;  // per-handle: survives coalescing
    bool coalesced_ = false;
};

/// Per-tenant accounting slice of engine_stats: what one session submitted
/// and how it ended, by solve_status. `completed` counts solves whose
/// completion ran under this session (a coalesced duplicate's completion is
/// accounted to the session that submitted first).
struct session_stats {
    std::uint64_t queries = 0;      ///< submits through this session
    std::uint64_t cache_hits = 0;   ///< answered from the query cache
    std::uint64_t coalesced = 0;    ///< joined an in-flight duplicate
    std::uint64_t completed = 0;    ///< solves completed under this session
    std::uint64_t conflicts = 0;    ///< conflicts those solves spent
    std::uint64_t ok = 0;           ///< completed with a decided answer
    std::uint64_t cancelled = 0;    ///< completed cancelled
    std::uint64_t over_budget = 0;  ///< completed with the budget exhausted
    std::uint64_t malformed = 0;    ///< rejected by validation
    std::uint64_t internal = 0;     ///< completed with a serialized error

    /// Bumps the by-status counter matching `s` (timeout is handle-level
    /// and never reaches a session's completion path).
    void count(solve_status s);
};

class smt_engine;

/// A tenant's view of one engine — the session context sciductiond opens
/// per client (smt_engine::open_session). Submits through a session ride
/// the session's fair dispatch lane of the engine pool (weighted
/// round-robin against every other lane, so one tenant's shard fan-out
/// cannot starve another tenant's tiny queries) and are accounted in the
/// session's own session_stats slice. Sessions are handed out as
/// shared_ptr and must not outlive their engine; the lane is released when
/// the last reference drops.
class engine_session : public std::enable_shared_from_this<engine_session> {
public:
    ~engine_session();
    engine_session(const engine_session&) = delete;             ///< non-copyable (owns a lane)
    engine_session& operator=(const engine_session&) = delete;  ///< non-copyable

    /// The tenant name the session was opened with.
    [[nodiscard]] const std::string& name() const { return name_; }
    /// The round-robin weight of the session's dispatch lane.
    [[nodiscard]] unsigned weight() const { return weight_; }
    /// Snapshot of the per-tenant counters (thread-safe).
    [[nodiscard]] session_stats stats() const;
    /// smt_engine::submit, on this session's lane and accounting slice.
    query_handle submit(solve_request req);
    /// Synchronous submit (smt_engine::solve) on this session's slice.
    backend_result solve(solve_request req);

private:
    friend class smt_engine;
    engine_session(smt_engine& engine, std::string name, unsigned weight,
                   thread_pool::lane_id lane)
        : engine_(engine), name_(std::move(name)), weight_(weight), lane_(lane) {}
    void note_query(bool cache_hit, bool coalesced);
    void note_completed(const backend_result& result);

    smt_engine& engine_;
    std::string name_;
    unsigned weight_;
    thread_pool::lane_id lane_;
    mutable sd::mutex mutex_;
    session_stats stats_ SD_GUARDED_BY(mutex_);
};

/// The deductive-query facade: one engine per (term_manager, workload)
/// owning the query cache and the worker pool. See the file comment and
/// docs/ARCHITECTURE.md.
class smt_engine {
public:
    /// Binds the engine to `tm` (which must outlive it) with `cfg`.
    explicit smt_engine(smt::term_manager& tm, engine_config cfg = {});

    /// The term manager every query's terms must come from.
    [[nodiscard]] smt::term_manager& manager() { return tm_; }
    /// The configuration the engine was built with.
    [[nodiscard]] const engine_config& config() const { return cfg_; }
    /// The structural query cache (shared by all strategies; possibly
    /// shared with other engines via engine_config::shared_cache). Its
    /// stats() carry the remap and warm-start counters.
    [[nodiscard]] query_cache& cache() { return *cache_; }
    /// Snapshot of the engine counters (thread-safe).
    [[nodiscard]] engine_stats stats() const;

    /// THE entry point: submits one request and returns its handle. The
    /// request's strategy resolves against the library defaults (set
    /// fields override, unset take `resolved_strategy`'s initializers, an
    /// unset `use_cache` takes `engine_config::use_cache`; `automatic` is
    /// classified on the blasted prototype), and the shared executor
    /// (`execute`, solve_request.hpp) decides it on the engine's pool; a
    /// cache hit resolves the handle immediately, and a submit equal to an
    /// in-flight one coalesces onto its handle.
    /// All terms must be built before the call, and no thread may create
    /// terms until the handle is ready (backends read the shared manager
    /// while solving).
    query_handle submit(solve_request req);
    /// Convenience overload assembling the solve_request in place.
    query_handle submit(std::vector<smt::term> assertions, struct strategy strategy = {}) {
        return submit(solve_request{std::move(assertions), {}, std::move(strategy)});
    }

    /// Synchronous twin of submit(): resolves, caches, coalesces and
    /// validates identically, but executes the solve on the *calling*
    /// thread — sequential workloads stay free of worker threads unless
    /// the strategy itself needs them. Duplicates arriving meanwhile still
    /// coalesce onto the published in-flight entry.
    backend_result solve(solve_request req);

    /// Opens a per-tenant session: submits through it ride a fresh fair
    /// dispatch lane of the engine pool with the given round-robin
    /// `weight`, and are accounted in the session's own session_stats
    /// slice. The session must not outlive the engine; its lane is
    /// released when the last shared reference drops. Forces the pool into
    /// existence (serving implies workers).
    std::shared_ptr<engine_session> open_session(std::string name, unsigned weight = 1);

    /// Evaluates t under a model returned by a solve, defaulting unblasted
    /// variables to zero.
    [[nodiscard]] std::uint64_t model_value(smt::term t, const smt::env& model) const {
        return eval_model(tm_, t, model);
    }

private:
    friend class engine_session;
    /// Shared body of submit()/solve(): validate, resolve, cache-lookup,
    /// coalesce, then either dispatch to the pool (async; on the session's
    /// lane if any) or — for the synchronous solve() path — execute inline
    /// on the calling thread, which keeps sequential workloads free of
    /// worker threads entirely (duplicates arriving meanwhile still
    /// coalesce onto the published future). A request failing validate()
    /// yields an immediately-ready handle carrying solve_status::malformed.
    query_handle do_submit(solve_request req, bool inline_exec,
                           std::shared_ptr<engine_session> session);
    /// Executes one resolved request on the calling (worker) thread.
    backend_result run_request(const solve_request& req, detail::query_state& state);
    /// run_request plus the completion protocol: cache insert, inflight
    /// erase, finished flag. Caught exceptions are
    /// serialized as solve_status::internal results (the regular error
    /// model), never rethrown into the future. `prep` is the query's
    /// one-time canonicalization (key + structural form), computed by
    /// do_submit and reused for the cache insert.
    backend_result run_and_complete(const solve_request& req,
                                    const query_cache::prepared_query& prep,
                                    detail::query_state& state, engine_session* session);
    /// The engine's worker pool — the config's shared_pool if set, else an
    /// owned pool created on first use and then shared by every race,
    /// batch, shard and async query: loops issuing thousands of queries
    /// pay thread spawn/teardown once.
    thread_pool& pool();
    /// Releases a session's dispatch lane (no-op if no pool exists).
    void release_session_lane(thread_pool::lane_id lane);

    /// An in-flight request, as the coalescing map tracks it: the shared
    /// state plus the future later duplicates attach to (kept out of the
    /// state itself — see the cycle note in query_handle).
    struct inflight_entry {
        std::shared_ptr<detail::query_state> state;
        std::shared_future<backend_result> future;
    };

    smt::term_manager& tm_;
    engine_config cfg_;
    std::uint32_t trace_track_ = 0;  // span track in cfg_.trace (0 = tracing off)
    // Owned (constructed from cfg_.cache_capacity / cache_path) unless the
    // config supplied a shared_cache, in which case that one is used and
    // kept alive by this reference.
    std::shared_ptr<query_cache> cache_;
    sd::mutex inflight_mutex_;
    std::unordered_map<query_key, inflight_entry, query_key_hash> inflight_
        SD_GUARDED_BY(inflight_mutex_);
    mutable sd::mutex stats_mutex_;
    engine_stats stats_ SD_GUARDED_BY(stats_mutex_);
    // The pool is declared last on purpose: submitted tasks touch cache_,
    // inflight_ and stats_, so ~smt_engine must drain the pool
    // (members are destroyed in reverse declaration order) before any of
    // those die.
    sd::mutex pool_mutex_;
    std::unique_ptr<thread_pool> pool_ SD_GUARDED_BY(pool_mutex_);
};

}  // namespace sciduction::substrate
