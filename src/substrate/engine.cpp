#include "substrate/engine.hpp"

#include <chrono>
#include <stdexcept>

#include "substrate/thread_pool.hpp"

namespace sciduction::substrate {

namespace detail {

/// The shared state behind query_handle: the cooperative-cancel line
/// threaded into the solve, the progress atomics the schedulers bump, and
/// the accounting the solve fills in (guarded by `mutex` so handles can
/// snapshot it mid-flight). The result future deliberately lives in the
/// handles, not here (see the cycle note in query_handle).
struct query_state {
    std::atomic<bool> cancel{false};
    std::atomic<bool> cancel_requested{false};
    std::atomic<bool> started{false};
    std::atomic<bool> finished{false};
    cube_progress cubes;
    // Live telemetry feed behind query_progress: conflict deltas pushed by
    // the solver progress hooks at restart boundaries, and the resolved
    // strategy kind (updated once classification runs).
    std::atomic<std::uint64_t> live_conflicts{0};
    std::atomic<strategy_kind> live_strategy{strategy_kind::automatic};
    std::uint64_t query_id = 0;  // engine-wide submit ordinal (span "query" arg)
    mutable sd::mutex mutex;
    request_stats stats SD_GUARDED_BY(mutex);
};

}  // namespace detail

// ---- query_handle -----------------------------------------------------------

bool query_handle::ready() const {
    return future_.valid() &&
           future_.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

void query_handle::wait() const {
    if (future_.valid()) future_.wait();
}

backend_result query_handle::get() {
    if (!future_.valid()) return {};
    bool expired = false;
    if (time_budget_ms_ != 0) {
        if (future_.wait_for(std::chrono::milliseconds(time_budget_ms_)) ==
            std::future_status::timeout) {
            expired = true;
            cancel();
        }
    }
    backend_result result = future_.get();
    // A solve aborted because *this handle's* await budget expired reports
    // timeout, not cancelled — but only on this handle's copy: the shared
    // solve (and coalesced duplicates with their own budgets) keep the
    // completion status. A solve that still decided in the cancel window
    // keeps its answer untouched.
    if (expired && result.ans == answer::unknown) result.status = solve_status::timeout;
    return result;
}

void query_handle::cancel() {
    if (state_ == nullptr) return;
    state_->cancel_requested.store(true, std::memory_order_relaxed);
    state_->cancel.store(true, std::memory_order_relaxed);
}

query_progress query_handle::progress() const {
    query_progress p;
    if (state_ == nullptr) return p;
    p.started = state_->started.load(std::memory_order_relaxed);
    p.finished = state_->finished.load(std::memory_order_relaxed);
    p.cancel_requested = state_->cancel_requested.load(std::memory_order_relaxed);
    p.cubes_total = state_->cubes.total.load(std::memory_order_relaxed);
    p.cubes_done = state_->cubes.done.load(std::memory_order_relaxed);
    p.conflicts = state_->live_conflicts.load(std::memory_order_relaxed);
    p.strategy = state_->live_strategy.load(std::memory_order_relaxed);
    return p;
}

request_stats query_handle::stats() const {
    request_stats s;
    if (state_ == nullptr) return s;
    {
        sd::lock_guard lock(state_->mutex);
        s = state_->stats;
    }
    if (coalesced_) s.coalesced = true;
    return s;
}

// ---- smt_engine -------------------------------------------------------------

std::string engine_config::validate() const {
    if (threads > max_threads) return "threads must be <= " + std::to_string(max_threads);
    return {};
}

void strategy_picks::count(strategy_kind k) {
    switch (k) {
        case strategy_kind::single: ++single; break;
        case strategy_kind::portfolio: ++portfolio; break;
        case strategy_kind::shard: ++shard; break;
        case strategy_kind::automatic: break;  // never dispatched
    }
}

smt_engine::smt_engine(smt::term_manager& tm, engine_config cfg)
    : tm_(tm),
      cfg_(std::move(cfg)),
      cache_(cfg_.shared_cache
                 ? cfg_.shared_cache
                 : std::make_shared<query_cache>(cfg_.cache_path, cfg_.cache_capacity)) {
    // Misconfiguring an engine is a programming error (unlike a malformed
    // request, which submit reports through solve_status::malformed).
    if (std::string err = cfg_.validate(); !err.empty())
        // lint: throw-ok(ctor misconfiguration, before any solve exists)
        throw std::invalid_argument("engine_config: " + err);
    if (cfg_.trace)
        trace_track_ = cfg_.trace->register_track(
            cfg_.trace_track_name.empty() ? "engine" : cfg_.trace_track_name);
    if (cfg_.shared_pool) lane_ = cfg_.shared_pool->create_lane(cfg_.lane_weight);
}

smt_engine::~smt_engine() {
    if (cfg_.shared_pool) cfg_.shared_pool->release_lane(lane_);
}

engine_stats smt_engine::stats() const {
    sd::lock_guard lock(stats_mutex_);
    return stats_;
}

thread_pool& smt_engine::pool() {
    if (cfg_.shared_pool) return *cfg_.shared_pool;
    sd::lock_guard lock(pool_mutex_);
    if (!pool_) pool_ = std::make_unique<thread_pool>(cfg_.threads);
    return *pool_;
}

backend_result smt_engine::run_request(const solve_request& req, detail::query_state& state) {
    resolved_strategy rs;
    {
        sd::lock_guard lock(state.mutex);
        rs = state.stats.strategy;
    }
    obs::trace_collector* tr = cfg_.trace.get();
    // Every instance of the query is built here, with the live-telemetry
    // install: its CDCL core pushes restart-boundary conflict deltas into
    // the query's live counter (the hook only reads the stats snapshot —
    // the search is untouched).
    auto make = [&](unsigned, sat::solver_options opts) -> std::unique_ptr<solver_backend> {
        auto b = std::make_unique<smt_backend>(tm_, req.assertions, req.assumptions, opts);
        b->sat_core()->set_progress(
            [&state, last = std::uint64_t{0}](const sat::solver_stats& s) mutable {
                state.live_conflicts.fetch_add(s.conflicts - last, std::memory_order_relaxed);
                last = s.conflicts;
            });
        return b;
    };
    // The classifier reads the blasted prototype's size, and the executor
    // recycles it, so the blasting cost is paid once.
    std::unique_ptr<solver_backend> proto;
    if (rs.kind == strategy_kind::automatic) {
        obs::span resolve_span(tr, trace_track_, "resolve");
        resolve_span.arg("query", state.query_id);
        proto = make(0, sat::apply_features({}, rs.features));
        proto->prepare();
        // cfg_.threads, not the pool: a classification that picks `single`
        // must not spawn workers.
        rs = classify(req.strategy, *proto->sat_core(), req.assumptions.size(), cfg_.threads);
        {
            sd::lock_guard lock(state.mutex);
            state.stats.strategy = rs;
            state.stats.auto_selected = true;
        }
        sd::lock_guard lock(stats_mutex_);
        stats_.auto_picks.count(rs.kind);
    }
    {
        sd::lock_guard lock(stats_mutex_);
        stats_.dispatched.count(rs.kind);
    }
    state.live_strategy.store(rs.kind, std::memory_order_relaxed);

    solve_controls controls;
    controls.cancel = &state.cancel;
    controls.progress = &state.cubes;
    controls.conflict_budget = rs.conflict_budget;
    controls.trace = tr;
    controls.trace_track = trace_track_;
    controls.trace_query = state.query_id;
    // `single` runs on the calling thread without a pool, so the inline
    // solve() path stays thread-free.
    thread_pool* workers = rs.kind == strategy_kind::single ? nullptr : &pool();
    dispatch_outcome out = execute(rs, std::move(proto), make, workers, cfg_.threads, controls);
    {
        sd::lock_guard lock(stats_mutex_);
        stats_.solver_runs += out.instances;
    }
    backend_result result = std::move(out.result);
    // Safety net for schedulers that returned a bare unknown: classify it
    // from the request's own control lines so no unknown ever reaches a
    // caller with status ok.
    if (result.ans == answer::unknown && result.status == solve_status::ok)
        result.status = state.cancel_requested.load(std::memory_order_relaxed)
                            ? solve_status::cancelled
                            : (rs.conflict_budget != 0 ? solve_status::over_budget
                                                       : solve_status::internal);
    sd::lock_guard lock(state.mutex);
    state.stats.winner = out.winner;
    state.stats.rounds = out.rounds;
    state.stats.shard = out.shard;
    state.stats.conflicts = result.conflicts;
    return result;
}

backend_result smt_engine::run_and_complete(const solve_request& req,
                                            const query_cache::prepared_query& prep,
                                            detail::query_state& state) {
    state.started.store(true, std::memory_order_relaxed);
    // One span per executed solve (cache hits never reach here); closed by
    // the destructor after the completion protocol ran.
    obs::span solve_span(cfg_.trace.get(), trace_track_, "solve");
    solve_span.arg("query", state.query_id);
    backend_result result;
    try {
        result = run_request(req, state);
        resolved_strategy ran;
        {
            sd::lock_guard slock(state.mutex);
            ran = state.stats.strategy;
        }
        solve_span.arg("strategy", static_cast<std::uint64_t>(ran.kind));
        solve_span.arg("conflicts", result.conflicts);
        if (ran.use_cache) cache_->insert_prepared(prep, result);
    } catch (const std::exception& e) {
        // The regular error model: a failure inside the solve is serialized
        // as a solve_status::internal result, never rethrown into the
        // future — the daemon (and every other awaiter) reads one shape.
        result = backend_result{};
        result.status = solve_status::internal;
        result.status_detail = e.what();
    } catch (...) {
        result = backend_result{};
        result.status = solve_status::internal;
        result.status_detail = "unknown internal error";
    }
    {
        sd::lock_guard slock(state.mutex);
        state.stats.status = result.status;
        state.stats.status_detail = result.status_detail;
    }
    // The entry must not outlive the attempt, or every later duplicate
    // coalesces onto this dead future instead of re-solving; completion
    // inserts into the cache *before* erasing the entry (do_submit's
    // locked re-check relies on that order).
    {
        sd::lock_guard ilock(inflight_mutex_);
        inflight_.erase(prep.key);
    }
    state.finished.store(true, std::memory_order_relaxed);
    return result;
}

query_handle smt_engine::do_submit(solve_request req, bool inline_exec) {
    std::uint64_t qid = 0;
    {
        sd::lock_guard lock(stats_mutex_);
        qid = ++stats_.queries;
    }
    obs::trace_collector* tr = cfg_.trace.get();
    // One span per submit: validation, canonicalization, cache lookup and
    // coalescing/dispatch (the solve itself is run_and_complete's span).
    obs::span submit_span(tr, trace_track_, "submit");
    submit_span.arg("query", qid);
    // An unset cache policy is the engine's; every other unset field takes
    // the library default.
    if (!req.strategy.use_cache) req.strategy.use_cache = cfg_.use_cache;
    resolved_strategy rs = req.strategy.resolve();
    auto state = std::make_shared<detail::query_state>();
    state->query_id = qid;
    state->stats.strategy = rs;
    state->live_strategy.store(rs.kind, std::memory_order_relaxed);

    if (std::string err = req.validate(); !err.empty()) {
        // Malformed requests are reported through the status channel, not
        // thrown: the handle is immediately ready with nothing run.
        backend_result rejected;
        rejected.status = solve_status::malformed;
        rejected.status_detail = std::move(err);
        state->stats.status = rejected.status;
        state->stats.status_detail = rejected.status_detail;
        state->started.store(true, std::memory_order_relaxed);
        state->finished.store(true, std::memory_order_relaxed);
        std::promise<backend_result> ready;
        ready.set_value(std::move(rejected));
        return query_handle(std::move(state), ready.get_future().share(), rs.time_budget_ms,
                            /*coalesced=*/false);
    }
    auto resolve_ready = [&](backend_result cached) {
        {
            sd::lock_guard lock(stats_mutex_);
            ++stats_.cache_hits;
        }
        state->stats.cache_hit = true;
        state->stats.conflicts = cached.conflicts;
        state->started.store(true, std::memory_order_relaxed);
        state->finished.store(true, std::memory_order_relaxed);
        std::promise<backend_result> ready;
        ready.set_value(std::move(cached));
        return query_handle(std::move(state), ready.get_future().share(), rs.time_budget_ms,
                            /*coalesced=*/false);
    };

    // One canonicalization serves the whole submit (and, via the cache's
    // per-manager memo, the whole loop): the optimistic cache lookup, the
    // coalescing key, the locked re-check, and the eventual insert all
    // reuse it.
    obs::span lookup_span(tr, trace_track_, "cache_lookup");
    lookup_span.arg("query", qid);
    std::shared_ptr<const query_cache::prepared_query> prep =
        cache_->prepare(tm_, req.assertions, req.assumptions);
    if (rs.use_cache) {
        if (auto cached = cache_->lookup_prepared(tm_, *prep)) {
            lookup_span.arg("hit", 1);
            lookup_span.end();
            return resolve_ready(std::move(*cached));
        }
    }
    lookup_span.arg("hit", 0);
    lookup_span.end();
    const query_key& key = prep->key;
    // The pool is only forced into existence on the async path; inline
    // execution (the solve() path) stays thread-free unless the strategy
    // itself needs workers.
    thread_pool* workers = inline_exec ? nullptr : &pool();
    sd::unique_lock lock(inflight_mutex_);
    if (auto it = inflight_.find(key); it != inflight_.end()) {
        {
            sd::lock_guard slock(stats_mutex_);
            ++stats_.coalesced;
        }
        // The duplicate shares the first submission's solve (and conflict
        // budget) but keeps its own await-side time budget.
        return query_handle(it->second.state, it->second.future, rs.time_budget_ms,
                            /*coalesced=*/true);
    }
    if (rs.use_cache) {
        // Re-check under the inflight lock: an in-flight duplicate may have
        // completed between the optimistic lookup above and here. Its
        // completion inserts into the cache *before* erasing the inflight
        // entry, so missing both maps really means the query is new.
        if (auto cached = cache_->lookup_prepared(tm_, *prep))
            return resolve_ready(std::move(*cached));
    }
    if (inline_exec) {
        // Publish the in-flight entry (so concurrent duplicates coalesce),
        // then solve on this thread and fulfil the promise they share.
        // run_and_complete never throws (failures become internal-status
        // results), so the promise is always fulfilled.
        std::promise<backend_result> promise;
        auto future = promise.get_future().share();
        inflight_.emplace(key, inflight_entry{state, future});
        lock.unlock();
        promise.set_value(run_and_complete(req, *prep, *state));
        return query_handle(std::move(state), std::move(future), rs.time_budget_ms,
                            /*coalesced=*/false);
    }
    // Async solves ride the engine's dispatch lane, so on a shared pool one
    // tenant's fan-out cannot starve another's queue (thread_pool.hpp).
    // Queue wait is recorded as its own span — dispatch latency under load
    // is exactly the gap the fair-lane scheduler exists to bound.
    const std::uint64_t enqueued_us = tr != nullptr ? tr->now_us() : 0;
    auto task = [this, req = std::move(req), prep, state, enqueued_us]() -> backend_result {
        if (obs::trace_collector* trc = cfg_.trace.get(); trc != nullptr) {
            const std::uint64_t now = trc->now_us();
            trc->record(obs::trace_event{"queue_wait",
                                         trace_track_,
                                         enqueued_us,
                                         now > enqueued_us ? now - enqueued_us : 0,
                                         {{"query", state->query_id}}});
        }
        return run_and_complete(req, *prep, *state);
    };
    auto future = workers->submit_in(lane_, std::move(task)).share();
    // The map entry is published under the same lock that the completion
    // lambda needs to erase it, so a fast worker cannot race past us.
    inflight_.emplace(key, inflight_entry{state, future});
    return query_handle(std::move(state), std::move(future), rs.time_budget_ms,
                        /*coalesced=*/false);
}

query_handle smt_engine::submit(solve_request req) {
    return do_submit(std::move(req), /*inline_exec=*/false);
}

backend_result smt_engine::solve(solve_request req) {
    return do_submit(std::move(req), /*inline_exec=*/true).get();
}

}  // namespace sciduction::substrate
