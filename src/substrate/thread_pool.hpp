/// \file
/// Fixed-size worker pool shared by the substrate's batch and portfolio
/// dispatchers, with fair dispatch lanes for multi-tenant serving.
///
/// The sciduction loops issue thousands of independent oracle queries
/// (basis-path feasibility, candidate checks, invariant refinements); this
/// pool is the single place concurrency lives, so every higher layer stays
/// free of raw thread management. Tasks are type-erased thunks; results
/// flow back through the futures returned by submit() or through the
/// caller's own slots in parallel_for. `smt_engine` holds one pool per
/// workload (created lazily, shared by every race/batch/shard/async
/// request), so thread spawn cost is paid once; `parallel_map` spins up a
/// transient pool for one-shot fan-outs.
///
/// Dispatch lanes (`create_lane`) are the fairness hook the serving layer
/// needs: each lane holds its own FIFO queue and workers drain the lanes in
/// weighted round-robin order (a lane of weight w gets up to w consecutive
/// pops per turn), so a tenant that queued a thousand shard tasks cannot
/// starve a tenant with one tiny query — the tiny lane is served on the
/// very next turn. Tasks submitted from inside a task inherit the
/// submitter's lane (thread-local), so a shard request's fan-out stays
/// accounted to its tenant. parallel_for's worker-side claim loops
/// cooperatively yield between iterations whenever other lanes have queued
/// work, bounding cross-lane starvation to one work unit. Everything
/// defaults to one built-in lane, leaving single-tenant users byte-
/// identical to the pre-lane pool.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <unordered_map>
#include <vector>

#include "substrate/annotations.hpp"

namespace sciduction::substrate {

/// Number of workers to use when the caller passes 0: the hardware
/// concurrency, floored at 1 (hardware_concurrency may return 0).
unsigned default_concurrency();

/// Upper bound on a worker-thread count that comes from outside the
/// program (engine_config::threads, solve_cnf's `threads`, the tools'
/// --threads): beyond it a request is rejected before any thread starts.
inline constexpr unsigned max_threads = 1024;

/// The substrate's worker pool: a fixed set of threads draining per-lane
/// FIFO task queues in weighted round-robin order. Thread-safe: any thread
/// (including a worker) may submit or manage lanes. Destruction drains
/// every queue — every already-submitted task runs before the workers join
/// (which is why smt_engine declares its pool last).
class thread_pool {
public:
    /// Identifies one dispatch lane of this pool (ids are pool-local).
    using lane_id = std::uint32_t;
    /// The built-in lane every plain submit() uses; always exists.
    static constexpr lane_id default_lane = 0;

    /// Spawns `num_workers` threads (0 = default_concurrency()). If
    /// `on_complete` is set, it runs once per submit()/submit_in() task,
    /// right after the task's future became ready, on whichever thread ran
    /// the task (a worker, or a parallel_for caller stealing work);
    /// parallel_for's own claim tasks never fire it. The serving layer
    /// points it at its event loop's wake fd. It must be cheap,
    /// non-blocking, thread-safe and non-throwing, and whatever it uses
    /// must outlive the pool's tasks.
    explicit thread_pool(unsigned num_workers = 0, std::function<void()> on_complete = {});
    /// Runs every queued task to completion, then joins the workers.
    ~thread_pool();

    thread_pool(const thread_pool&) = delete;             ///< non-copyable (owns threads)
    thread_pool& operator=(const thread_pool&) = delete;  ///< non-copyable

    /// The number of worker threads.
    [[nodiscard]] unsigned size() const { return static_cast<unsigned>(workers_.size()); }

    /// Creates a dispatch lane served `weight` (floored at 1) consecutive
    /// pops per round-robin turn. The serving layer opens one per tenant.
    [[nodiscard]] lane_id create_lane(unsigned weight = 1);
    /// Releases a lane: already-queued tasks still run (and further submits
    /// into the id fall back to the default lane); the id is retired once
    /// its queue drains. Releasing the default lane is a no-op.
    void release_lane(lane_id id);
    /// Tasks queued (not yet started) across all lanes.
    [[nodiscard]] std::size_t pending() const;
    /// Tasks queued in one lane (0 for unknown/retired ids).
    [[nodiscard]] std::size_t pending_in(lane_id id) const;

    /// Aggregate lane-wait accounting: how long tasks sat queued between
    /// enqueue and pop, across all lanes — the dispatch-latency signal the
    /// serving layer folds into its metrics registry.
    struct wait_stats {
        std::uint64_t tasks = 0;     ///< tasks popped since construction
        std::uint64_t total_us = 0;  ///< summed queue wait, microseconds
        std::uint64_t max_us = 0;    ///< worst single wait observed
    };
    /// Snapshot of the wait accounting (thread-safe).
    [[nodiscard]] wait_stats lane_wait() const;
    /// Installs a per-task wait observer, called with each popped task's
    /// queue wait in microseconds — the serving layer points this at a
    /// latency histogram. The observer runs under the pool lock on the
    /// dispatch path: it must be cheap and non-blocking (an atomic bump).
    /// Pass nullptr to detach; the observer must outlive the pool's tasks.
    void set_wait_observer(std::function<void(std::uint64_t)> observer);

    /// Enqueues a task; the future resolves with its result (or exception).
    /// Called from inside a pool task, the new task joins the submitter's
    /// lane; otherwise the default lane.
    template <typename Fn>
    auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
        return submit_in(inherited_lane(), std::forward<Fn>(fn));
    }

    /// Enqueues a task into an explicit lane (unknown or released ids fall
    /// back to the default lane).
    template <typename Fn>
    auto submit_in(lane_id lane, Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
        using result_t = std::invoke_result_t<Fn>;
        auto task = std::make_shared<std::packaged_task<result_t()>>(std::forward<Fn>(fn));
        std::future<result_t> fut = task->get_future();
        enqueue(lane, [this, task] {
            (*task)();
            if (on_complete_) on_complete_();
        });
        return fut;
    }

    /// Runs fn(i) for every i in [0, n), blocking until all complete. The
    /// calling thread participates, so parallel_for on a 1-worker pool (or
    /// from within a worker) cannot deadlock. Worker-side claim loops yield
    /// between iterations when other lanes have queued work (fairness);
    /// the caller claims unconditionally. The first exception thrown by
    /// any iteration is rethrown after all iterations finish.
    void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

private:
    /// One queued thunk, stamped at enqueue so pop_next can account the
    /// lane wait.
    struct queued_task {
        std::function<void()> thunk;
        std::chrono::steady_clock::time_point enqueued;
    };

    /// One dispatch lane: a FIFO queue plus its round-robin bookkeeping.
    struct lane_state {
        std::deque<queued_task> queue;
        unsigned weight = 1;
        unsigned served = 0;  // consecutive pops taken in the current turn
        bool released = false;
    };

    void worker_loop();
    /// Pops and runs one queued task; returns false if all queues were
    /// empty. Used by parallel_for's caller-side work stealing.
    bool run_one();
    /// Queues a thunk into `lane` and wakes a worker.
    void enqueue(lane_id lane, std::function<void()> thunk);
    /// The lane a submit from the current thread inherits: the lane of the
    /// task this pool is running on this thread, else default_lane.
    [[nodiscard]] lane_id inherited_lane() const;
    /// Weighted round-robin pop across the lanes; requires the lock.
    /// Retires drained released lanes along the way.
    bool pop_next(std::function<void()>& task, lane_id& from) SD_REQUIRES(mutex_);
    /// Whether any lane other than `lane` has queued tasks; requires the lock.
    [[nodiscard]] bool other_lanes_pending(lane_id lane) const SD_REQUIRES(mutex_);

    /// Set before the workers start and never changed, so read unlocked.
    const std::function<void()> on_complete_;
    std::vector<std::thread> workers_;
    std::unordered_map<lane_id, lane_state> lanes_ SD_GUARDED_BY(mutex_);
    std::vector<lane_id> order_ SD_GUARDED_BY(mutex_);  // cyclic service order over lanes_
    std::size_t cursor_ SD_GUARDED_BY(mutex_) = 0;      // current position in order_
    std::size_t pending_ SD_GUARDED_BY(mutex_) = 0;     // queued tasks across all lanes
    lane_id next_lane_ SD_GUARDED_BY(mutex_) = 1;
    wait_stats waits_ SD_GUARDED_BY(mutex_);
    std::function<void(std::uint64_t)> wait_observer_ SD_GUARDED_BY(mutex_);
    mutable sd::mutex mutex_;
    sd::condition_variable wake_;
    bool stopping_ SD_GUARDED_BY(mutex_) = false;
};

/// Maps fn over [0, n) with `threads` workers (0 = default_concurrency) and
/// returns the results in index order. A transient pool is spun up per call;
/// for steady-state use, hold a thread_pool and use parallel_for.
template <typename R>
std::vector<R> parallel_map(std::size_t n, unsigned threads,
                            const std::function<R(std::size_t)>& fn) {
    std::vector<R> results(n);
    if (n == 0) return results;
    thread_pool pool(threads);
    pool.parallel_for(n, [&](std::size_t i) { results[i] = fn(i); });
    return results;
}

}  // namespace sciduction::substrate
