#include "substrate/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <utility>

namespace sciduction::substrate {

unsigned default_concurrency() {
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

namespace {

// The lane a task inherits is thread-local *per pool*: a worker of pool A
// calling into pool B must not smuggle A's lane id into B's registry.
thread_local const thread_pool* tls_pool = nullptr;
thread_local thread_pool::lane_id tls_lane = thread_pool::default_lane;

/// Scoped (pool, lane) marker around one task execution; restores the
/// previous marker so run_one() re-entered from a running task (the
/// parallel_for caller stealing work) nests correctly.
struct lane_scope {
    lane_scope(const thread_pool* pool, thread_pool::lane_id lane)
        : prev_pool(tls_pool), prev_lane(tls_lane) {
        tls_pool = pool;
        tls_lane = lane;
    }
    ~lane_scope() {
        tls_pool = prev_pool;
        tls_lane = prev_lane;
    }
    const thread_pool* prev_pool;
    thread_pool::lane_id prev_lane;
};

}  // namespace

thread_pool::thread_pool(unsigned num_workers, std::function<void()> on_complete)
    : on_complete_(std::move(on_complete)) {
    if (num_workers == 0) num_workers = default_concurrency();
    lanes_.emplace(default_lane, lane_state{});
    order_.push_back(default_lane);
    workers_.reserve(num_workers);
    for (unsigned i = 0; i < num_workers; ++i)
        workers_.emplace_back([this] { worker_loop(); });
}

thread_pool::~thread_pool() {
    {
        sd::lock_guard lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (auto& w : workers_) w.join();
}

thread_pool::lane_id thread_pool::create_lane(unsigned weight) {
    sd::lock_guard lock(mutex_);
    lane_id id = next_lane_++;
    lane_state lane;
    lane.weight = std::max(1u, weight);
    lanes_.emplace(id, std::move(lane));
    order_.push_back(id);
    return id;
}

void thread_pool::release_lane(lane_id id) {
    if (id == default_lane) return;
    sd::lock_guard lock(mutex_);
    auto it = lanes_.find(id);
    if (it == lanes_.end()) return;
    it->second.released = true;
    // Drained already: retire immediately (pop_next retires the rest).
    if (it->second.queue.empty()) {
        order_.erase(std::remove(order_.begin(), order_.end(), id), order_.end());
        if (cursor_ >= order_.size()) cursor_ = 0;
        lanes_.erase(it);
    }
}

std::size_t thread_pool::pending() const {
    sd::lock_guard lock(mutex_);
    return pending_;
}

std::size_t thread_pool::pending_in(lane_id id) const {
    sd::lock_guard lock(mutex_);
    auto it = lanes_.find(id);
    return it == lanes_.end() ? 0 : it->second.queue.size();
}

void thread_pool::enqueue(lane_id lane, std::function<void()> thunk) {
    {
        sd::lock_guard lock(mutex_);
        auto it = lanes_.find(lane);
        if (it == lanes_.end() || it->second.released) it = lanes_.find(default_lane);
        it->second.queue.push_back(queued_task{std::move(thunk), std::chrono::steady_clock::now()});
        ++pending_;
    }
    wake_.notify_one();
}

thread_pool::wait_stats thread_pool::lane_wait() const {
    sd::lock_guard lock(mutex_);
    return waits_;
}

void thread_pool::set_wait_observer(std::function<void(std::uint64_t)> observer) {
    sd::lock_guard lock(mutex_);
    wait_observer_ = std::move(observer);
}

thread_pool::lane_id thread_pool::inherited_lane() const {
    return tls_pool == this ? tls_lane : default_lane;
}

bool thread_pool::other_lanes_pending(lane_id lane) const {
    auto it = lanes_.find(lane);
    const std::size_t own = it == lanes_.end() ? 0 : it->second.queue.size();
    return pending_ > own;
}

bool thread_pool::pop_next(std::function<void()>& task, lane_id& from) {
    if (pending_ == 0) return false;
    // Weighted round-robin: scan the service order from the cursor; a lane
    // keeps the turn for up to `weight` consecutive pops, then the cursor
    // advances. Empty released lanes are retired as the scan passes them.
    for (std::size_t scanned = 0; scanned < order_.size();) {
        if (cursor_ >= order_.size()) cursor_ = 0;
        lane_id id = order_[cursor_];
        lane_state& lane = lanes_[id];
        if (lane.queue.empty()) {
            lane.served = 0;
            if (lane.released && id != default_lane) {
                order_.erase(order_.begin() + static_cast<std::ptrdiff_t>(cursor_));
                lanes_.erase(id);
                // cursor_ now points at the next lane; the scan shrank.
                continue;
            }
            ++cursor_;
            ++scanned;
            continue;
        }
        queued_task next = std::move(lane.queue.front());
        lane.queue.pop_front();
        task = std::move(next.thunk);
        --pending_;
        from = id;
        // Lane-wait accounting: enqueue -> pop is the dispatch latency the
        // serving layer surfaces (pool.lane_wait_us histogram).
        const auto wait_us = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - next.enqueued)
                .count());
        ++waits_.tasks;
        waits_.total_us += wait_us;
        waits_.max_us = std::max(waits_.max_us, wait_us);
        if (wait_observer_) wait_observer_(wait_us);
        if (++lane.served >= lane.weight || lane.queue.empty()) {
            lane.served = 0;
            ++cursor_;
        }
        return true;
    }
    return false;
}

void thread_pool::worker_loop() {
    for (;;) {
        std::function<void()> task;
        lane_id lane = default_lane;
        {
            sd::unique_lock lock(mutex_);
            // Explicit predicate loop (not the lambda-predicate overload):
            // the analysis would treat a predicate lambda as a separate
            // unlocked function and flag its guarded reads.
            while (!stopping_ && pending_ == 0) wake_.wait(lock);
            if (!pop_next(task, lane)) return;  // stopping_ and drained
        }
        lane_scope scope(this, lane);
        task();
    }
}

bool thread_pool::run_one() {
    std::function<void()> task;
    lane_id lane = default_lane;
    {
        sd::lock_guard lock(mutex_);
        if (!pop_next(task, lane)) return false;
    }
    lane_scope scope(this, lane);
    task();
    return true;
}

void thread_pool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
    if (n == 0) return;
    // Shared by value with every queued claim-task: a straggler task that
    // only starts after parallel_for returned must find the state alive (it
    // then sees next >= n and exits immediately).
    struct for_state {
        std::function<void(std::size_t)> fn;
        std::size_t n;
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> done{0};
        sd::mutex error_mutex;
        std::exception_ptr first_error SD_GUARDED_BY(error_mutex);
        std::promise<void> all_done;
    };
    auto state = std::make_shared<for_state>();
    state->fn = fn;
    state->n = n;
    auto drained = state->all_done.get_future();
    const lane_id lane = inherited_lane();

    auto claim_one = [state]() -> bool {  // returns whether to keep claiming
        std::size_t i = state->next.fetch_add(1);
        if (i >= state->n) return false;
        try {
            state->fn(i);
        } catch (...) {
            sd::lock_guard lock(state->error_mutex);
            if (!state->first_error) state->first_error = std::current_exception();
        }
        if (state->done.fetch_add(1) + 1 == state->n) state->all_done.set_value();
        return true;
    };

    // Worker-side claim loop with a cooperative yield: between iterations,
    // if any *other* lane has queued work, the loop re-enqueues itself at
    // the back of its own lane and returns the worker to the fair
    // round-robin — cross-lane starvation is bounded by one work unit. The
    // self-reference is threaded through a shared owner so the lambda can
    // requeue itself without a reference cycle outliving the loop.
    struct claim_task : std::enable_shared_from_this<claim_task> {
        thread_pool* pool;
        lane_id lane;
        std::function<bool()> claim_one;
        void run() {
            while (claim_one()) {
                bool yield;
                {
                    sd::lock_guard lock(pool->mutex_);
                    yield = pool->other_lanes_pending(lane);
                }
                if (yield) {
                    auto self = shared_from_this();
                    pool->enqueue(lane, [self] { self->run(); });
                    return;
                }
            }
        }
    };

    // One claim-task per worker; each loops until the index range is drained.
    const std::size_t claimants = std::min<std::size_t>(n, size());
    for (std::size_t i = 0; i < claimants; ++i) {
        auto task = std::make_shared<claim_task>();
        task->pool = this;
        task->lane = lane;
        task->claim_one = claim_one;
        enqueue(lane, [task] { task->run(); });
    }
    // The caller participates too — unconditionally (it has nothing fairer
    // to do): claim iterations, then steal queued work (including work
    // queued by other users of the pool) until every iteration completed.
    while (claim_one()) {}
    while (drained.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        if (!run_one()) drained.wait();
    }
    if (state->first_error) std::rethrow_exception(state->first_error);
}

}  // namespace sciduction::substrate
