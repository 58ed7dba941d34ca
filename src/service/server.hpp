/// \file
/// sciductiond's core: a long-lived solver service multiplexing concurrent
/// tenants over ONE shared worker pool and ONE persistent structural query
/// cache. See docs/SERVING.md for the operational contract.
///
/// Topology (the multi-tenant shape of docs/ARCHITECTURE.md): every client
/// connection opens a session context — its own term_manager and
/// smt_engine layered over the daemon-wide `query_cache`
/// (engine_config::shared_cache; structural remap serves cross-tenant
/// hits) and the daemon-wide `thread_pool` (engine_config::shared_pool).
/// The per-tenant engine takes its own weighted fair-dispatch lane of the
/// shared pool (engine_config::lane_weight, from the hello): a tenant
/// monopolizing the daemon with one greedy shard job cannot starve another
/// tenant's burst of tiny queries (the fairness property service_test.cpp
/// pins via `finish_seq`). The tenant's `tenant.<name>.*` counters live in
/// the daemon's metrics registry, so they outlast its connections.
///
/// Threading: one event-loop thread owns all sockets, all term managers
/// and the scheduler; solver work runs on the shared pool. The loop sleeps
/// in poll(2) on the sockets plus one wake fd (an eventfd), which the
/// pool's completion callback writes once per finished solve and
/// request_stop() writes once; the poll timeout is the time to the
/// earliest in-flight request deadline (100 ms when none has one).
/// Term *creation* is the only term_manager write, and decoding a submit
/// creates terms — so the loop applies a per-tenant decode barrier: raw
/// submit payloads queue undecoded, and are batch-decoded only when that
/// tenant has zero solves in flight (its manager is then quiescent).
/// Admission control is a bounded per-tenant queue (queued + in-flight
/// <= queue_depth); overflow is rejected with `queue_full`, never
/// buffered unboundedly.
///
/// Shutdown: SIGTERM (or a drain frame) stops admission, finishes or
/// cancels in-flight work per the drain policy, delivers the remaining
/// result frames, saves the cache, and exits the loop.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/protocol.hpp"
#include "substrate/engine.hpp"

namespace sciduction::service {

/// Operational knobs of one daemon instance.
struct server_config {
    std::string socket_path;      ///< unix-domain socket to listen on
    std::string cache_path{};     ///< persistent cache file ("" = in-memory only)
    std::size_t cache_capacity = 0;  ///< shared-cache LRU bound (0 = unbounded)
    unsigned threads = 0;            ///< shared pool width (0 = hardware)
    /// Bounded per-tenant admission queue: queued + in-flight requests per
    /// session; submits past the bound are rejected with `queue_full`.
    std::size_t queue_depth = 64;
    /// Default lane weight for sessions whose hello does not set one.
    unsigned default_weight = 1;
    /// Write the span trace as Chrome trace-event JSON to this path when
    /// the daemon drains ("" = no file; the `trace` opcode still works).
    std::string trace_out{};
    /// Span-trace event bound (further spans are counted as dropped, never
    /// stored — a daemon can leave tracing on forever).
    std::size_t trace_capacity = 16384;
};

/// The daemon. Construct, then run() on the serving thread; request_stop()
/// is an atomic store plus one write(2), both async-signal-safe, and may
/// be called from a signal handler or another thread.
class server {
public:
    explicit server(server_config cfg);
    ~server();

    server(const server&) = delete;
    server& operator=(const server&) = delete;

    /// Binds the socket and serves until a drain completes or
    /// request_stop() is observed. Returns the number of requests served.
    /// Throws std::runtime_error if the socket cannot be bound.
    std::uint64_t run();

    /// Asks the serving loop to drain (policy `finish`) and exit. Safe
    /// from signal handlers.
    void request_stop() {
        stop_requested_.store(true, std::memory_order_relaxed);
        wake_.notify();
    }

    /// True once run() has bound the socket and entered the loop (tests
    /// use this to sequence client connects without sleeping).
    [[nodiscard]] bool serving() const { return serving_.load(std::memory_order_acquire); }

private:
    struct connection;

    /// The event loop's wake fd: a non-blocking eventfd, owned for the
    /// server's whole life so request_stop() may write it before run().
    class wake_fd {
    public:
        wake_fd();  ///< throws std::runtime_error if eventfd() fails
        ~wake_fd();
        wake_fd(const wake_fd&) = delete;
        wake_fd& operator=(const wake_fd&) = delete;

        [[nodiscard]] int fd() const { return fd_; }
        /// Makes fd() readable: one write(2), async-signal-safe (errno is
        /// preserved).
        void notify() const;
        /// Resets the counter, so the next poll sleeps until a new notify.
        void drain() const;

    private:
        int fd_ = -1;
    };

    void accept_clients();
    void handle_readable(connection& conn);
    bool handle_frame(connection& conn, const frame& f);  // false = close connection
    void handle_submit(connection& conn, const std::vector<std::uint8_t>& payload);
    void schedule(connection& conn);  ///< decode barrier + dispatch
    void reap(connection& conn);      ///< complete ready handles -> result frames
    /// Answers an admitted request that never reached the engine as
    /// cancelled, with `detail` as the status line.
    void send_cancelled(connection& conn, std::uint64_t id, const char* detail);
    void begin_drain(drain_policy policy);
    /// poll(2) timeout: milliseconds (rounded up) to the earliest deadline
    /// of a request still in flight, else the 100 ms idle fallback.
    [[nodiscard]] int poll_timeout_ms() const;
    [[nodiscard]] std::map<std::string, std::uint64_t> snapshot_stats() const;

    server_config cfg_;
    // Unified telemetry: every daemon counter lives in the registry (the
    // `server.*` / `pool.*` / `cache.*` / `tenant.*` naming scheme of
    // docs/OBSERVABILITY.md), and every request's life is recorded as
    // spans in the collector — one track per tenant, shared with the
    // tenant engines via engine_config::trace.
    obs::metrics_registry registry_;
    std::shared_ptr<obs::trace_collector> trace_;
    // Registered once here, bumped lock-free on the event loop.
    obs::counter& c_sessions_;
    obs::counter& c_submits_;
    obs::counter& c_results_;
    obs::counter& c_rejected_queue_full_;
    obs::counter& c_rejected_draining_;
    obs::counter& c_cancels_;
    obs::counter& c_disconnect_cancels_;
    obs::counter& c_protocol_errors_;
    obs::histogram& h_queue_wait_ms_;
    obs::histogram& h_service_ms_;
    obs::histogram& h_conflicts_;
    obs::histogram& h_lane_wait_us_;
    // Declared before pool_, so it closes only after the pool has joined:
    // a worker may still be inside the completion callback after the loop
    // has already seen its solve's handle turn ready().
    wake_fd wake_;
    std::shared_ptr<substrate::thread_pool> pool_;
    std::shared_ptr<substrate::query_cache> cache_;
    int listen_fd_ = -1;
    std::vector<std::unique_ptr<connection>> connections_;
    std::atomic<bool> stop_requested_{false};
    std::atomic<bool> serving_{false};
    bool draining_ = false;
    drain_policy drain_policy_ = drain_policy::finish;

    /// Global monotone completion index (event-loop thread only): not a
    /// metric but an ordering contract, so it stays a plain counter.
    std::uint64_t finish_seq_ = 0;
};

}  // namespace sciduction::service
