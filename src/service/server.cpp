#include "service/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <fstream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "substrate/query_cache.hpp"

namespace sciduction::service {

using clock = std::chrono::steady_clock;

namespace {

std::uint64_t ms_between(clock::time_point from, clock::time_point to) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(to - from).count());
}

bool set_nonblocking(int fd) {
    const int flags = fcntl(fd, F_GETFL, 0);
    return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Best-effort read of the leading request id of an undecoded submit
/// payload (the ack/reject frames need it before full decode).
std::uint64_t peek_request_id(const std::vector<std::uint8_t>& payload) {
    if (payload.size() < 8) return 0;
    std::uint64_t id = 0;
    for (int i = 0; i < 8; ++i) id |= static_cast<std::uint64_t>(payload[i]) << (8 * i);
    return id;
}

}  // namespace

/// One client connection and — once the hello lands — its tenant session
/// context: a private term_manager + smt_engine over the daemon's shared
/// cache and pool, riding a fair-dispatch lane via engine_session.
struct server::connection {
    int fd = -1;
    std::vector<std::uint8_t> inbuf;
    std::vector<std::uint8_t> outbuf;
    bool greeted = false;
    /// Socket is gone but solves are still in flight: the session context
    /// is kept alive (handles must resolve before the engine may die) and
    /// reaped silently; the connection object drops once quiescent.
    bool closing = false;
    bool wants_drain_ack = false;
    std::string tenant;
    /// Span track of this tenant in the daemon's trace collector (shared
    /// with the tenant engine, which registers the same name).
    std::uint32_t trace_track = 0;

    std::unique_ptr<smt::term_manager> tm;
    std::unique_ptr<substrate::smt_engine> engine;
    std::shared_ptr<substrate::engine_session> session;

    /// Admitted but not yet decoded (the decode barrier): raw payloads
    /// wait here until the tenant has zero solves in flight.
    struct pending_submit {
        std::uint64_t request_id = 0;
        std::vector<std::uint8_t> payload;
        clock::time_point enqueued;
    };
    std::deque<pending_submit> pending;

    struct inflight_request {
        substrate::query_handle handle;
        clock::time_point enqueued;
        clock::time_point dispatched;
        /// The same two instants on the trace collector's timebase, so the
        /// reaper can emit the request's queue_wait / solve / request spans.
        std::uint64_t enqueued_us = 0;
        std::uint64_t dispatched_us = 0;
        /// Daemon-side wall-clock deadline from the request's
        /// time_budget_ms (nobody blocks in get() serverside, so the
        /// reaper enforces it by cooperative cancel).
        std::optional<clock::time_point> deadline;
        bool deadline_cancelled = false;
    };
    std::map<std::uint64_t, inflight_request> inflight;

    [[nodiscard]] std::size_t load() const { return pending.size() + inflight.size(); }

    connection() = default;
    connection(const connection&) = delete;
    connection& operator=(const connection&) = delete;
    ~connection() {
        if (fd >= 0) ::close(fd);
    }

    void send(const frame& f) {
        if (closing) return;
        const std::vector<std::uint8_t> bytes = pack_frame(f);
        outbuf.insert(outbuf.end(), bytes.begin(), bytes.end());
    }
};

server::wake_fd::wake_fd() : fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
    // lint: throw-ok(daemon construction, before any request is being served)
    if (fd_ < 0) throw std::runtime_error("sciductiond: eventfd() failed");
}

server::wake_fd::~wake_fd() { ::close(fd_); }

void server::wake_fd::notify() const {
    // A signal handler calls this: keep the interrupted code's errno. The
    // write can only fail if the counter would overflow, and then the fd
    // is readable already.
    const int saved_errno = errno;
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(fd_, &one, sizeof(one));
    errno = saved_errno;
}

void server::wake_fd::drain() const {
    std::uint64_t count = 0;
    [[maybe_unused]] const ssize_t n = ::read(fd_, &count, sizeof(count));
}

server::server(server_config cfg)
    : cfg_(std::move(cfg)),
      trace_(std::make_shared<obs::trace_collector>(cfg_.trace_capacity)),
      c_sessions_(registry_.get_counter("server.sessions_opened")),
      c_submits_(registry_.get_counter("server.submits")),
      c_results_(registry_.get_counter("server.results")),
      c_rejected_queue_full_(registry_.get_counter("server.rejected_queue_full")),
      c_rejected_draining_(registry_.get_counter("server.rejected_draining")),
      c_cancels_(registry_.get_counter("server.cancels")),
      c_disconnect_cancels_(registry_.get_counter("server.disconnect_cancels")),
      c_protocol_errors_(registry_.get_counter("server.protocol_errors")),
      h_queue_wait_ms_(registry_.get_histogram("server.queue_wait_ms")),
      h_service_ms_(registry_.get_histogram("server.service_ms")),
      h_conflicts_(registry_.get_histogram("server.conflicts")),
      h_lane_wait_us_(registry_.get_histogram("pool.lane_wait_us")) {
    // Every finished async solve wakes the event loop to reap it.
    pool_ = std::make_shared<substrate::thread_pool>(cfg_.threads, [this] { wake_.notify(); });
    cache_ = std::make_shared<substrate::query_cache>(cfg_.cache_path, cfg_.cache_capacity);
    // Dispatch latency inside the shared pool feeds the lane-wait
    // histogram (the observer contract: one atomic bump, non-blocking).
    pool_->set_wait_observer([&h = h_lane_wait_us_](std::uint64_t us) { h.observe(us); });
}

server::~server() {
    if (listen_fd_ >= 0) ::close(listen_fd_);
}

std::uint64_t server::run() {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    // lint: throw-ok(listener setup, before any request is being served)
    if (listen_fd_ < 0) throw std::runtime_error("sciductiond: socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (cfg_.socket_path.size() >= sizeof(addr.sun_path))
        // lint: throw-ok(listener setup, before any request is being served)
        throw std::runtime_error("sciductiond: socket path too long");
    std::strncpy(addr.sun_path, cfg_.socket_path.c_str(), sizeof(addr.sun_path) - 1);
    ::unlink(cfg_.socket_path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 16) != 0)
        // lint: throw-ok(listener setup, before any request is being served)
        throw std::runtime_error("sciductiond: cannot bind " + cfg_.socket_path);
    set_nonblocking(listen_fd_);
    serving_.store(true, std::memory_order_release);

    while (true) {
        std::vector<pollfd> fds;
        fds.push_back({wake_.fd(), POLLIN, 0});
        if (!draining_) fds.push_back({listen_fd_, POLLIN, 0});
        const std::size_t conn_base = fds.size();
        for (const auto& conn : connections_) {
            short events = 0;
            if (!conn->closing) events |= POLLIN;
            if (!conn->outbuf.empty()) events |= POLLOUT;
            fds.push_back({conn->fd, events, 0});
        }
        const int rc = ::poll(fds.data(), fds.size(), poll_timeout_ms());
        if (rc < 0 && errno != EINTR) break;
        // Drain before reaping: a solve finishing after this read writes
        // the fd again, so the next poll cannot sleep through it.
        if ((fds[0].revents & POLLIN) != 0) wake_.drain();
        // Checked after the wait, so a stop that woke the loop is acted on
        // (and a quiescent daemon exits) in this same iteration.
        if (stop_requested_.load(std::memory_order_relaxed) && !draining_)
            begin_drain(drain_policy::finish);

        // Only the connections that existed when fds was built were polled;
        // accept_clients() may append more (they are served next iteration).
        const std::size_t polled = connections_.size();
        if (!draining_ && (fds[1].revents & POLLIN) != 0) accept_clients();
        for (std::size_t i = 0; i < polled; ++i) {
            const short revents = fds[conn_base + i].revents;
            connection& conn = *connections_[i];
            if ((revents & POLLOUT) != 0 && !conn.outbuf.empty()) {
                const ssize_t n = ::write(conn.fd, conn.outbuf.data(), conn.outbuf.size());
                if (n > 0) {
                    conn.outbuf.erase(conn.outbuf.begin(), conn.outbuf.begin() + n);
                } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
                    conn.closing = true;
                    conn.outbuf.clear();
                }
            }
            if ((revents & (POLLIN | POLLERR | POLLHUP)) != 0 && !conn.closing)
                handle_readable(conn);
        }
        // Reap again after dispatch: handles that resolve on this thread
        // (cache hits, malformed requests) are answered in this iteration.
        for (auto& conn : connections_) {
            reap(*conn);
            schedule(*conn);
            reap(*conn);
        }
        for (std::size_t i = connections_.size(); i-- > 0;) {
            connection& conn = *connections_[i];
            // A closing connection is dropped only once its last frames
            // (the error/result that explains the close) have flushed.
            if (conn.closing && conn.inflight.empty() && conn.outbuf.empty()) drop_connection(i);
        }

        if (draining_) {
            bool quiescent = true;
            for (const auto& conn : connections_)
                if (conn->load() != 0) quiescent = false;
            if (quiescent) break;
        }
    }

    // Acknowledge the drain and flush what can be flushed (bounded: the
    // daemon is exiting, a stuck client must not wedge shutdown).
    for (auto& conn : connections_)
        if (conn->wants_drain_ack) conn->send({op::drain_ack, {}});
    const clock::time_point flush_deadline = clock::now() + std::chrono::seconds(2);
    for (auto& conn : connections_) {
        while (!conn->outbuf.empty() && !conn->closing && clock::now() < flush_deadline) {
            const ssize_t n = ::write(conn->fd, conn->outbuf.data(), conn->outbuf.size());
            if (n > 0) {
                conn->outbuf.erase(conn->outbuf.begin(), conn->outbuf.begin() + n);
            } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                pollfd pfd{conn->fd, POLLOUT, 0};
                ::poll(&pfd, 1, 50);
            } else {
                break;
            }
        }
    }

    // A hard poll error leaves the loop with solves still running on the
    // shared pool against the tenants' engines: cancel and await them, as
    // a cancel-drain does, before the sessions die (a no-op after a drain,
    // which only ends once every tenant is quiescent).
    begin_drain(drain_policy::cancel);
    for (auto& conn : connections_)
        for (auto& [id, req] : conn->inflight) req.handle.wait();
    // Session contexts die before the shared cache/pool; then persist.
    connections_.clear();
    cache_->save();
    if (!cfg_.trace_out.empty()) {
        std::ofstream out(cfg_.trace_out, std::ios::trunc);
        if (out) out << trace_->to_json();
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(cfg_.socket_path.c_str());
    serving_.store(false, std::memory_order_release);
    return c_results_.load();
}

void server::accept_clients() {
    while (true) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) return;
        set_nonblocking(fd);
        auto conn = std::make_unique<connection>();
        conn->fd = fd;
        connections_.push_back(std::move(conn));
    }
}

void server::handle_readable(connection& conn) {
    std::uint8_t buf[16384];
    while (true) {
        const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
        if (n > 0) {
            conn.inbuf.insert(conn.inbuf.end(), buf, buf + n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        // EOF or hard error: the client is gone. Cancel its in-flight
        // solves (reclaiming pool time) and reclaim its queue slots; the
        // session context lingers until the handles resolve.
        conn.closing = true;
        for (auto& [id, req] : conn.inflight) {
            req.handle.cancel();
            c_disconnect_cancels_.add();
        }
        conn.pending.clear();
        return;
    }
    // Drain complete frames from the input buffer.
    while (true) {
        if (conn.inbuf.size() < 4) return;
        std::uint32_t len = 0;
        for (int i = 0; i < 4; ++i) len |= static_cast<std::uint32_t>(conn.inbuf[i]) << (8 * i);
        if (len == 0 || len > max_frame_bytes) {
            c_protocol_errors_.add();
            wire_writer w;
            w.str(len == 0 ? "empty frame" : "frame exceeds max_frame_bytes");
            conn.send({op::error, w.take()});
            conn.closing = true;
            for (auto& [id, req] : conn.inflight) req.handle.cancel();
            conn.pending.clear();
            return;
        }
        if (conn.inbuf.size() < 4u + len) return;
        frame f;
        f.opcode = static_cast<op>(conn.inbuf[4]);
        f.payload.assign(conn.inbuf.begin() + 5, conn.inbuf.begin() + 4 + len);
        conn.inbuf.erase(conn.inbuf.begin(), conn.inbuf.begin() + 4 + len);
        if (!handle_frame(conn, f)) {
            conn.closing = true;
            for (auto& [id, req] : conn.inflight) req.handle.cancel();
            conn.pending.clear();
            return;
        }
    }
}

bool server::handle_frame(connection& conn, const frame& f) {
    try {
        if (!conn.greeted && f.opcode != op::hello) {
            c_protocol_errors_.add();
            wire_writer w;
            w.str("expected hello");
            conn.send({op::error, w.take()});
            return false;
        }
        switch (f.opcode) {
            case op::hello: {
                wire_reader r(f.payload);
                const std::uint32_t version = r.u32();
                std::string name = r.str();
                const std::uint32_t weight = r.u32();
                if (version != protocol_version) {
                    wire_writer w;
                    w.str("unsupported protocol version");
                    conn.send({op::error, w.take()});
                    return false;
                }
                conn.tenant = name.empty() ? "anonymous" : std::move(name);
                conn.tm = std::make_unique<smt::term_manager>();
                // One trace track per tenant, shared between the server's
                // request spans and the engine's solve/member/pair spans
                // (register_track dedups by name).
                conn.trace_track = trace_->register_track("tenant:" + conn.tenant);
                substrate::engine_config ecfg;
                ecfg.threads = static_cast<unsigned>(pool_->size());
                ecfg.shared_cache = cache_;
                ecfg.shared_pool = pool_;
                ecfg.trace = trace_;
                ecfg.trace_track_name = "tenant:" + conn.tenant;
                conn.engine = std::make_unique<substrate::smt_engine>(*conn.tm, ecfg);
                conn.session = conn.engine->open_session(
                    conn.tenant, weight == 0 ? cfg_.default_weight : weight);
                conn.greeted = true;
                c_sessions_.add();
                wire_writer w;
                w.u32(protocol_version);
                conn.send({op::hello_ok, w.take()});
                return true;
            }
            case op::submit:
                handle_submit(conn, f.payload);
                return true;
            case op::cancel: {
                wire_reader r(f.payload);
                const std::uint64_t id = r.u64();
                bool found = false;
                if (auto it = conn.inflight.find(id); it != conn.inflight.end()) {
                    it->second.handle.cancel();
                    found = true;
                } else {
                    // Still queued behind the decode barrier: unqueue and
                    // answer as a cancelled (never-started) solve.
                    for (auto it2 = conn.pending.begin(); it2 != conn.pending.end(); ++it2) {
                        if (it2->request_id != id) continue;
                        conn.pending.erase(it2);
                        result_message msg;
                        msg.request_id = id;
                        msg.ans = substrate::answer::unknown;
                        msg.status = substrate::solve_status::cancelled;
                        msg.status_detail = "cancelled before dispatch";
                        msg.finish_seq = finish_seq_++;
                        conn.send({op::result, encode_result(*conn.tm, msg, {})});
                        c_results_.add();
                        found = true;
                        break;
                    }
                }
                if (found) c_cancels_.add();
                wire_writer w;
                w.u64(id);
                w.u8(found ? 1 : 0);
                conn.send({op::cancel_ack, w.take()});
                return true;
            }
            case op::progress: {
                wire_reader r(f.payload);
                progress_message msg;
                msg.request_id = r.u64();
                if (auto it = conn.inflight.find(msg.request_id); it != conn.inflight.end()) {
                    const substrate::query_progress p = it->second.handle.progress();
                    msg.known = true;
                    msg.started = p.started;
                    msg.finished = p.finished;
                    msg.cancel_requested = p.cancel_requested;
                    msg.cubes_total = p.cubes_total;
                    msg.cubes_done = p.cubes_done;
                    msg.conflicts = p.conflicts;
                    msg.strategy = p.strategy;
                } else {
                    for (const auto& pend : conn.pending)
                        if (pend.request_id == msg.request_id) msg.known = true;
                }
                conn.send({op::progress_reply, encode_progress(msg)});
                return true;
            }
            case op::stats:
                conn.send({op::stats_reply, encode_stats(snapshot_stats())});
                return true;
            case op::trace: {
                // Export the collector as Chrome trace-event JSON. A trace
                // bigger than one frame is truncated to an error rather
                // than silently corrupted mid-frame.
                std::string json = trace_->to_json();
                if (json.size() + 16 > max_frame_bytes) {
                    wire_writer w;
                    w.str("trace exceeds max_frame_bytes; use --trace-out");
                    conn.send({op::error, w.take()});
                    return true;
                }
                wire_writer w;
                w.str(json);
                conn.send({op::trace_reply, w.take()});
                return true;
            }
            case op::drain: {
                wire_reader r(f.payload);
                const std::uint8_t policy = f.payload.empty() ? 0 : r.u8();
                conn.wants_drain_ack = true;
                begin_drain(policy == 1 ? drain_policy::cancel : drain_policy::finish);
                return true;
            }
            default: {
                c_protocol_errors_.add();
                wire_writer w;
                w.str("unknown opcode");
                conn.send({op::error, w.take()});
                return false;
            }
        }
    } catch (const wire_error& e) {
        c_protocol_errors_.add();
        wire_writer w;
        w.str(std::string("malformed frame: ") + e.what());
        conn.send({op::error, w.take()});
        return false;
    }
}

void server::handle_submit(connection& conn, const std::vector<std::uint8_t>& payload) {
    const std::uint64_t id = peek_request_id(payload);
    auto reject = [&](reject_reason reason, const std::string& detail) {
        wire_writer w;
        w.u64(id);
        w.u8(static_cast<std::uint8_t>(reason));
        w.str(detail);
        conn.send({op::reject, w.take()});
    };
    if (payload.size() < 8) {
        c_protocol_errors_.add();
        reject(reject_reason::protocol, "submit payload shorter than a request id");
        return;
    }
    if (draining_) {
        c_rejected_draining_.add();
        reject(reject_reason::draining, "daemon is draining");
        return;
    }
    if (conn.load() >= cfg_.queue_depth) {
        c_rejected_queue_full_.add();
        reject(reject_reason::queue_full,
               "tenant queue at capacity (" + std::to_string(cfg_.queue_depth) + ")");
        return;
    }
    if (conn.inflight.count(id) != 0) {
        reject(reject_reason::protocol, "duplicate request id");
        return;
    }
    for (const auto& pend : conn.pending)
        if (pend.request_id == id) {
            reject(reject_reason::protocol, "duplicate request id");
            return;
        }
    conn.pending.push_back({id, payload, clock::now()});
    c_submits_.add();
    wire_writer w;
    w.u64(id);
    w.u32(static_cast<std::uint32_t>(conn.load()));
    conn.send({op::submit_ack, w.take()});
}

void server::schedule(connection& conn) {
    if (!conn.greeted || conn.pending.empty()) return;
    // The decode barrier: decoding creates terms, and the tenant's manager
    // is only quiescent (no pool thread reading it) with zero in-flight
    // solves. Batch-decode everything queued at this idle window.
    if (!conn.inflight.empty()) return;
    if (draining_ && drain_policy_ == drain_policy::cancel) {
        // Cancel-drain: admitted-but-queued work is answered cancelled
        // without ever dispatching.
        while (!conn.pending.empty()) {
            const auto pend = std::move(conn.pending.front());
            conn.pending.pop_front();
            result_message msg;
            msg.request_id = pend.request_id;
            msg.ans = substrate::answer::unknown;
            msg.status = substrate::solve_status::cancelled;
            msg.status_detail = "cancelled by drain";
            msg.finish_seq = finish_seq_++;
            conn.send({op::result, encode_result(*conn.tm, msg, {})});
            c_results_.add();
        }
        return;
    }
    std::deque<connection::pending_submit> batch = std::move(conn.pending);
    conn.pending.clear();
    const clock::time_point now = clock::now();
    obs::span decode_span(trace_.get(), conn.trace_track, "decode");
    decode_span.arg("batch", batch.size());
    // Decode the whole batch before submitting any of it: a submitted
    // request starts reading the manager on a pool thread at once.
    std::vector<std::pair<submit_message, clock::time_point>> decoded;
    decoded.reserve(batch.size());
    for (auto& pend : batch) {
        try {
            decoded.emplace_back(decode_submit(*conn.tm, pend.payload), pend.enqueued);
        } catch (const wire_error& e) {
            c_protocol_errors_.add();
            wire_writer w;
            w.u64(pend.request_id);
            w.u8(static_cast<std::uint8_t>(reject_reason::protocol));
            w.str(std::string("submit failed to decode: ") + e.what());
            conn.send({op::reject, w.take()});
        }
    }
    for (auto& [msg, enqueued] : decoded) {
        connection::inflight_request req;
        // Stamp admission and dispatch on the collector's timebase before
        // submitting, so the reaper can emit queue_wait/solve/request
        // spans that exactly partition the request's wall time.
        const std::uint64_t dispatched_us = trace_->now_us();
        const std::uint64_t wait_us = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(now - enqueued).count());
        req.handle = conn.session->submit(std::move(msg.request));
        req.enqueued = enqueued;
        req.dispatched = now;
        req.enqueued_us = dispatched_us > wait_us ? dispatched_us - wait_us : 0;
        req.dispatched_us = dispatched_us;
        if (const std::uint64_t budget = req.handle.stats().strategy.time_budget_ms; budget != 0)
            req.deadline = now + std::chrono::milliseconds(budget);
        conn.inflight.emplace(msg.request_id, std::move(req));
    }
}

void server::reap(connection& conn) {
    const clock::time_point now = clock::now();
    for (auto it = conn.inflight.begin(); it != conn.inflight.end();) {
        connection::inflight_request& req = it->second;
        if (!req.handle.ready()) {
            // Server-side enforcement of the request's wall-clock budget:
            // no thread blocks in get() here, so the reaper cancels.
            if (req.deadline && now >= *req.deadline && !req.deadline_cancelled) {
                req.handle.cancel();
                req.deadline_cancelled = true;
            }
            ++it;
            continue;
        }
        substrate::backend_result result = req.handle.get();
        result_message msg;
        msg.request_id = it->first;
        msg.ans = result.ans;
        msg.status = result.status;
        // A cancel the daemon itself issued for an expired time budget is
        // a timeout from the client's point of view.
        if (req.deadline_cancelled && result.status == substrate::solve_status::cancelled)
            msg.status = substrate::solve_status::timeout;
        msg.status_detail = std::move(result.status_detail);
        const substrate::request_stats rstats = req.handle.stats();
        // An all-UNSAT shard verdict is synthesized rather than returned by
        // one winning instance, so its result carries no conflict count;
        // report the pairs' aggregate instead.
        msg.conflicts = result.conflicts != 0 ? result.conflicts : rstats.shard.conflicts;
        msg.cache_hit = rstats.cache_hit;
        msg.finish_seq = finish_seq_++;
        msg.queue_wait_ms = ms_between(req.enqueued, req.dispatched);
        msg.service_ms = ms_between(req.dispatched, now);
        h_queue_wait_ms_.observe(msg.queue_wait_ms);
        h_service_ms_.observe(msg.service_ms);
        h_conflicts_.observe(msg.conflicts);
        // The request's life as three spans on the tenant track: queue_wait
        // and solve are children that exactly partition the request span,
        // so the trace covers the request's full wall time by construction.
        const std::uint64_t done_us = trace_->now_us();
        trace_->record({"queue_wait",
                        conn.trace_track,
                        req.enqueued_us,
                        req.dispatched_us - req.enqueued_us,
                        {{"request", it->first}}});
        trace_->record({"solve",
                        conn.trace_track,
                        req.dispatched_us,
                        done_us - req.dispatched_us,
                        {{"request", it->first}, {"conflicts", msg.conflicts}}});
        trace_->record({"request",
                        conn.trace_track,
                        req.enqueued_us,
                        done_us - req.enqueued_us,
                        {{"request", it->first}, {"finish_seq", msg.finish_seq}}});
        conn.send({op::result, encode_result(*conn.tm, msg, result.model)});
        c_results_.add();
        it = conn.inflight.erase(it);
    }
}

namespace {

void accumulate(substrate::session_stats& into, const substrate::session_stats& from) {
    into.queries += from.queries;
    into.cache_hits += from.cache_hits;
    into.coalesced += from.coalesced;
    into.completed += from.completed;
    into.conflicts += from.conflicts;
    into.ok += from.ok;
    into.cancelled += from.cancelled;
    into.over_budget += from.over_budget;
    into.malformed += from.malformed;
    into.internal += from.internal;
}

}  // namespace

void server::drop_connection(std::size_t i) {
    connection& conn = *connections_[i];
    // Keep the tenant's accounting slice alive past the socket.
    if (conn.greeted && conn.session) accumulate(departed_[conn.tenant], conn.session->stats());
    connections_.erase(connections_.begin() + static_cast<std::ptrdiff_t>(i));
}

void server::begin_drain(drain_policy policy) {
    draining_ = true;
    drain_policy_ = policy;
    if (policy == drain_policy::cancel)
        for (auto& conn : connections_)
            for (auto& [id, req] : conn->inflight) req.handle.cancel();
}

int server::poll_timeout_ms() const {
    std::optional<clock::time_point> earliest;
    for (const auto& conn : connections_)
        for (const auto& [id, req] : conn->inflight)
            if (req.deadline && !req.deadline_cancelled && (!earliest || *req.deadline < *earliest))
                earliest = req.deadline;
    if (!earliest) return 100;
    const auto ms = std::chrono::ceil<std::chrono::milliseconds>(*earliest - clock::now()).count();
    return static_cast<int>(std::clamp<decltype(ms)>(ms, 0, std::numeric_limits<int>::max()));
}

std::map<std::string, std::uint64_t> server::snapshot_stats() const {
    // The registry carries every registered server.* / pool.* counter and
    // histogram (expanded to .count/.p50/.p90/.p99 keys); the rest of the
    // snapshot is derived state sampled here under the same naming scheme.
    std::map<std::string, std::uint64_t> out = registry_.snapshot();
    out["server.finish_seq"] = finish_seq_;
    out["pool.threads"] = pool_->size();
    std::uint64_t inflight = 0;
    std::uint64_t queued = 0;
    for (const auto& conn : connections_) {
        inflight += conn->inflight.size();
        queued += conn->pending.size();
    }
    out["server.inflight"] = inflight;
    out["server.queued"] = queued;
    const substrate::thread_pool::wait_stats ws = pool_->lane_wait();
    out["pool.tasks"] = ws.tasks;
    out["pool.wait_total_us"] = ws.total_us;
    out["pool.wait_max_us"] = ws.max_us;
    const substrate::query_cache::cache_stats cs = cache_->stats();
    out["cache.hits"] = cs.hits;
    out["cache.misses"] = cs.misses;
    out["cache.insertions"] = cs.insertions;
    out["cache.persisted_loads"] = cs.persisted_loads;
    out["trace.dropped"] = trace_->dropped();
    // Per-tenant slices (tenant.<name>.*): departed connections' retained
    // accounting plus every live session that greeted under the name.
    std::map<std::string, substrate::session_stats> tenants = departed_;
    for (const auto& conn : connections_)
        if (conn->greeted && conn->session)
            accumulate(tenants[conn->tenant], conn->session->stats());
    for (const auto& [name, ss] : tenants) {
        const std::string prefix = "tenant." + name + ".";
        out[prefix + "queries"] = ss.queries;
        out[prefix + "cache_hits"] = ss.cache_hits;
        out[prefix + "coalesced"] = ss.coalesced;
        out[prefix + "completed"] = ss.completed;
        out[prefix + "conflicts"] = ss.conflicts;
        out[prefix + "ok"] = ss.ok;
        out[prefix + "cancelled"] = ss.cancelled;
        out[prefix + "over_budget"] = ss.over_budget;
        out[prefix + "malformed"] = ss.malformed;
        out[prefix + "internal"] = ss.internal;
    }
    return out;
}

}  // namespace sciduction::service
