// sciductiond end-to-end: multi-tenant fairness under a greedy job,
// cancel and disconnect cleanup, protocol edge cases (truncated /
// oversized / unknown frames), bounded admission, and graceful-drain
// cache persistence. The server runs in-process on a background thread;
// clients talk to it over a real unix-domain socket.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/client.hpp"
#include "service/server.hpp"
#include "smt/term.hpp"

namespace sciduction::service {
namespace {

using namespace std::chrono_literals;

std::string unique_path(const std::string& stem) {
    static std::atomic<unsigned> counter{0};
    return "/tmp/sciduction_" + stem + "_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1));
}

/// In-process daemon on a fresh socket; joins (via drain) on destruction.
struct daemon {
    explicit daemon(server_config cfg) : config(std::move(cfg)) {
        if (config.socket_path.empty()) config.socket_path = unique_path("sock");
        srv = std::make_unique<server>(config);
        thread = std::thread([this] { served = srv->run(); });
        while (!srv->serving()) std::this_thread::sleep_for(1ms);
    }
    ~daemon() { stop(); }
    void stop() {
        if (!thread.joinable()) return;
        srv->request_stop();
        thread.join();
    }

    server_config config;
    std::unique_ptr<server> srv;
    std::thread thread;
    std::uint64_t served = 0;
};

/// The greedy job: a width-12 multiplier distributivity refutation
/// (minutes-hard), sharded so its cube tasks saturate the whole pool.
/// Unbounded on purpose — every test that submits it either cancels it or
/// lets a daemon mechanism (deadline, disconnect, drain) resolve it, so
/// assertions never race against how fast the solver happens to be.
/// A conflict slice selects the sliced rounds scheduler, whose round
/// barriers are the pool's preemption points: a worker leaves the greedy
/// job for other lanes at most one conflict slice after competing work
/// arrives.
substrate::solve_request greedy_request(smt::term_manager& tm) {
    smt::term x = tm.mk_bv_var("gx", 12);
    smt::term y = tm.mk_bv_var("gy", 12);
    substrate::solve_request req;
    req.assertions = {
        tm.mk_distinct(tm.mk_bvmul(x, tm.mk_bvadd(y, y)),
                       tm.mk_bvadd(tm.mk_bvmul(x, y), tm.mk_bvmul(x, y)))};
    req.strategy = substrate::strategy::shard(2);
    req.strategy.use_cache = false;
    req.strategy.slice_conflicts = 1000;
    return req;
}

substrate::solve_request tiny_request(smt::term_manager& tm, std::uint64_t i) {
    smt::term x = tm.mk_bv_var("x", 16);
    substrate::solve_request req;
    req.assertions = {tm.mk_eq(x, tm.mk_bv_const(16, i)),
                      tm.mk_ult(x, tm.mk_bv_const(16, 1000))};
    req.strategy = substrate::strategy::single();
    return req;
}

void wait_until_started(client& cli, std::uint64_t id) {
    while (true) {
        const progress_message p = cli.progress(id);
        if (!p.known || p.started) return;
        std::this_thread::sleep_for(1ms);
    }
}

// ---- fairness ---------------------------------------------------------------

TEST(service_fairness, tiny_tenant_finishes_ahead_of_greedy_tenant) {
    daemon d({.socket_path = {}, .threads = 2, .queue_depth = 64});
    smt::term_manager tm_greedy;
    smt::term_manager tm_tiny;
    client greedy(tm_greedy, d.config.socket_path, "greedy");
    client tiny(tm_tiny, d.config.socket_path, "tiny");

    const submit_outcome big = greedy.submit(greedy_request(tm_greedy));
    ASSERT_TRUE(big.accepted);
    wait_until_started(greedy, big.request_id);

    std::vector<std::uint64_t> tiny_ids;
    for (std::uint64_t i = 0; i < 6; ++i) {
        const submit_outcome out = tiny.submit(tiny_request(tm_tiny, i));
        ASSERT_TRUE(out.accepted) << out.detail;
        tiny_ids.push_back(out.request_id);
    }
    // The greedy shard job owns every pool worker when the burst arrives;
    // fair lanes must still complete each tiny query while it runs. With
    // an unfair scheduler these awaits would starve behind the unbounded
    // job — completing at all is the bounded-queue-wait assertion.
    std::uint64_t max_tiny_seq = 0;
    for (std::uint64_t id : tiny_ids) {
        const result_message r = tiny.await(id);
        EXPECT_EQ(r.ans, substrate::answer::sat);
        max_tiny_seq = std::max(max_tiny_seq, r.finish_seq);
    }
    EXPECT_TRUE(greedy.cancel(big.request_id));
    const result_message big_result = greedy.await(big.request_id);
    EXPECT_EQ(big_result.status, substrate::solve_status::cancelled);
    // Deterministic order via the daemon's global completion sequence.
    EXPECT_LT(max_tiny_seq, big_result.finish_seq);
}

// ---- cancel paths -----------------------------------------------------------

TEST(service_cancel, after_completion_is_benign_and_inflight_cancels) {
    daemon d({.socket_path = {}, .threads = 2});
    smt::term_manager tm;
    client cli(tm, d.config.socket_path, "tenant");

    // Completed request: cancel answers found=false, daemon stays up.
    const submit_outcome done = cli.submit(tiny_request(tm, 1));
    ASSERT_TRUE(done.accepted);
    EXPECT_EQ(cli.await(done.request_id).ans, substrate::answer::sat);
    EXPECT_FALSE(cli.cancel(done.request_id));

    // In-flight request: cancel resolves it as cancelled.
    const submit_outcome big = cli.submit(greedy_request(tm));
    ASSERT_TRUE(big.accepted);
    wait_until_started(cli, big.request_id);
    EXPECT_TRUE(cli.cancel(big.request_id));
    const result_message r = cli.await(big.request_id);
    EXPECT_EQ(r.ans, substrate::answer::unknown);
    EXPECT_EQ(r.status, substrate::solve_status::cancelled);

    // Queued-behind-the-barrier request: a hard solve holds the tenant
    // busy, so the next submit waits undecoded; cancelling it answers
    // without ever dispatching.
    const submit_outcome blocker = cli.submit(greedy_request(tm));
    ASSERT_TRUE(blocker.accepted);
    wait_until_started(cli, blocker.request_id);
    const submit_outcome queued = cli.submit(tiny_request(tm, 2));
    ASSERT_TRUE(queued.accepted);
    EXPECT_TRUE(cli.cancel(queued.request_id));
    const result_message rq = cli.await(queued.request_id);
    EXPECT_EQ(rq.status, substrate::solve_status::cancelled);
    EXPECT_TRUE(cli.cancel(blocker.request_id));
    EXPECT_EQ(cli.await(blocker.request_id).status, substrate::solve_status::cancelled);
    EXPECT_EQ(cli.stats().at("server.cancels"), 3u);
}

TEST(service_cancel, disconnect_mid_solve_reclaims_the_tenant) {
    daemon d({.socket_path = {}, .threads = 2});
    smt::term_manager tm_a;
    smt::term_manager tm_b;
    {
        client doomed(tm_a, d.config.socket_path, "doomed");
        const submit_outcome big = doomed.submit(greedy_request(tm_a));
        ASSERT_TRUE(big.accepted);
        wait_until_started(doomed, big.request_id);
    }  // socket closes with the solve in flight
    client watcher(tm_b, d.config.socket_path, "watcher");
    // The daemon cancels the orphaned solve and reclaims the session.
    while (true) {
        const auto stats = watcher.stats();
        if (stats.at("server.disconnect_cancels") >= 1 && stats.at("server.inflight") == 0) break;
        std::this_thread::sleep_for(2ms);
    }
    // And keeps serving.
    const submit_outcome out = watcher.submit(tiny_request(tm_b, 3));
    ASSERT_TRUE(out.accepted);
    EXPECT_EQ(watcher.await(out.request_id).ans, substrate::answer::sat);
}

// ---- admission control ------------------------------------------------------

TEST(service_admission, bounded_queue_rejects_overflow_not_the_daemon) {
    daemon d({.socket_path = {}, .threads = 2, .queue_depth = 2});
    smt::term_manager tm;
    client cli(tm, d.config.socket_path, "tenant");
    const submit_outcome first = cli.submit(greedy_request(tm));
    const submit_outcome second = cli.submit(greedy_request(tm));
    ASSERT_TRUE(first.accepted);
    ASSERT_TRUE(second.accepted);
    // Third of a depth-2 tenant: rejected, with the reason on the wire.
    smt::term extra = tm.mk_bv_var("extra", 8);
    substrate::solve_request req;
    req.assertions = {tm.mk_ult(extra, tm.mk_bv_const(8, 5))};
    const submit_outcome third = cli.submit(req);
    EXPECT_FALSE(third.accepted);
    EXPECT_EQ(third.reason, reject_reason::queue_full);
    EXPECT_EQ(cli.stats().at("server.rejected_queue_full"), 1u);
    // The rejected slot is not leaked: cancel one, the next submit fits.
    EXPECT_TRUE(cli.cancel(first.request_id));
    (void)cli.await(first.request_id);
    const submit_outcome retry = cli.submit(req);
    EXPECT_TRUE(retry.accepted);
    EXPECT_TRUE(cli.cancel(second.request_id));
    EXPECT_TRUE(cli.cancel(retry.request_id) || true);  // may already be done
    (void)cli.await(second.request_id);
    (void)cli.await(retry.request_id);
}

TEST(service_admission, malformed_strategy_travels_back_as_malformed_status) {
    daemon d({.socket_path = {}, .threads = 1});
    smt::term_manager tm;
    client cli(tm, d.config.socket_path, "tenant");
    substrate::solve_request req = tiny_request(tm, 4);
    req.strategy.members = 0;  // rejected by validate() at submit
    const submit_outcome out = cli.submit(req);
    ASSERT_TRUE(out.accepted);
    const result_message r = cli.await(out.request_id);
    EXPECT_EQ(r.ans, substrate::answer::unknown);
    EXPECT_EQ(r.status, substrate::solve_status::malformed);
    EXPECT_NE(r.status_detail.find("members"), std::string::npos);
}

// ---- protocol edge cases ----------------------------------------------------

/// Raw socket for speaking deliberately broken protocol.
struct raw_socket {
    explicit raw_socket(const std::string& path) {
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
        if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
            ::close(fd);
            fd = -1;
        }
    }
    ~raw_socket() {
        if (fd >= 0) ::close(fd);
    }
    void send(const std::vector<std::uint8_t>& bytes) const {
        ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
                  static_cast<ssize_t>(bytes.size()));
    }
    /// Reads one whole frame (discarding the payload); returns the opcode
    /// (0 on EOF).
    std::uint8_t read_opcode() const {
        std::uint8_t header[5];
        if (!read_exact(header, sizeof(header))) return 0;
        std::uint32_t len = 0;
        for (int i = 0; i < 4; ++i) len |= static_cast<std::uint32_t>(header[i]) << (8 * i);
        std::vector<std::uint8_t> payload(len - 1);
        if (!payload.empty() && !read_exact(payload.data(), payload.size())) return 0;
        return header[4];
    }
    bool read_exact(std::uint8_t* dst, std::size_t n) const {
        std::size_t off = 0;
        while (off < n) {
            const ssize_t got = ::read(fd, dst + off, n - off);
            if (got <= 0) return false;
            off += static_cast<std::size_t>(got);
        }
        return true;
    }
    int fd = -1;
};

std::vector<std::uint8_t> hello_frame(std::uint32_t version = protocol_version) {
    wire_writer w;
    w.u32(version);
    w.str("raw");
    w.u32(1);
    return pack_frame({op::hello, w.take()});
}

TEST(service_protocol, truncated_frame_then_disconnect_is_harmless) {
    daemon d({.socket_path = {}, .threads = 1});
    {
        raw_socket raw(d.config.socket_path);
        ASSERT_GE(raw.fd, 0);
        std::vector<std::uint8_t> partial = hello_frame();
        partial.resize(partial.size() / 2);  // cut mid-frame
        raw.send(partial);
    }  // disconnect with the frame half-sent
    smt::term_manager tm;
    client cli(tm, d.config.socket_path, "after");
    const submit_outcome out = cli.submit(tiny_request(tm, 5));
    ASSERT_TRUE(out.accepted);
    EXPECT_EQ(cli.await(out.request_id).ans, substrate::answer::sat);
}

TEST(service_protocol, oversized_frame_draws_error_and_close) {
    daemon d({.socket_path = {}, .threads = 1});
    raw_socket raw(d.config.socket_path);
    ASSERT_GE(raw.fd, 0);
    const std::uint32_t huge = max_frame_bytes + 1;
    std::vector<std::uint8_t> bytes;
    for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<std::uint8_t>(huge >> (8 * i)));
    raw.send(bytes);
    EXPECT_EQ(raw.read_opcode(), static_cast<std::uint8_t>(op::error));
    EXPECT_EQ(raw.read_opcode(), 0u);  // daemon closed the connection
}

TEST(service_protocol, previous_version_hello_draws_error_and_close) {
    // A v3 client would send the strategy block's removed sharing field;
    // the hello version check refuses it before any submit is parsed.
    daemon d({.socket_path = {}, .threads = 1});
    raw_socket raw(d.config.socket_path);
    ASSERT_GE(raw.fd, 0);
    raw.send(hello_frame(protocol_version - 1));
    EXPECT_EQ(raw.read_opcode(), static_cast<std::uint8_t>(op::error));
    EXPECT_EQ(raw.read_opcode(), 0u);  // daemon closed the connection
}

TEST(service_protocol, unknown_opcode_draws_error_and_close) {
    daemon d({.socket_path = {}, .threads = 1});
    raw_socket raw(d.config.socket_path);
    ASSERT_GE(raw.fd, 0);
    raw.send(hello_frame());
    EXPECT_EQ(raw.read_opcode(), static_cast<std::uint8_t>(op::hello_ok));
    raw.send(pack_frame({static_cast<op>(0x6f), {}}));
    EXPECT_EQ(raw.read_opcode(), static_cast<std::uint8_t>(op::error));
    EXPECT_EQ(raw.read_opcode(), 0u);
    // The daemon itself is unscathed.
    smt::term_manager tm;
    client cli(tm, d.config.socket_path, "after");
    EXPECT_GE(cli.stats().at("server.protocol_errors"), 1u);
}

TEST(service_protocol, garbage_submit_payload_is_rejected_not_fatal) {
    daemon d({.socket_path = {}, .threads = 1});
    raw_socket raw(d.config.socket_path);
    ASSERT_GE(raw.fd, 0);
    raw.send(hello_frame());
    EXPECT_EQ(raw.read_opcode(), static_cast<std::uint8_t>(op::hello_ok));
    // A submit whose term block lies about its node count: admitted (the
    // id parses), then rejected at decode with reason `protocol`.
    wire_writer w;
    w.u64(7);         // request id
    w.u32(1000000);   // node count with no nodes behind it
    raw.send(pack_frame({op::submit, w.take()}));
    EXPECT_EQ(raw.read_opcode(), static_cast<std::uint8_t>(op::submit_ack));
    EXPECT_EQ(raw.read_opcode(), static_cast<std::uint8_t>(op::reject));
}

// ---- the submit codec's strategy block ----------------------------------------

/// Encodes `s` in a tiny submit and decodes it into a fresh manager.
substrate::strategy round_trip(const substrate::strategy& s) {
    smt::term_manager tm;
    substrate::solve_request req = tiny_request(tm, 3);
    req.strategy = s;
    smt::term_manager decoded;
    return decode_submit(decoded, encode_submit(tm, 1, req)).request.strategy;
}

TEST(service_codec, strategy_block_round_trips_each_kind_and_presence_bit) {
    for (const substrate::strategy& s :
         {substrate::strategy::automatic(), substrate::strategy::single(),
          substrate::strategy::portfolio(3), substrate::strategy::shard(2)}) {
        const substrate::strategy got = round_trip(s);
        EXPECT_EQ(got.kind, s.kind) << to_string(s.kind);
        EXPECT_EQ(got.members, s.members) << to_string(s.kind);
        EXPECT_EQ(got.depth, s.depth) << to_string(s.kind);
    }
    // One strategy per presence bit: the decoded block sets that field and
    // only that one.
    substrate::strategy members;
    members.members = 5;
    substrate::strategy depth;
    depth.depth = 3;
    substrate::strategy probes;
    probes.probe_candidates = 9;
    substrate::strategy use_cache;
    use_cache.use_cache = false;
    substrate::strategy features;
    features.features = sat::solver_features{.reduce = true, .inprocess = true};
    for (substrate::strategy s : {members, depth, probes, use_cache, features}) {
        s.conflict_budget = 77;
        s.slice_conflicts = 321;
        s.time_budget_ms = 88;
        const substrate::strategy got = round_trip(s);
        EXPECT_EQ(got.kind, substrate::strategy_kind::automatic);
        EXPECT_EQ(got.members, s.members);
        EXPECT_EQ(got.depth, s.depth);
        EXPECT_EQ(got.probe_candidates, s.probe_candidates);
        EXPECT_EQ(got.use_cache, s.use_cache);
        EXPECT_EQ(got.features, s.features);
        EXPECT_EQ(got.conflict_budget, 77u);
        EXPECT_EQ(got.slice_conflicts, 321u);
        EXPECT_EQ(got.time_budget_ms, 88u);
    }
}

TEST(service_codec, strategy_block_rejects_unknown_kind_and_presence_bits) {
    smt::term_manager tm;
    const std::vector<std::uint8_t> payload = encode_submit(tm, 1, tiny_request(tm, 3));
    // With no optional fields the block is the payload's last 26 bytes:
    // kind, presence mask, conflict budget, conflict slice, time budget.
    const std::size_t kind_at = payload.size() - 26;
    const std::size_t mask_at = kind_at + 1;
    auto decode_patched = [&](std::size_t at, std::uint8_t byte) {
        std::vector<std::uint8_t> patched = payload;
        patched[at] = byte;
        smt::term_manager decoded;
        (void)decode_submit(decoded, patched);
    };
    EXPECT_NO_THROW(decode_patched(kind_at, payload[kind_at]));
    EXPECT_THROW(decode_patched(kind_at, 4), wire_error);       // one past shard
    EXPECT_THROW(decode_patched(mask_at, 1u << 1), wire_error);  // unassigned
    EXPECT_THROW(decode_patched(mask_at, 1u << 4), wire_error);  // unassigned (v4)
    EXPECT_THROW(decode_patched(mask_at, 1u << 7), wire_error);  // never assigned
}

TEST(service_codec, progress_rejects_a_kind_past_shard) {
    progress_message msg;
    msg.strategy = substrate::strategy_kind::shard;
    std::vector<std::uint8_t> payload = encode_progress(msg);
    EXPECT_EQ(decode_progress(payload).strategy, substrate::strategy_kind::shard);
    payload.back() = 4;  // the kind is the payload's last byte
    EXPECT_THROW((void)decode_progress(payload), wire_error);
}

// ---- graceful drain / persistence -------------------------------------------

TEST(service_drain, finish_policy_persists_the_cache_across_restart) {
    const std::string socket_path = unique_path("drain_sock");
    const std::string cache_path = unique_path("cache") + ".qc";
    std::remove(cache_path.c_str());
    {
        daemon d({.socket_path = socket_path, .cache_path = cache_path, .threads = 2});
        smt::term_manager tm;
        client cli(tm, socket_path, "warmup");
        const submit_outcome out = cli.submit(tiny_request(tm, 6));
        ASSERT_TRUE(out.accepted);
        const result_message r = cli.await(out.request_id);
        EXPECT_EQ(r.ans, substrate::answer::sat);
        EXPECT_FALSE(r.cache_hit);
        cli.drain(drain_policy::finish);
        d.stop();
        EXPECT_EQ(d.served, 1u);
    }
    {
        daemon d({.socket_path = socket_path, .cache_path = cache_path, .threads = 2});
        smt::term_manager tm;
        client cli(tm, socket_path, "warm");  // a different tenant/manager
        EXPECT_GT(cli.stats().at("cache.persisted_loads"), 0u);
        const submit_outcome out = cli.submit(tiny_request(tm, 6));
        ASSERT_TRUE(out.accepted);
        const result_message r = cli.await(out.request_id);
        EXPECT_EQ(r.ans, substrate::answer::sat);
        // Served structurally from the previous daemon's saved cache.
        EXPECT_TRUE(r.cache_hit);
    }
    std::remove(cache_path.c_str());
}

TEST(service_drain, cancel_policy_resolves_inflight_as_cancelled) {
    daemon d({.socket_path = {}, .threads = 2});
    smt::term_manager tm_a;
    smt::term_manager tm_b;
    client busy(tm_a, d.config.socket_path, "busy");
    const submit_outcome big = busy.submit(greedy_request(tm_a));
    ASSERT_TRUE(big.accepted);
    wait_until_started(busy, big.request_id);
    client ops(tm_b, d.config.socket_path, "ops");
    std::thread drainer([&] { ops.drain(drain_policy::cancel); });
    const result_message r = busy.await(big.request_id);
    EXPECT_EQ(r.ans, substrate::answer::unknown);
    EXPECT_EQ(r.status, substrate::solve_status::cancelled);
    drainer.join();
    d.stop();
}

// ---- observability ----------------------------------------------------------

TEST(service_observability, progress_carries_live_conflicts_and_resolved_strategy) {
    daemon d({.socket_path = {}, .threads = 2});
    smt::term_manager tm;
    client cli(tm, d.config.socket_path, "tenant");
    const submit_outcome big = cli.submit(greedy_request(tm));
    ASSERT_TRUE(big.accepted);
    wait_until_started(cli, big.request_id);
    // Conflicts are sampled at restart/slice boundaries, so they appear
    // shortly after the solve starts; poll until the gauge moves.
    progress_message p;
    while (true) {
        p = cli.progress(big.request_id);
        ASSERT_TRUE(p.known);
        if (p.conflicts > 0) break;
        std::this_thread::sleep_for(2ms);
    }
    EXPECT_EQ(p.strategy, substrate::strategy_kind::shard);
    EXPECT_TRUE(cli.cancel(big.request_id));
    (void)cli.await(big.request_id);
}

TEST(service_observability, trace_opcode_returns_perfetto_shaped_json_with_tenant_track) {
    daemon d({.socket_path = {}, .threads = 2});
    smt::term_manager tm;
    client cli(tm, d.config.socket_path, "traced");
    for (std::uint64_t i = 0; i < 3; ++i) {
        const submit_outcome out = cli.submit(tiny_request(tm, i));
        ASSERT_TRUE(out.accepted);
        EXPECT_EQ(cli.await(out.request_id).ans, substrate::answer::sat);
    }
    const std::string json = cli.trace();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("tenant:traced"), std::string::npos);
    // The server-level request spans and their exact-partition children.
    EXPECT_NE(json.find("\"request\""), std::string::npos);
    EXPECT_NE(json.find("\"queue_wait\""), std::string::npos);
    EXPECT_NE(json.find("\"solve\""), std::string::npos);
    // finish_seq annotations are monotone in the order requests reaped.
    std::vector<std::uint64_t> seqs;
    for (std::size_t pos = 0; (pos = json.find("\"finish_seq\":", pos)) != std::string::npos;) {
        pos += 13;
        seqs.push_back(std::strtoull(json.c_str() + pos, nullptr, 10));
    }
    ASSERT_EQ(seqs.size(), 3u);
    long depth = 0;
    for (char ch : json) {
        if (ch == '{' || ch == '[') ++depth;
        if (ch == '}' || ch == ']') --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

TEST(service_observability, stats_carry_per_tenant_slices_and_histogram_percentiles) {
    daemon d({.socket_path = {}, .threads = 2});
    smt::term_manager tm;
    client cli(tm, d.config.socket_path, "alice");
    for (std::uint64_t i = 0; i < 4; ++i) {
        const submit_outcome out = cli.submit(tiny_request(tm, i));
        ASSERT_TRUE(out.accepted);
        EXPECT_EQ(cli.await(out.request_id).ans, substrate::answer::sat);
    }
    const auto stats = cli.stats();
    EXPECT_EQ(stats.at("tenant.alice.queries"), 4u);
    EXPECT_EQ(stats.at("tenant.alice.completed"), 4u);
    EXPECT_EQ(stats.at("tenant.alice.ok"), 4u);
    EXPECT_EQ(stats.at("server.service_ms.count"), 4u);
    EXPECT_TRUE(stats.count("server.service_ms.p50"));
    EXPECT_TRUE(stats.count("server.queue_wait_ms.p99"));
    EXPECT_TRUE(stats.count("server.conflicts.p90"));
    EXPECT_TRUE(stats.count("pool.lane_wait_us.p50"));
    EXPECT_TRUE(stats.count("trace.dropped"));
}

TEST(service_observability, tenant_slice_counts_each_status_and_survives_reconnect) {
    daemon d({.socket_path = {}, .threads = 2});
    smt::term_manager tm;
    auto solve = [&](client& cli, const substrate::solve_request& req) {
        const submit_outcome out = cli.submit(req);
        EXPECT_TRUE(out.accepted) << out.detail;
        return cli.await(out.request_id);
    };
    {
        client carol(tm, d.config.socket_path, "carol");
        EXPECT_EQ(solve(carol, tiny_request(tm, 1)).status, substrate::solve_status::ok);
        EXPECT_EQ(solve(carol, tiny_request(tm, 2)).status, substrate::solve_status::ok);
        EXPECT_TRUE(solve(carol, tiny_request(tm, 1)).cache_hit);
        substrate::solve_request bad = tiny_request(tm, 3);
        bad.strategy = substrate::strategy::portfolio();
        bad.strategy.members = 0;
        EXPECT_EQ(solve(carol, bad).status, substrate::solve_status::malformed);
        substrate::solve_request capped = greedy_request(tm);
        capped.strategy = substrate::strategy::single();
        capped.strategy.use_cache = false;
        capped.strategy.conflict_budget = 1;
        EXPECT_EQ(solve(carol, capped).status, substrate::solve_status::over_budget);
    }  // carol disconnects; her slice must outlive the connection
    client dave(tm, d.config.socket_path, "dave");
    auto stats = dave.stats();
    EXPECT_EQ(stats.at("tenant.carol.queries"), 5u);
    EXPECT_EQ(stats.at("tenant.carol.cache_hits"), 1u);
    EXPECT_EQ(stats.at("tenant.carol.coalesced"), 0u);
    EXPECT_EQ(stats.at("tenant.carol.completed"), 5u);
    EXPECT_GE(stats.at("tenant.carol.conflicts"), 1u);
    EXPECT_EQ(stats.at("tenant.carol.ok"), 3u);
    EXPECT_EQ(stats.at("tenant.carol.cancelled"), 0u);
    EXPECT_EQ(stats.at("tenant.carol.over_budget"), 1u);
    EXPECT_EQ(stats.at("tenant.carol.malformed"), 1u);
    EXPECT_EQ(stats.at("tenant.carol.internal"), 0u);
    for (const char* field : {"queries", "cache_hits", "coalesced", "completed", "conflicts", "ok",
                              "cancelled", "over_budget", "malformed", "internal"})
        EXPECT_EQ(stats.at(std::string("tenant.dave.") + field), 0u) << field;
    // A reconnect under the same name continues the old slice.
    client carol_again(tm, d.config.socket_path, "carol");
    EXPECT_EQ(solve(carol_again, tiny_request(tm, 4)).status, substrate::solve_status::ok);
    stats = dave.stats();
    EXPECT_EQ(stats.at("tenant.carol.queries"), 6u);
    EXPECT_EQ(stats.at("tenant.carol.completed"), 6u);
}

// ---- teardown ---------------------------------------------------------------

TEST(service_teardown, hard_poll_error_awaits_inflight_solves_before_sessions_die) {
    daemon d({.socket_path = {}, .threads = 2});
    smt::term_manager tm;
    client cli(tm, d.config.socket_path, "tenant");
    const submit_outcome big = cli.submit(greedy_request(tm));
    ASSERT_TRUE(big.accepted);
    wait_until_started(cli, big.request_id);
    {
        // poll(2) fails with EINVAL when handed more fds than the soft
        // RLIMIT_NOFILE. The loop polls at least its wake fd and the
        // listener, so with the limit at 1 its next poll (at the latest
        // after the 100 ms idle fallback) fails, and run() tears down with
        // the greedy solve still running on the shared pool.
        rlimit saved{};
        ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
        rlimit lowered = saved;
        lowered.rlim_cur = 1;
        ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);
        d.thread.join();
        ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
    }
    // run() returned, so the solve was cancelled and awaited before its
    // session died. Without that, the sanitizer builds report the engine
    // destroyed under the running solve, and the server's pool join waits
    // minutes for it. The session's socket closed with the session.
    EXPECT_THROW((void)cli.await(big.request_id), client_error);
}

// ---- time budgets over the wire ---------------------------------------------

TEST(service_budget, request_time_budget_maps_to_timeout_status) {
    daemon d({.socket_path = {}, .threads = 2});
    smt::term_manager tm;
    client cli(tm, d.config.socket_path, "tenant");
    substrate::solve_request req = greedy_request(tm);
    req.strategy = substrate::strategy::single();
    req.strategy.use_cache = false;
    req.strategy.time_budget_ms = 50;
    const submit_outcome out = cli.submit(req);
    ASSERT_TRUE(out.accepted);
    const result_message r = cli.await(out.request_id);
    EXPECT_EQ(r.ans, substrate::answer::unknown);
    // The daemon's reaper enforced the deadline and reports it as the
    // request's own timeout, not a daemon-side cancel.
    EXPECT_EQ(r.status, substrate::solve_status::timeout);
}

TEST(service_budget, earliest_deadline_over_all_tenants_times_out_first) {
    // Tenant A's 10 s deadline is dispatched first; tenant B's 50 ms one
    // must still wake the loop on time, while A is nowhere near its own.
    daemon d({.socket_path = {}, .threads = 2});
    smt::term_manager tm_a;
    smt::term_manager tm_b;
    client a(tm_a, d.config.socket_path, "patient");
    client b(tm_b, d.config.socket_path, "hasty");
    auto budgeted = [](smt::term_manager& tm, std::uint64_t budget_ms) {
        substrate::solve_request req = greedy_request(tm);
        req.strategy = substrate::strategy::single();
        req.strategy.use_cache = false;
        req.strategy.time_budget_ms = budget_ms;
        return req;
    };
    const submit_outcome slow = a.submit(budgeted(tm_a, 10000));
    ASSERT_TRUE(slow.accepted);
    wait_until_started(a, slow.request_id);
    const submit_outcome fast = b.submit(budgeted(tm_b, 50));
    ASSERT_TRUE(fast.accepted);
    const result_message r = b.await(fast.request_id);
    EXPECT_EQ(r.ans, substrate::answer::unknown);
    EXPECT_EQ(r.status, substrate::solve_status::timeout);
    const progress_message p = a.progress(slow.request_id);
    EXPECT_TRUE(p.known);
    EXPECT_FALSE(p.finished);
    EXPECT_FALSE(p.cancel_requested);
    EXPECT_TRUE(a.cancel(slow.request_id));
    EXPECT_EQ(a.await(slow.request_id).status, substrate::solve_status::cancelled);
}

}  // namespace
}  // namespace sciduction::service
