// daemon_mix: the sciductiond binary as its own process (--threads 2),
// driven closed-loop by two client connections (tenants) from this process:
// each client waits for its result before sending the next request, as
// CEGIS callers do, and the two take turns, so one request is in flight.
// With both tenants in flight at once, the daemon's poll loop settled, from
// run to run, either on its 5 ms tick or on a ~0.7 ms ping-pong (each
// tenant's arrival woke the loop, which then reaped the other's finished
// solve), and the medians of whole runs flipped between the two. The seeded
// stream is ~70% tiny unique queries (cache misses), ~20% renamed repeats
// of the other tenant's earlier queries (structural cache hits across
// tenants) and ~10% medium miters submitted as strategy::shard(1) (a pool
// lane plus cube generation and a pair).
//
// Every pass starts a fresh daemon (set-up = spawn + both hellos), runs the
// fixed request stream, reads the daemon's peak RSS and counters, and
// drains it. A traced pass also has the daemon write its own span trace,
// which gives the per-request queue and service times in microseconds.
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "bench.hpp"
#include "frontend/smtlib2.hpp"
#include "generators.hpp"
#include "service/client.hpp"
#include "substrate/engine.hpp"

extern char** environ;

namespace perfbench {

namespace {

using namespace sciduction;

const char* const socket_name = "sciductiond.sock";
const char* const daemon_trace_name = "sciductiond_trace.json";

/// The daemon process: spawned with its output in a log file next to the
/// socket, killed if still alive when this object dies (error paths).
class daemon_process {
public:
    daemon_process(const std::string& binary, bool traced) {
        std::vector<std::string> args = {binary, "--socket", socket_name, "--threads", "2"};
        if (traced) {
            std::remove(daemon_trace_name);
            args.insert(args.end(), {"--trace-out", daemon_trace_name, "--trace-capacity", "1048576"});
        }
        std::vector<char*> argv;
        for (std::string& a : args) argv.push_back(a.data());
        argv.push_back(nullptr);
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_addopen(&actions, 1, "sciductiond.log",
                                         O_WRONLY | O_CREAT | O_APPEND, 0644);
        posix_spawn_file_actions_adddup2(&actions, 1, 2);
        const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv.data(), environ);
        posix_spawn_file_actions_destroy(&actions);
        if (rc != 0) throw std::runtime_error("cannot spawn " + binary);
    }
    ~daemon_process() {
        if (pid_ <= 0) return;
        ::kill(pid_, SIGTERM);
        if (!wait(5.0)) {
            ::kill(pid_, SIGKILL);
            wait(5.0);
        }
    }
    daemon_process(const daemon_process&) = delete;
    daemon_process& operator=(const daemon_process&) = delete;

    [[nodiscard]] int pid() const { return pid_; }
    [[nodiscard]] bool running() {
        return pid_ > 0 && ::waitpid(pid_, nullptr, WNOHANG) == 0;
    }
    /// Waits up to `seconds` for the process to exit; true once reaped.
    bool wait(double seconds) {
        const auto deadline = bench_clock::now() + std::chrono::duration<double>(seconds);
        while (pid_ > 0) {
            int status = 0;
            const pid_t r = ::waitpid(pid_, &status, WNOHANG);
            if (r == pid_ || r < 0) {
                pid_ = -1;
                return true;
            }
            if (bench_clock::now() > deadline) return false;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return true;
    }

private:
    pid_t pid_ = -1;
};

/// One tenant: its own term manager and client connection.
struct tenant {
    smt::term_manager tm;
    std::unique_ptr<service::client> cli;
    std::string name;
};

/// What one request of the stream saw.
struct record {
    bool done = false;
    double rtt_ms = 0;
    std::uint64_t request_id = 0;
    service::result_message result;
    substrate::solve_request request;
    frontend::script script;
    smt::term_manager* tm = nullptr;  ///< the sending tenant's manager
};

/// Connects a tenant, retrying while the daemon is still starting.
std::unique_ptr<service::client> connect(tenant& t, daemon_process& d) {
    const auto deadline = bench_clock::now() + std::chrono::seconds(20);
    while (true) {
        try {
            return std::make_unique<service::client>(t.tm, socket_name, t.name);
        } catch (const service::client_error&) {
            if (!d.running()) throw std::runtime_error("sciductiond exited during start-up");
            if (bench_clock::now() > deadline) throw;
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    }
}

std::size_t dag_nodes(const smt::term_manager& tm, const std::vector<smt::term>& roots) {
    std::unordered_set<std::uint32_t> seen;
    std::vector<smt::term> stack(roots.begin(), roots.end());
    while (!stack.empty()) {
        const smt::term t = stack.back();
        stack.pop_back();
        if (!seen.insert(t.id).second) continue;
        for (smt::term k : tm.children_of(t)) stack.push_back(k);
    }
    return seen.size();
}

/// What the daemon's own span trace says about a pass.
struct daemon_trace {
    /// Per request, keyed by (tenant track, request id): the reaper's
    /// `queue_wait` (admission -> dispatch) and `solve` (dispatch -> reap)
    /// spans, in microseconds.
    struct request_times {
        double queue_us = -1;
        double service_us = -1;
    };
    std::map<std::pair<std::string, std::uint64_t>, request_times> requests;
    /// The tenant engines' `queue_wait` spans: pool lane wait per submit.
    std::vector<double> lane_wait_us;
};

/// Reads the Chrome trace the daemon writes on drain (--trace-out).
daemon_trace read_daemon_trace() {
    std::ifstream in(daemon_trace_name);
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string json = buf.str();
    std::map<unsigned, std::string> tracks;
    daemon_trace out;
    std::size_t pos = 0;
    while ((pos = json.find("{\"ph\":\"", pos)) != std::string::npos) {
        const std::size_t end = json.find("}}", pos);
        if (end == std::string::npos) break;
        const std::string ev = json.substr(pos, end - pos + 2);
        pos = end;
        unsigned tid = 0;
        char name[128] = {0};
        if (std::sscanf(ev.c_str(),
                        "{\"ph\":\"M\",\"pid\":1,\"tid\":%u,\"name\":\"thread_name\",\"args\":{"
                        "\"name\":\"%127[^\"]\"",
                        &tid, name) == 2) {
            tracks[tid] = name;
            continue;
        }
        unsigned long long ts = 0;
        unsigned long long dur = 0;
        if (std::sscanf(ev.c_str(),
                        "{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"name\":\"%127[^\"]\",\"ts\":%llu,"
                        "\"dur\":%llu",
                        &tid, name, &ts, &dur) != 4)
            continue;
        const std::string n = name;
        const std::size_t req = ev.find("\"request\":");
        if (n == "queue_wait" && ev.find("\"query\":") != std::string::npos) {
            out.lane_wait_us.push_back(static_cast<double>(dur));
        } else if ((n == "queue_wait" || n == "solve") && req != std::string::npos) {
            const std::uint64_t id = std::strtoull(ev.c_str() + req + 10, nullptr, 10);
            daemon_trace::request_times& t = out.requests[{tracks[tid], id}];
            (n == "queue_wait" ? t.queue_us : t.service_us) = static_cast<double>(dur);
        }
    }
    return out;
}

class daemon_mix_workload final : public workload {
public:
    daemon_mix_workload(const options& opt, ledger& led) : opt_(opt), ledger_(led) {}

    void setup() override {}  // a fresh daemon per pass; see run_pass

    pass_outcome run_pass(std::uint64_t, tracer* tr) override {
        pass_outcome out;
        auto t0 = bench_clock::now();
        stream_ = generate_daemon_mix(opt_.seed, opt_.reduced ? 40 : 200);
        daemon_process daemon(opt_.daemon_bin, tr != nullptr);
        std::vector<std::unique_ptr<tenant>> tenants;
        for (unsigned i = 0; i < 2; ++i) {
            tenants.push_back(std::make_unique<tenant>());
            tenants.back()->name = tenant_name(i);
            tenants.back()->cli = connect(*tenants.back(), daemon);
        }
        out.setup_s = seconds_between(t0, bench_clock::now());

        std::vector<record> records(stream_.size());
        t0 = bench_clock::now();
        drive(tenants, records, tr);
        out.wall_s = seconds_between(t0, bench_clock::now());
        for (const record& r : records)
            if (r.done) out.op_ms.push_back(r.rtt_ms);

        const std::map<std::string, std::uint64_t> stats = tenants[0]->cli->stats();
        out.rss_mb = peak_rss_mb(daemon.pid());
        tenants[0]->cli->drain();
        for (auto& t : tenants) t->cli.reset();
        if (!daemon.wait(20.0)) ledger_.fail("sciductiond did not exit after drain");
        // The tenants' managers stay alive: the records' terms live there.
        if (tr != nullptr) measure_layers(records, stats, out.layers);
        return out;
    }

    [[nodiscard]] std::set<std::string> layers() const override {
        return {"pool", "service", "substrate.cache_hit_ratio", "substrate.solver_runs"};
    }

private:
    /// The closed loop over the stream, each request on its tenant's
    /// connection.
    void drive(std::vector<std::unique_ptr<tenant>>& tenants, std::vector<record>& records,
               tracer* tr) {
        for (std::size_t i = 0; i < stream_.size(); ++i) {
            const mix_request& m = stream_[i];
            tenant& t = *tenants[m.tenant];
            record& rec = records[i];
            const std::string what = "request " + std::to_string(i);
            try {
                rec.tm = &t.tm;
                rec.script = frontend::parse_script(m.smt2, t.tm);
                rec.request.assertions = rec.script.assertions;
                // Mediums: one cube pair on a pool lane. With two pairs (and
                // both tenants in flight) their solve sat on a poll-tick edge
                // and rtt_p99_ms jumped between 11 and 16 ms from run to run.
                rec.request.strategy = m.kind == mix_request::klass::medium
                                           ? substrate::strategy::shard(1)
                                           : substrate::strategy::single();
                const auto start = bench_clock::now();
                obs::span s = maybe_span(tr, "service." + t.name, "client.round_trip");
                const service::submit_outcome sub = t.cli->submit(rec.request);
                if (!sub.accepted) {
                    ledger_.fail(what + ": rejected (" + sub.detail + ")");
                    continue;
                }
                rec.result = t.cli->await(sub.request_id);
                rec.rtt_ms = ms_since(start);
                s.arg("request", sub.request_id);
                rec.request_id = sub.request_id;
                rec.done = true;
                check(m, rec, what);
            } catch (const std::exception& e) {
                ledger_.fail(what + ": " + e.what());
                return;
            }
        }
    }

    void check(const mix_request& m, const record& rec, const std::string& what) {
        const service::result_message& r = rec.result;
        if (r.status != substrate::solve_status::ok) {
            ledger_.fail(what + ": status " + substrate::to_string(r.status));
            return;
        }
        if (r.ans != (m.expect_sat ? substrate::answer::sat : substrate::answer::unsat)) {
            ledger_.fail(what + ": wrong verdict");
            return;
        }
        if (r.ans == substrate::answer::sat) {
            // Re-evaluate every assertion under the returned bindings.
            std::map<std::string, std::uint64_t> by_name;
            for (const auto& b : r.model) by_name[b.name] = b.value;
            smt::env env;
            const smt::term_manager& tm = *rec.tm;
            for (const auto& [name, var] : rec.script.declarations) env[var.id] = by_name[name];
            for (smt::term a : rec.script.assertions)
                if (tm.evaluate(a, env) == 0) {
                    ledger_.fail(what + ": model falsifies an assertion");
                    return;
                }
        }
        ledger_.ok();
    }

    /// Per-layer numbers of a traced pass. Codec costs and the direct
    /// (in-process) solve time are replayed over the pass's own requests
    /// and results; queue, service and lane-wait times come from the
    /// daemon's span trace (1 us resolution — the stats reply only has
    /// power-of-two histogram buckets); the rest from its stats reply.
    void measure_layers(std::vector<record>& records, const std::map<std::string, std::uint64_t>& stats,
                        layer_sample& l) {
        const daemon_trace trace = read_daemon_trace();
        std::map<const smt::term_manager*, std::unique_ptr<substrate::smt_engine>> direct;
        double encode_us = 0;
        double decode_us = 0;
        double nodes = 0;
        std::size_t n = 0;
        std::vector<double> queue_ms;
        std::vector<double> service_ms;
        std::vector<double> overhead_ms;
        for (std::size_t i = 0; i < records.size(); ++i) {
            record& rec = records[i];
            if (!rec.done) continue;
            smt::term_manager& tm = *rec.tm;
            auto t0 = bench_clock::now();
            const std::vector<std::uint8_t> submit =
                service::encode_submit(tm, rec.request_id, rec.request);
            smt::env env;
            for (const auto& b : rec.result.model)
                for (const auto& [name, var] : rec.script.declarations)
                    if (name == b.name) env[var.id] = b.value;
            const std::vector<std::uint8_t> result = service::encode_result(tm, rec.result, env);
            encode_us += 1e3 * ms_since(t0);
            smt::term_manager scratch;
            t0 = bench_clock::now();
            (void)service::decode_submit(scratch, submit);
            (void)service::decode_result(result);
            decode_us += 1e3 * ms_since(t0);
            nodes += static_cast<double>(dag_nodes(tm, rec.request.assertions));
            ++n;

            // The same request decided directly, on an engine like the
            // daemon's (two threads) but without the cache.
            std::unique_ptr<substrate::smt_engine>& engine = direct[&tm];
            if (!engine) {
                substrate::engine_config cfg;
                cfg.use_cache = false;
                cfg.threads = 2;
                engine = std::make_unique<substrate::smt_engine>(tm, cfg);
            }
            t0 = bench_clock::now();
            (void)engine->solve(rec.request);
            const double direct_ms = ms_since(t0);

            const auto it = trace.requests.find({"tenant:" + tenant_name(stream_[i].tenant),
                                                 rec.request_id});
            if (it == trace.requests.end() || it->second.queue_us < 0 || it->second.service_us < 0)
                continue;
            queue_ms.push_back(it->second.queue_us / 1e3);
            service_ms.push_back(it->second.service_us / 1e3);
            // What the round trip costs beyond queueing and solving: wire,
            // socket hops and the event loop's pick-up of the completion.
            overhead_ms.push_back(rec.rtt_ms - it->second.queue_us / 1e3 - direct_ms);
        }
        if (n > 0) {
            l["service.encode_us"] = encode_us / static_cast<double>(n);
            l["service.decode_us"] = decode_us / static_cast<double>(n);
            l["service.nodes_per_request"] = nodes / static_cast<double>(n);
        }
        if (queue_ms.size() < n) ledger_.fail("daemon trace is missing request spans");
        l["service.queue_wait_ms.p50"] = median(queue_ms);
        l["service.service_ms.p50"] = median(service_ms);
        l["service.loop_overhead_ms.p50"] = median(overhead_ms);
        l["pool.lane_wait_us.p50"] = quantile(trace.lane_wait_us, 0.5);
        l["pool.lane_wait_us.p99"] = quantile(trace.lane_wait_us, 0.99);
        const auto stat = [&](const std::string& k) {
            const auto it = stats.find(k);
            return it == stats.end() ? 0.0 : static_cast<double>(it->second);
        };
        l["service.rejects"] = stat("server.rejected_queue_full");
        const double hits = stat("cache.hits");
        const double lookups = hits + stat("cache.misses");
        l["substrate.cache_hit_ratio"] = lookups > 0 ? hits / lookups : 0.0;
        l["substrate.solver_runs"] =
            stat("tenant." + tenant_name(0) + ".completed") + stat("tenant." + tenant_name(1) + ".completed");
    }

    static std::string tenant_name(unsigned index) { return "t" + std::to_string(index); }

    const options& opt_;
    ledger& ledger_;
    std::vector<mix_request> stream_;
};

}  // namespace

std::unique_ptr<workload> make_daemon_mix(const options& opt, ledger& led) {
    return std::make_unique<daemon_mix_workload>(opt, led);
}

double cached_solve_us(std::uint64_t seed) {
    const std::vector<mix_request> stream = generate_daemon_mix(seed, 200);
    auto cache = std::make_shared<substrate::query_cache>(std::string{});
    smt::term_manager tm_a;
    smt::term_manager tm_b;
    substrate::engine_config cfg;
    cfg.threads = 1;
    cfg.shared_cache = cache;
    substrate::smt_engine first(tm_a, cfg);
    substrate::smt_engine second(tm_b, cfg);
    std::vector<double> hit_us;
    for (const mix_request& m : stream) {
        if (m.kind != mix_request::klass::repeat) continue;
        const frontend::script original =
            frontend::parse_script(stream[static_cast<std::size_t>(m.repeat_of)].smt2, tm_a);
        (void)first.solve({original.assertions, {}, substrate::strategy::single()});
        const frontend::script renamed = frontend::parse_script(m.smt2, tm_b);
        const std::uint64_t hits = second.stats().cache_hits;
        const auto t0 = bench_clock::now();
        (void)second.solve({renamed.assertions, {}, substrate::strategy::single()});
        const double us = 1e3 * ms_since(t0);
        if (second.stats().cache_hits > hits) hit_us.push_back(us);
    }
    return median(hit_us);
}

}  // namespace perfbench
