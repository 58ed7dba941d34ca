// perfbench_driver — the measuring half of the repository benchmark (run.py
// builds it and calls it). One invocation runs one workload:
//
//   perfbench_driver --workload corpus|bv_miters|app_loops|daemon_mix
//                    --seed N --seconds S --trace 0|1
//                    --corpus DIR --daemon PATH
//   perfbench_driver --selftest
//
// It repeats passes of the workload's fixed work for S seconds, checking
// every answer, times repetitions of the set-up between passes (set-up time
// is their median), and prints one JSON line: correct / attempted / failed, the
// metrics (end to end with --trace 0; per layer with --trace 1) and a
// `detail` object (sample counts, failures, machine record).
//
// With --trace 1, untraced and traced passes alternate: the traced ones
// record bench-side spans around calls into each layer (written as Chrome
// trace-event JSON to perfbench_trace_<workload>.json) and the per-layer
// numbers; their wall time against the untraced passes' is the tracing
// overhead. Layers the workload does not reach are filled in from one
// traced pass of the workload that does (bv_miters for the solver layers and
// daemon_mix for the service, both on a reduced input set; app_loops, which
// has one fixed size, in full for the applications), so every traced run
// reports every layer.
#include <malloc.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "generators.hpp"
#include "instances.hpp"

namespace perfbench {

namespace {

struct metric_def {
    const char* name;
    const char* unit;
    /// Per-layer metrics: the workload whose probe pass fills the metric in
    /// on workloads that do not reach its layer ("" = always measured).
    const char* home;
};

const metric_def per_layer[] = {
    {"frontend.parse_ms", "ms", "bv_miters"},
    {"frontend.parse_mb_s", "MB/s", "bv_miters"},
    {"smt.blast_ms", "ms", "bv_miters"},
    {"smt.cnf_vars", "count", "bv_miters"},
    {"smt.cnf_clauses", "count", "bv_miters"},
    {"sat.search_ms", "ms", "bv_miters"},
    {"sat.props_per_s", "1/s", "bv_miters"},
    {"sat.conflicts", "count", "bv_miters"},
    {"sat.decisions", "count", "bv_miters"},
    {"sat.propagations", "count", "bv_miters"},
    {"substrate.solve_ms", "ms", "bv_miters"},
    {"substrate.overhead_ms", "ms", "bv_miters"},
    {"substrate.cache_hit_ratio", "ratio", "app_loops"},
    {"substrate.solver_runs", "count", "app_loops"},
    {"substrate.cached_solve_us", "us", ""},
    {"pool.lane_wait_us.p50", "us", "daemon_mix"},
    {"pool.lane_wait_us.p99", "us", "daemon_mix"},
    {"service.encode_us", "us", "daemon_mix"},
    {"service.decode_us", "us", "daemon_mix"},
    {"service.nodes_per_request", "count", "daemon_mix"},
    {"service.queue_wait_ms.p50", "ms", "daemon_mix"},
    {"service.service_ms.p50", "ms", "daemon_mix"},
    {"service.loop_overhead_ms.p50", "ms", "daemon_mix"},
    {"service.rejects", "count", "daemon_mix"},
    {"ogis.s", "s", "app_loops"},
    {"ogis.iterations", "count", "app_loops"},
    {"ogis.oracle_queries", "count", "app_loops"},
    {"gametime.basis_s", "s", "app_loops"},
    {"gametime.learn_s", "s", "app_loops"},
    {"gametime.wcet_s", "s", "app_loops"},
    {"invgen.s", "s", "app_loops"},
    {"invgen.induction_rounds", "count", "app_loops"},
    {"hybrid.s", "s", "app_loops"},
    {"hybrid.simulator_queries", "count", "app_loops"},
    {"bench.trace_overhead_pct", "%", ""},
};

std::unique_ptr<workload> make(const options& opt, ledger& led) {
    if (opt.workload == "corpus") return make_corpus(opt, led);
    if (opt.workload == "bv_miters") return make_bv_miters(opt, led);
    if (opt.workload == "app_loops") return make_app_loops(opt, led);
    if (opt.workload == "daemon_mix") return make_daemon_mix(opt, led);
    throw std::invalid_argument("unknown workload '" + opt.workload + "'");
}

/// Whether a workload's own passes measure `metric` (a layer prefix of the
/// workload matches up to a '.' or '_' boundary).
bool reaches(const std::set<std::string>& prefixes, const std::string& metric) {
    for (const std::string& p : prefixes)
        if (metric.rfind(p, 0) == 0 &&
            (metric.size() == p.size() || metric[p.size()] == '.' || metric[p.size()] == '_'))
            return true;
    return false;
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string json_number(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string json_list(const std::vector<double>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) out += (i ? "," : "") + json_number(values[i]);
    return out + "]";
}

std::string machine_record() {
    std::ifstream in("/proc/loadavg");
    double l1 = 0;
    double l5 = 0;
    double l15 = 0;
    in >> l1 >> l5 >> l15;
    std::ostringstream os;
    os << "{\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"compiler\":" << json_string(PERFBENCH_COMPILER)
       << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE) << ",\"loadavg\":["
       << json_number(l1) << "," << json_number(l5) << "," << json_number(l15) << "]}";
    return os.str();
}

/// Everything a run measured, before it becomes metrics.
struct run_data {
    std::vector<double> setup_s;
    std::vector<double> wall_s;         // untraced passes
    std::vector<double> traced_wall_s;  // traced passes
    std::vector<double> op_ms;          // untraced passes
    std::vector<double> rss_mb;         // per pass, when measured outside this process
    std::vector<layer_sample> layers;   // traced passes
};

run_data measure(workload& w, const options& opt, tracer* tr, std::size_t min_passes) {
    run_data d;
    w.setup();  // the first pass's inputs
    std::vector<double> setups;
    const auto start = bench_clock::now();
    for (std::uint64_t index = 0;; ++index) {
        const bool traced = tr != nullptr && index % 2 == 1;
        pass_outcome p = w.run_pass(index, traced ? tr : nullptr);
        if (p.setup_s >= 0) d.setup_s.push_back(p.setup_s);
        if (p.rss_mb >= 0) d.rss_mb.push_back(p.rss_mb);
        if (traced) {
            d.traced_wall_s.push_back(p.wall_s);
            finish_layers(p.layers);
            d.layers.push_back(std::move(p.layers));
        } else {
            d.wall_s.push_back(p.wall_s);
            d.op_ms.insert(d.op_ms.end(), p.op_ms.begin(), p.op_ms.end());
        }
        // Set-up is cheap next to a pass: time repetitions of it after each
        // pass (for 20 ms, at least three), while the CPU is busy rather
        // than just woken, so the median is its steady cost.
        const auto reps_start = bench_clock::now();
        for (int k = 0; k < 3 || (k < 1000 && seconds_between(reps_start, bench_clock::now()) < 0.02);
             ++k) {
            const auto t0 = bench_clock::now();
            w.setup();
            setups.push_back(seconds_between(t0, bench_clock::now()));
        }
        if (index + 1 >= min_passes && seconds_between(start, bench_clock::now()) >= opt.seconds)
            break;
    }
    // Workloads that set up per pass (a fresh daemon) report it per pass.
    if (d.setup_s.empty()) d.setup_s = std::move(setups);
    return d;
}

/// Median over traced passes of every per-layer key the passes produced.
layer_sample median_layers(const std::vector<layer_sample>& passes) {
    std::map<std::string, std::vector<double>> by_key;
    for (const layer_sample& s : passes)
        for (const auto& [k, v] : s) by_key[k].push_back(v);
    layer_sample out;
    for (const auto& [k, vs] : by_key) out[k] = median(vs);
    return out;
}

int run(const options& opt) {
    ledger led;
    std::unique_ptr<workload> w = make(opt, led);
    tracer collector(1 << 20);
    std::ostringstream metrics;
    std::ostringstream detail;
    bool first = true;
    auto emit = [&](const char* name, double value, const char* unit) {
        metrics << (first ? "" : ",") << json_string(name) << ":{\"value\":" << json_number(value)
                << ",\"unit\":" << json_string(unit) << "}";
        first = false;
    };

    run_data d;
    try {
        d = measure(*w, opt, opt.trace ? &collector : nullptr, opt.trace ? 2 : 3);
    } catch (const std::exception& e) {
        led.fail(std::string("workload aborted: ") + e.what());
    }
    detail << "\"pass_wall_s\":" << json_list(d.wall_s) << ",\"pass_rss_mb\":" << json_list(d.rss_mb)
           << ",\"passes\":" << d.wall_s.size() + d.traced_wall_s.size()
           << ",\"rtt_samples\":" << d.op_ms.size() << ",\"setup_samples\":" << d.setup_s.size();

    if (!opt.trace) {
        double measured_s = 0;
        for (double s : d.wall_s) measured_s += s;
        emit("setup_s", median(d.setup_s), "s");
        emit("wall_s", median(d.wall_s), "s");
        // The peak over the run: this process's high-water mark, or the
        // highest of the per-pass daemons'.
        emit("peak_rss_mb",
             d.rss_mb.empty() ? peak_rss_mb() : *std::max_element(d.rss_mb.begin(), d.rss_mb.end()),
             "MB");
        emit("rtt_p50_ms", quantile(d.op_ms, 0.5), "ms");
        emit("rtt_p99_ms", quantile(d.op_ms, 0.99), "ms");
        emit("throughput_qps", measured_s > 0 ? static_cast<double>(d.op_ms.size()) / measured_s : 0,
             "1/s");
    } else {
        layer_sample layers = median_layers(d.layers);
        // Fill in the layers this workload does not reach from one traced
        // probe pass of each home workload.
        const std::set<std::string> own = w->layers();
        std::set<std::string> homes;
        for (const metric_def& m : per_layer)
            if (*m.home != '\0' && !reaches(own, m.name)) homes.insert(m.home);
        for (const std::string& home : homes) {
            options probe = opt;
            probe.workload = home;
            probe.reduced = true;
            try {
                std::unique_ptr<workload> pw = make(probe, led);
                pw->setup();
                pass_outcome p = pw->run_pass(1, &collector);
                finish_layers(p.layers);
                for (const metric_def& m : per_layer)
                    if (m.home == home && !reaches(own, m.name) && p.layers.count(m.name) != 0)
                        layers[m.name] = p.layers[m.name];
            } catch (const std::exception& e) {
                led.fail("probe " + home + " aborted: " + e.what());
            }
            detail << ",\"probe_" << home << "\":true";
        }
        layers["substrate.cached_solve_us"] = cached_solve_us(opt.seed);
        const double untraced = median(d.wall_s);
        layers["bench.trace_overhead_pct"] =
            untraced > 0 ? 100.0 * (median(d.traced_wall_s) / untraced - 1.0) : 0.0;
        for (const metric_def& m : per_layer) {
            if (layers.count(m.name) == 0) led.fail(std::string("per-layer metric missing: ") + m.name);
            emit(m.name, layer_value(layers, m.name), m.unit);
        }
        const std::string trace_path = "perfbench_trace_" + opt.workload + ".json";
        std::ofstream(trace_path) << collector.to_json();
        detail << ",\"trace_file\":" << json_string(trace_path)
               << ",\"trace_dropped\":" << collector.dropped();
    }

    const std::uint64_t attempted = led.attempted();
    const std::uint64_t failed = led.failed();
    detail << ",\"failed_frac\":"
           << json_number(attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 1.0)
           << ",\"failures\":[";
    const std::vector<std::string> failures = led.failures();
    for (std::size_t i = 0; i < failures.size(); ++i)
        detail << (i ? "," : "") << json_string(failures[i]);
    detail << "],\"machine\":" << machine_record();
    std::cout << "{\"correct\":" << (failed == 0 && attempted > 0 ? "true" : "false")
              << ",\"attempted\":" << std::max<std::uint64_t>(attempted, 1)
              << ",\"failed\":" << (attempted > 0 ? failed : 1) << ",\"metrics\":{"
              << metrics.str() << "},\"detail\":{" << detail.str() << "}}" << std::endl;
    return 0;
}

/// The generators' contract: pure functions of the seed, and every
/// generated instance's status known by construction (decided here).
int selftest(const options& opt) {
    int bad = 0;
    auto expect = [&](bool ok, const std::string& what) {
        if (!ok) {
            std::cout << "selftest FAILED: " << what << "\n";
            ++bad;
        }
    };
    auto miter_bytes = [](std::uint64_t seed, bool reduced) {
        std::string all;
        for (const miter& m : generate_bv_miters(seed, reduced)) all += m.smt2;
        return all;
    };
    auto mix_bytes = [](std::uint64_t seed) {
        std::string all;
        for (const mix_request& m : generate_daemon_mix(seed, 200)) all += m.smt2;
        return all;
    };
    for (const std::uint64_t seed : {1ULL, 2ULL, 977ULL}) {
        expect(miter_bytes(seed, false) == miter_bytes(seed, false),
               "bv_miters not byte-identical for seed " + std::to_string(seed));
        expect(mix_bytes(seed) == mix_bytes(seed),
               "daemon_mix not byte-identical for seed " + std::to_string(seed));
        expect(miter_bytes(seed, false) != miter_bytes(seed + 1, false),
               "bv_miters equal for seeds " + std::to_string(seed) + " and +1");
        expect(mix_bytes(seed) != mix_bytes(seed + 1),
               "daemon_mix equal for seeds " + std::to_string(seed) + " and +1");
    }
    for (const bool reduced : {false, true})
        for (const miter& m : generate_bv_miters(opt.seed, reduced)) {
            const verdict v = decide_smt2(m.smt2, nullptr, nullptr);
            expect(v.error.empty() && (v.ans == sciduction::substrate::answer::sat) == m.expect_sat,
                   m.family + " w" + std::to_string(m.width) + ": status differs from construction " +
                       v.error);
        }
    std::size_t repeats = 0;
    for (const mix_request& m : generate_daemon_mix(opt.seed, 200)) {
        const verdict v = decide_smt2(m.smt2, nullptr, nullptr);
        expect(v.error.empty() && (v.ans == sciduction::substrate::answer::sat) == m.expect_sat,
               "daemon_mix request: status differs from construction " + v.error);
        repeats += m.kind == mix_request::klass::repeat ? 1 : 0;
    }
    expect(repeats >= 30, "daemon_mix has too few repeats");
    expect(cached_solve_us(opt.seed) > 0, "renamed repeats do not hit the structural cache");
    std::cout << (bad == 0 ? "selftest ok" : "selftest failed") << std::endl;
    return bad == 0 ? 0 : 1;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
    std::signal(SIGPIPE, SIG_IGN);
    // One malloc arena for every thread of this process. With glibc's
    // per-thread arenas, how many arenas the engines' worker threads made and
    // filled depended on scheduling, and the peak RSS of app_loops moved
    // between 8.7 and 13 MB from run to run of the same work. The daemon
    // that daemon_mix starts keeps glibc's default.
    mallopt(M_ARENA_MAX, 1);
    perfbench::options opt;
    bool self = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
            return argv[++i];
        };
        try {
            if (arg == "--workload")
                opt.workload = value();
            else if (arg == "--seed")
                opt.seed = std::stoull(value());
            else if (arg == "--seconds")
                opt.seconds = std::stod(value());
            else if (arg == "--trace")
                opt.trace = value() != "0";
            else if (arg == "--corpus")
                opt.corpus_dir = value();
            else if (arg == "--daemon")
                opt.daemon_bin = value();
            else if (arg == "--selftest")
                self = true;
            else
                throw std::invalid_argument("unknown argument " + arg);
        } catch (const std::exception& e) {
            std::cerr << "perfbench_driver: " << e.what() << "\n";
            return 2;
        }
    }
    if (self) return perfbench::selftest(opt);
    try {
        return perfbench::run(opt);
    } catch (const std::exception& e) {
        std::cerr << "perfbench_driver: " << e.what() << "\n";
        return 2;
    }
}
