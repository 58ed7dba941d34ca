// Shared plumbing of the benchmark driver: clocks and order statistics,
// the per-pass record every workload returns, the answer-check ledger, and
// the bench-side tracer that wraps calls into the library's layers.
//
// Tracing stays outside the program: spans are recorded here, around calls
// into each layer's public functions, into an obs::trace_collector owned by
// the driver and written out as Chrome trace-event JSON after the run.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

namespace obs = sciduction::obs;

using bench_clock = std::chrono::steady_clock;

inline double seconds_between(bench_clock::time_point from, bench_clock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
}
inline double ms_since(bench_clock::time_point from) {
    return 1e3 * seconds_between(from, bench_clock::now());
}

/// Linear-interpolation quantile (numpy's default); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set (VmHWM) of a process in MB; `pid` 0 = this process.
double peak_rss_mb(int pid = 0);

/// Layer metrics of one traced pass, by per-layer metric name. Workloads add
/// raw sums here; finish_layers() derives the rates and differences.
using layer_sample = std::map<std::string, double>;

/// `s[key]`, or 0 when the key is absent.
inline double layer_value(const layer_sample& s, const std::string& key) {
    const auto it = s.find(key);
    return it == s.end() ? 0.0 : it->second;
}

/// Derives the ratio metrics of a pass from its raw sums (parse throughput,
/// propagation rate, substrate overhead) and drops the helper keys.
void finish_layers(layer_sample& s);

/// Every answer the benchmark checks goes through here; any failure makes
/// the run invalid. Thread-safe (the daemon workload checks from its
/// client threads).
class ledger {
public:
    void ok() {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++attempted_;
    }
    void fail(const std::string& why) {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++attempted_;
        ++failed_;
        if (failures_.size() < 8) failures_.push_back(why);
    }
    /// Records one checked op: ok() when `good`, else fail(why).
    void check(bool good, const std::string& why) { good ? ok() : fail(why); }

    [[nodiscard]] std::uint64_t attempted() const {
        const std::lock_guard<std::mutex> lock(mutex_);
        return attempted_;
    }
    [[nodiscard]] std::uint64_t failed() const {
        const std::lock_guard<std::mutex> lock(mutex_);
        return failed_;
    }
    [[nodiscard]] std::vector<std::string> failures() const {
        const std::lock_guard<std::mutex> lock(mutex_);
        return failures_;
    }

private:
    mutable std::mutex mutex_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> failures_;
};

/// The bench-side tracer: the driver's span collector. A null pointer
/// means "untraced".
using tracer = obs::trace_collector;

/// Opens a span on `track` (registered on first use) when traced, an inert
/// one otherwise.
inline obs::span maybe_span(tracer* tr, const std::string& track, std::string name) {
    return tr != nullptr ? obs::span(tr, tr->register_track(track), std::move(name)) : obs::span{};
}

/// What one pass of a workload's fixed work produced.
struct pass_outcome {
    double wall_s = 0;             ///< the fixed work (bench-side replays excluded)
    std::vector<double> op_ms;     ///< latency of every op of the pass
    double setup_s = -1;           ///< per-pass set-up (daemon start + hello), if any
    double rss_mb = -1;            ///< peak RSS measured outside this process, if any
    layer_sample layers;           ///< traced passes only
};

/// Command-line options every workload sees.
struct options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string corpus_dir;
    std::string daemon_bin;
    /// Shrinks the fixed work of bv_miters and daemon_mix for the probes a
    /// traced run uses to fill in the layers its workload does not reach
    /// (app_loops has one fixed size and ignores it).
    bool reduced = false;
};

/// One workload: set-up, then repeated passes of a fixed amount of work.
class workload {
public:
    virtual ~workload() = default;
    /// Prepares the inputs; called once before the first pass and then
    /// repeatedly between passes (set-up time is the median). Workloads that
    /// set up per pass (a fresh daemon) do nothing here and report
    /// pass_outcome::setup_s instead.
    virtual void setup() = 0;
    /// One pass of the fixed work; `tr` null = untraced.
    virtual pass_outcome run_pass(std::uint64_t index, tracer* tr) = 0;
    /// Per-layer metric prefixes this workload's own passes measure.
    [[nodiscard]] virtual std::set<std::string> layers() const = 0;
};

std::unique_ptr<workload> make_corpus(const options& opt, ledger& led);
std::unique_ptr<workload> make_bv_miters(const options& opt, ledger& led);
std::unique_ptr<workload> make_app_loops(const options& opt, ledger& led);
std::unique_ptr<workload> make_daemon_mix(const options& opt, ledger& led);

/// substrate.cached_solve_us: median time of an smt_engine::solve answered
/// from the cache, over the daemon_mix repeat class replayed in-process
/// (the original solved by one engine, its renamed repeat by another
/// engine on the same shared cache — the structural path the daemon's
/// tenants share).
double cached_solve_us(std::uint64_t seed);

}  // namespace perfbench
