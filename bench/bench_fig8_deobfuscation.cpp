// Reproduces paper Fig. 8: oracle-guided deobfuscation of P1 (interchange)
// and P2 (multiply-by-45), plus the extra bit-trick benchmarks. The report
// prints each resynthesized program with its statistics (the paper reports
// "both programs were deobfuscated in less than half a second"); the
// registered benchmarks time synthesis per width so the solver-scaling
// shape is visible.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "ogis/benchmarks.hpp"

namespace {

using namespace sciduction;
using namespace sciduction::ogis;

void print_report() {
    std::printf("=== Fig. 8: program deobfuscation by oracle-guided synthesis ===\n");
    std::printf("%-22s %6s %9s %6s %8s %10s %8s\n", "benchmark", "width", "time(s)", "iters",
                "oracleQ", "conflicts", "status");
    for (const auto& bench : all_benchmarks()) {
        auto outcome = run_benchmark(bench);
        const char* status =
            outcome.status == core::loop_status::success ? "ok" : "FAILED";
        std::printf("%-22s %6u %9.3f %6d %8llu %10llu %8s\n", bench.name.c_str(),
                    bench.config.width, outcome.stats.elapsed_seconds, outcome.stats.iterations,
                    (unsigned long long)outcome.stats.oracle_queries,
                    (unsigned long long)outcome.stats.conflicts, status);
        if (outcome.program) {
            std::printf("  resynthesized program:\n");
            std::string listing = outcome.program->to_string(bench.config.library);
            // Indent each line.
            std::size_t start = 0;
            while (start < listing.size()) {
                std::size_t end = listing.find('\n', start);
                if (end == std::string::npos) end = listing.size();
                std::printf("    %s\n", listing.substr(start, end - start).c_str());
                start = end + 1;
            }
        }
    }
    std::printf("\n");
}

// Times synthesis of `bench`. Every run repeats the same deterministic
// loop, so the exported counters are the values of one run. (The OGIS
// iteration count is `ogis_iterations`: the JSON output already has an
// `iterations` field, the benchmark's own repetition count.)
void run_synthesis(benchmark::State& state, const deobfuscation_benchmark& bench) {
    for (auto _ : state) {
        auto outcome = run_benchmark(bench);
        if (outcome.status != core::loop_status::success) state.SkipWithError("failed");
        state.counters["ogis_iterations"] = outcome.stats.iterations;
        state.counters["oracle_queries"] = static_cast<double>(outcome.stats.oracle_queries);
        state.counters["conflicts"] = static_cast<double>(outcome.stats.conflicts);
        benchmark::DoNotOptimize(outcome.program);
    }
}

void BM_p1_interchange(benchmark::State& state) {
    auto bench = benchmark_p1_interchange();
    bench.config.width = static_cast<unsigned>(state.range(0));
    run_synthesis(state, bench);
}
BENCHMARK(BM_p1_interchange)->Arg(8)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_p2_multiply45(benchmark::State& state) {
    auto bench = benchmark_p2_multiply45();
    bench.config.width = static_cast<unsigned>(state.range(0));
    run_synthesis(state, bench);
}
BENCHMARK(BM_p2_multiply45)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_bit_tricks(benchmark::State& state) {
    auto benches = all_benchmarks();
    auto bench = benches[static_cast<std::size_t>(state.range(0))];
    bench.config.width = 16;
    run_synthesis(state, bench);
}
BENCHMARK(BM_bit_tricks)->Arg(2)->Arg(3)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    print_report();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
