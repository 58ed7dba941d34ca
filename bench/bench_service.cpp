// Serving overhead: what a round-trip through sciductiond costs on top of
// a direct smt_engine::solve. Each iteration submits one tiny query over
// the unix socket and awaits its result frame, so the number covers DAG
// serialization, the event loop's wake and dispatch, the solve, and the
// result frame — the per-query price of process isolation and
// multi-tenancy.
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <thread>

#include "service/client.hpp"
#include "service/server.hpp"
#include "smt/term.hpp"
#include "substrate/engine.hpp"

namespace {

using namespace sciduction;
using namespace std::chrono_literals;

substrate::solve_request tiny_request(smt::term_manager& tm, std::uint64_t i) {
    smt::term x = tm.mk_bv_var("x", 16);
    substrate::solve_request req;
    req.assertions = {tm.mk_eq(x, tm.mk_bv_const(16, i)),
                      tm.mk_ult(x, tm.mk_bv_const(16, 1u << 15))};
    req.strategy = substrate::strategy::single();
    req.strategy.use_cache = false;
    return req;
}

void bm_direct_solve(benchmark::State& state) {
    smt::term_manager tm;
    substrate::smt_engine engine(tm, {.threads = 2});
    std::uint64_t i = 0;
    for (auto _ : state) {
        const substrate::backend_result r = engine.solve(tiny_request(tm, i++ % 1000));
        benchmark::DoNotOptimize(r.ans);
    }
}
BENCHMARK(bm_direct_solve)->Unit(benchmark::kMicrosecond);

void bm_daemon_round_trip(benchmark::State& state) {
    const std::string socket_path =
        "/tmp/sciduction_bench_" + std::to_string(::getpid()) + ".sock";
    service::server daemon({.socket_path = socket_path, .threads = 2});
    std::thread serving([&] { daemon.run(); });
    while (!daemon.serving()) std::this_thread::sleep_for(1ms);
    {
        smt::term_manager tm;
        service::client cli(tm, socket_path, "bench");
        std::uint64_t i = 0;
        for (auto _ : state) {
            const service::submit_outcome out = cli.submit(tiny_request(tm, i++ % 1000));
            const service::result_message r = cli.await(out.request_id);
            benchmark::DoNotOptimize(r.finish_seq);
        }
    }
    daemon.request_stop();
    serving.join();
}
BENCHMARK(bm_daemon_round_trip)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
