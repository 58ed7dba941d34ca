// sciduction_client — CLI driver for sciductiond, used by CI and for
// manual poking. Each mode opens one tenant session:
//
//   sciduction_client --socket PATH burst N     submit N tiny distinct
//                                               queries, await all, print
//                                               per-request one-liners
//   sciduction_client --socket PATH greedy      submit one hard sharded
//                                               refutation and await it
//   sciduction_client --socket PATH stats [POLLS [INTERVAL_MS]]
//                                               print daemon counters as
//                                               `key value` lines, grouped
//                                               by subsystem; with POLLS > 1,
//                                               re-poll and append +deltas
//   sciduction_client --socket PATH top [POLLS [INTERVAL_MS]]
//                                               live full-screen view: key
//                                               gauges + per-tenant table
//   sciduction_client --socket PATH trace [OUT] fetch the daemon's span
//                                               trace (Chrome JSON) to OUT
//                                               or stdout
//   sciduction_client --socket PATH drain       drain (finish policy) and
//                                               wait for the ack
//
// Optional: --tenant NAME (default per mode), --weight W.
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "service/client.hpp"
#include "smt/term.hpp"

namespace {

using namespace sciduction;

int usage(const char* argv0) {
    std::cerr << "usage: " << argv0
              << " --socket PATH [--tenant NAME] [--weight W]"
                 " burst N|greedy [WIDTH]|stats [POLLS [INTERVAL_MS]]|"
                 "top [POLLS [INTERVAL_MS]]|trace [OUT]|drain\n";
    return 2;
}

const char* describe(substrate::answer a) {
    switch (a) {
        case substrate::answer::sat: return "sat";
        case substrate::answer::unsat: return "unsat";
        case substrate::answer::unknown: return "unknown";
    }
    return "?";
}

int run_burst(service::client& cli, smt::term_manager& tm, unsigned n) {
    smt::term x = tm.mk_bv_var("x", 16);
    std::vector<std::uint64_t> ids;
    for (unsigned i = 0; i < n; ++i) {
        substrate::solve_request req;
        req.assertions = {tm.mk_eq(x, tm.mk_bv_const(16, i)),
                          tm.mk_ult(x, tm.mk_bv_const(16, n))};
        req.strategy = substrate::strategy::single();
        const service::submit_outcome out = cli.submit(req);
        if (!out.accepted) {
            std::cerr << "request " << out.request_id << " rejected: " << out.detail << "\n";
            return 1;
        }
        ids.push_back(out.request_id);
    }
    for (std::uint64_t id : ids) {
        const service::result_message r = cli.await(id);
        std::cout << "request " << id << ": " << describe(r.ans) << " status "
                  << substrate::to_string(r.status) << " finish_seq " << r.finish_seq
                  << (r.cache_hit ? " (cache hit)" : "") << "\n";
        if (r.ans != substrate::answer::sat) return 1;
    }
    return 0;
}

int run_greedy(service::client& cli, smt::term_manager& tm, unsigned width) {
    // A multiplier-backed refutation hard enough to keep the pool busy:
    // x * (y + y) == x*y + x*y always holds, so its negation shards into
    // all-UNSAT cubes. Width sets the difficulty (12 ~ seconds, 14 ~ minutes).
    smt::term x = tm.mk_bv_var("x", width);
    smt::term y = tm.mk_bv_var("y", width);
    substrate::solve_request req;
    req.assertions = {
        tm.mk_distinct(tm.mk_bvmul(x, tm.mk_bvadd(y, y)),
                       tm.mk_bvadd(tm.mk_bvmul(x, y), tm.mk_bvmul(x, y)))};
    req.strategy = substrate::strategy::shard(2);
    const service::submit_outcome out = cli.submit(req);
    if (!out.accepted) {
        std::cerr << "greedy request rejected: " << out.detail << "\n";
        return 1;
    }
    const service::result_message r = cli.await(out.request_id);
    std::cout << "greedy: " << describe(r.ans) << " status " << substrate::to_string(r.status)
              << " conflicts " << r.conflicts << " finish_seq " << r.finish_seq << "\n";
    return r.ans == substrate::answer::unsat ? 0 : 1;
}

/// The subsystem a dotted counter name belongs to (its first segment).
std::string group_of(const std::string& key) {
    const std::size_t dot = key.find('.');
    return dot == std::string::npos ? std::string("misc") : key.substr(0, dot);
}

/// Grouped `key value` listing; with `prev` set, appends the delta since
/// the previous poll as a third ` (+N)` column.
void print_stats(const std::map<std::string, std::uint64_t>& stats,
                 const std::map<std::string, std::uint64_t>* prev) {
    std::string group;
    for (const auto& [key, val] : stats) {
        if (const std::string g = group_of(key); g != group) {
            group = g;
            std::cout << "[" << group << "]\n";
        }
        std::cout << "  " << key << " " << val;
        if (prev != nullptr) {
            const auto it = prev->find(key);
            const std::uint64_t before = it == prev->end() ? 0 : it->second;
            if (val >= before && val != before) std::cout << " (+" << (val - before) << ")";
        }
        std::cout << "\n";
    }
}

int run_stats(service::client& cli, unsigned polls, unsigned interval_ms) {
    std::map<std::string, std::uint64_t> prev;
    for (unsigned i = 0; i < polls; ++i) {
        if (i != 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
            std::cout << "\n---- poll " << (i + 1) << " ----\n";
        }
        const std::map<std::string, std::uint64_t> stats = cli.stats();
        print_stats(stats, i == 0 ? nullptr : &prev);
        prev = stats;
    }
    return 0;
}

int run_top(service::client& cli, unsigned polls, unsigned interval_ms) {
    auto val = [](const std::map<std::string, std::uint64_t>& s, const std::string& k) {
        const auto it = s.find(k);
        return it == s.end() ? std::uint64_t{0} : it->second;
    };
    for (unsigned i = 0; polls == 0 || i < polls; ++i) {
        if (i != 0) std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
        const std::map<std::string, std::uint64_t> s = cli.stats();
        std::cout << "\033[2J\033[H";  // clear screen, home cursor
        std::cout << "sciductiond  inflight " << val(s, "server.inflight") << "  queued "
                  << val(s, "server.queued") << "  results " << val(s, "server.results")
                  << "  threads " << val(s, "pool.threads") << "\n";
        std::cout << "cache hits " << val(s, "cache.hits") << " misses " << val(s, "cache.misses")
                  << "   trace dropped " << val(s, "trace.dropped") << "\n";
        std::cout << "service_ms p50 " << val(s, "server.service_ms.p50") << " p90 "
                  << val(s, "server.service_ms.p90") << " p99 " << val(s, "server.service_ms.p99")
                  << "   queue_wait_ms p99 " << val(s, "server.queue_wait_ms.p99") << "\n\n";
        // Per-tenant table from the tenant.<name>.<field> keys.
        std::map<std::string, std::map<std::string, std::uint64_t>> tenants;
        for (const auto& [key, v] : s) {
            if (key.rfind("tenant.", 0) != 0) continue;
            const std::size_t dot = key.rfind('.');
            const std::string name = key.substr(7, dot - 7);
            tenants[name][key.substr(dot + 1)] = v;
        }
        std::cout << "tenant                queries  completed  cache_hits  conflicts\n";
        for (const auto& [name, fields] : tenants) {
            auto f = [&](const char* k) {
                const auto it = fields.find(k);
                return it == fields.end() ? std::uint64_t{0} : it->second;
            };
            std::cout << name;
            for (std::size_t pad = name.size(); pad < 22; ++pad) std::cout << ' ';
            std::cout << f("queries") << "  " << f("completed") << "  " << f("cache_hits") << "  "
                      << f("conflicts") << "\n";
        }
        std::cout << std::flush;
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    std::string socket_path;
    std::string tenant;
    unsigned weight = 1;
    std::vector<std::string> mode;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::cerr << arg << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--socket")
            socket_path = value();
        else if (arg == "--tenant")
            tenant = value();
        else if (arg == "--weight")
            weight = static_cast<unsigned>(std::strtoul(value(), nullptr, 10));
        else
            mode.push_back(arg);
    }
    if (socket_path.empty() || mode.empty()) return usage(argv[0]);

    try {
        smt::term_manager tm;
        if (mode[0] == "burst") {
            if (mode.size() != 2) return usage(argv[0]);
            service::client cli(tm, socket_path, tenant.empty() ? "burst" : tenant, weight);
            return run_burst(cli, tm,
                             static_cast<unsigned>(std::strtoul(mode[1].c_str(), nullptr, 10)));
        }
        if (mode[0] == "greedy") {
            if (mode.size() > 2) return usage(argv[0]);
            const unsigned width =
                mode.size() == 2
                    ? static_cast<unsigned>(std::strtoul(mode[1].c_str(), nullptr, 10))
                    : 12;
            if (width < 4 || width > 32) return usage(argv[0]);
            service::client cli(tm, socket_path, tenant.empty() ? "greedy" : tenant, weight);
            return run_greedy(cli, tm, width);
        }
        if (mode[0] == "stats" || mode[0] == "top") {
            if (mode.size() > 3) return usage(argv[0]);
            const bool is_top = mode[0] == "top";
            const unsigned polls =
                mode.size() >= 2
                    ? static_cast<unsigned>(std::strtoul(mode[1].c_str(), nullptr, 10))
                    : (is_top ? 0u : 1u);
            const unsigned interval_ms =
                mode.size() == 3
                    ? static_cast<unsigned>(std::strtoul(mode[2].c_str(), nullptr, 10))
                    : 1000u;
            service::client cli(tm, socket_path, tenant.empty() ? mode[0] : tenant, weight);
            return is_top ? run_top(cli, polls, interval_ms)
                          : run_stats(cli, polls == 0 ? 1 : polls, interval_ms);
        }
        if (mode[0] == "trace") {
            if (mode.size() > 2) return usage(argv[0]);
            service::client cli(tm, socket_path, tenant.empty() ? "trace" : tenant, weight);
            const std::string json = cli.trace();
            if (mode.size() == 2) {
                std::ofstream out(mode[1], std::ios::trunc);
                if (!out) {
                    std::cerr << "cannot write " << mode[1] << "\n";
                    return 1;
                }
                out << json;
                std::cout << "trace written to " << mode[1] << "\n";
            } else {
                std::cout << json << "\n";
            }
            return 0;
        }
        if (mode[0] == "drain") {
            service::client cli(tm, socket_path, tenant.empty() ? "drain" : tenant, weight);
            cli.drain(service::drain_policy::finish);
            std::cout << "drained\n";
            return 0;
        }
        return usage(argv[0]);
    } catch (const std::exception& e) {
        std::cerr << "sciduction_client: " << e.what() << "\n";
        return 1;
    }
}
