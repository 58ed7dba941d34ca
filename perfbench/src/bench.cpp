#include "bench.hpp"

#include <fstream>
#include <string>

namespace perfbench {

double peak_rss_mb(int pid) {
    std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                              : "/proc/" + std::to_string(pid) + "/status");
    std::string key;
    while (in >> key) {
        if (key == "VmHWM:") {
            double kb = 0;
            in >> kb;
            return kb / 1024.0;
        }
        std::getline(in, key);
    }
    return 0.0;
}

void finish_layers(layer_sample& s) {
    const double parse_ms = layer_value(s, "frontend.parse_ms");
    if (parse_ms > 0) s["frontend.parse_mb_s"] = layer_value(s, "frontend.bytes") / 1e6 / (parse_ms / 1e3);
    const double search_ms = layer_value(s, "sat.search_ms");
    if (search_ms > 0) s["sat.props_per_s"] = layer_value(s, "sat.propagations") / (search_ms / 1e3);
    if (s.count("substrate.solve_ms") != 0)
        s["substrate.overhead_ms"] = layer_value(s, "substrate.solve_ms") -
                                     layer_value(s, "smt.blast_ms") - search_ms;
    if (s.count("substrate.cache_hit_ratio") == 0 && s.count("substrate.solver_runs") != 0) {
        const double hits = layer_value(s, "substrate.cache_hits");
        const double lookups = hits + layer_value(s, "substrate.solver_runs");
        s["substrate.cache_hit_ratio"] = lookups > 0 ? hits / lookups : 0.0;
    }
    for (const char* helper : {"frontend.bytes", "substrate.cache_hits", "bench.replay_ms"})
        s.erase(helper);
}

}  // namespace perfbench
