// sciductiond — the long-lived solver service. Listens on a unix-domain
// socket, multiplexes tenant sessions over one shared worker pool and one
// persistent structural query cache, and drains gracefully on SIGTERM
// (finish in-flight solves, save the cache, exit). See docs/SERVING.md.
//
// Usage:
//   sciductiond --socket /run/sciduction.sock [--cache /var/cache/sciduction.qc]
//               [--threads N] [--queue-depth N] [--cache-capacity N]
//               [--trace-out PATH] [--trace-capacity N]
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>

#include "service/server.hpp"
#include "substrate/thread_pool.hpp"

namespace {

sciduction::service::server* g_server = nullptr;

void on_signal(int) {
    if (g_server != nullptr) g_server->request_stop();
}

int usage(const char* argv0) {
    std::cerr << "usage: " << argv0
              << " --socket PATH [--cache PATH] [--threads N (<= "
              << sciduction::substrate::max_threads
              << ")] [--queue-depth N] [--cache-capacity N] [--trace-out PATH]"
                 " [--trace-capacity N]\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    sciduction::service::server_config cfg;
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
            cfg.socket_path = value();
        else if (arg == "--cache")
            cfg.cache_path = value();
        else if (arg == "--threads") {
            // A thread count the engine would refuse: reject it before the
            // server (and its pool) exist.
            const unsigned long threads = std::strtoul(value(), nullptr, 10);
            if (threads > sciduction::substrate::max_threads) {
                usage(argv[0]);
                return 1;
            }
            cfg.threads = static_cast<unsigned>(threads);
        } else if (arg == "--queue-depth")
            cfg.queue_depth = std::strtoul(value(), nullptr, 10);
        else if (arg == "--cache-capacity")
            cfg.cache_capacity = std::strtoul(value(), nullptr, 10);
        else if (arg == "--trace-out")
            cfg.trace_out = value();
        else if (arg == "--trace-capacity")
            cfg.trace_capacity = std::strtoul(value(), nullptr, 10);
        else
            return usage(argv[0]);
    }
    if (cfg.socket_path.empty()) return usage(argv[0]);

    try {
        sciduction::service::server daemon(cfg);
        g_server = &daemon;
        std::signal(SIGTERM, on_signal);
        std::signal(SIGINT, on_signal);
        std::signal(SIGPIPE, SIG_IGN);
        std::cout << "sciductiond: serving on " << cfg.socket_path << "\n" << std::flush;
        const std::uint64_t served = daemon.run();
        g_server = nullptr;
        std::cout << "sciductiond: drained after " << served << " requests\n";
    } catch (const std::exception& e) {
        std::cerr << "sciductiond: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
