// sciduction_run — standard-format front door to the substrate: decides one
// DIMACS CNF (.cnf) or QF_BV SMT-LIB2 (.smt2) file through the strategy
// layer and prints the verdict in a stable textual form.
//
//   sciduction_run FILE.{cnf,smt2} [--strategy auto|single|portfolio|shard]
//                  [--members N] [--depth N] [--threads N]
//                  [--cache PATH] [--conflict-budget N] [--time-budget MS]
//                  [--no-model] [--reduce] [--inprocess]
//
// Output contract (what tools/run_corpus.py diffs against the goldens):
//   * `s <VERDICT>` lines are the stable part: SATISFIABLE / UNSATISFIABLE /
//     UNKNOWN / MALFORMED, then MODEL-VERIFIED after every sat verdict (the
//     driver re-evaluates the model against every clause / assertion before
//     claiming it). `s ` lines must be identical across strategies.
//   * `v ...` lines carry the model (strategy-dependent: different winners
//     find different models) — excluded from golden diffs.
//   * `c ...` lines are diagnostics (file, strategy, conflicts, cache
//     counters) — also excluded from golden diffs; run_corpus.py checks
//     that `c strategy=<kind>` names the kind the spec asked for.
// Exit codes: 10 sat, 20 unsat, 30 unknown, 0 parsed-but-nothing-to-decide,
// 1 malformed input or usage error (including --threads above
// substrate::max_threads), 2 model verification failure, 3 the verdict
// contradicts the file's (set-info :status ...) annotation.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "frontend/smtlib2.hpp"
#include "sat/dimacs.hpp"
#include "substrate/engine.hpp"
#include "substrate/query_cache.hpp"
#include "substrate/solve_request.hpp"

namespace {

using namespace sciduction;

constexpr int exit_sat = 10;
constexpr int exit_unsat = 20;
constexpr int exit_unknown = 30;
constexpr int exit_parsed_only = 0;
constexpr int exit_malformed = 1;
constexpr int exit_bad_model = 2;
constexpr int exit_status_mismatch = 3;

struct options {
    std::string file;
    std::string strategy_name = "auto";
    std::string cache_path;
    unsigned members = 0;
    unsigned depth = 0;
    unsigned threads = 0;
    std::uint64_t conflict_budget = 0;
    std::uint64_t time_budget_ms = 0;
    bool print_model = true;
    bool reduce = false;     // Glucose clause-DB reduction
    bool inprocess = false;  // restart-boundary inprocessing
};

int usage(const char* argv0) {
    std::cerr << "usage: " << argv0
              << " FILE.{cnf,smt2} [--strategy auto|single|portfolio|shard]"
                 " [--members N] [--depth N] [--threads N (<= "
              << substrate::max_threads
              << ")] [--cache PATH] [--conflict-budget N] [--time-budget MS] [--no-model]"
                 " [--reduce] [--inprocess]\n";
    return exit_malformed;
}

bool parse_strategy(const options& opt, substrate::strategy& strat) {
    const std::string& name = opt.strategy_name;
    if (name == "auto")
        strat = substrate::strategy::automatic();
    else if (name == "single")
        strat = substrate::strategy::single();
    else if (name == "portfolio")
        strat = substrate::strategy::portfolio(opt.members);
    else if (name == "shard")
        strat = substrate::strategy::shard(opt.depth);
    else
        return false;
    if (opt.members > 0) strat.members = opt.members;
    if (opt.depth > 0) strat.depth = opt.depth;
    if (opt.reduce || opt.inprocess) {
        sat::solver_features f;
        f.reduce = opt.reduce;
        f.inprocess = opt.inprocess;
        strat.features = f;
    }
    strat.conflict_budget = opt.conflict_budget;
    strat.time_budget_ms = opt.time_budget_ms;
    return true;
}

const char* verdict_name(substrate::answer a) {
    switch (a) {
        case substrate::answer::sat: return "SATISFIABLE";
        case substrate::answer::unsat: return "UNSATISFIABLE";
        case substrate::answer::unknown: return "UNKNOWN";
    }
    return "UNKNOWN";
}

int exit_for(substrate::answer a) {
    switch (a) {
        case substrate::answer::sat: return exit_sat;
        case substrate::answer::unsat: return exit_unsat;
        case substrate::answer::unknown: return exit_unknown;
    }
    return exit_unknown;
}

/// Checks a verdict against an SMT-LIB2 `:status` annotation; returns the
/// process exit code.
int check_annotation(substrate::answer a, const std::optional<std::string>& expected) {
    if (!expected || a == substrate::answer::unknown) return exit_for(a);
    const bool match = (a == substrate::answer::sat) == (*expected == "sat");
    if (*expected != "sat" && *expected != "unsat") return exit_for(a);  // "unknown" etc.
    if (!match) {
        std::cout << "s STATUS-MISMATCH (file annotates :status " << *expected << ")\n";
        return exit_status_mismatch;
    }
    return exit_for(a);
}

/// Fires the cooperative cancel flag after the wall-clock budget — the
/// CNF path's time budget (the engine path enforces it at the handle).
class watchdog {
public:
    watchdog(std::atomic<bool>& cancel, std::uint64_t ms) : cancel_(cancel) {
        if (ms > 0)
            thread_ = std::thread([this, ms] {
                std::unique_lock<std::mutex> lock(mutex_);
                done_cv_.wait_for(lock, std::chrono::milliseconds(ms),
                                  [this] { return done_; });
                if (!done_) cancel_.store(true);
            });
    }
    ~watchdog() {
        if (thread_.joinable()) {
            {
                std::lock_guard<std::mutex> lock(mutex_);
                done_ = true;
            }
            done_cv_.notify_all();
            thread_.join();
        }
    }

private:
    std::atomic<bool>& cancel_;
    std::mutex mutex_;
    std::condition_variable done_cv_;
    bool done_ = false;
    std::thread thread_;
};

int run_dimacs(const options& opt, const substrate::strategy& strat) {
    sat::dimacs_problem problem;
    try {
        std::ifstream in(opt.file);
        if (!in) throw std::runtime_error("dimacs: cannot open '" + opt.file + "'");
        problem = sat::read_dimacs(in);
    } catch (const std::exception& e) {
        std::cout << "c error: " << e.what() << "\n"
                  << "s MALFORMED\n";
        return exit_malformed;
    }
    std::cout << "c dimacs vars=" << problem.num_vars << " clauses=" << problem.clauses.size()
              << "\n";

    std::unique_ptr<substrate::query_cache> cache;
    if (!opt.cache_path.empty())
        cache = std::make_unique<substrate::query_cache>(opt.cache_path);

    std::atomic<bool> cancel{false};
    substrate::solve_controls controls;
    controls.cancel = &cancel;
    watchdog dog(cancel, opt.time_budget_ms);
    substrate::cnf_outcome out =
        substrate::solve_cnf_dimacs(problem, strat, opt.threads, controls, cache.get());

    std::cout << "c strategy=" << substrate::to_string(out.executed)
              << " conflicts=" << out.total_conflicts << " cache_hit=" << (out.cache_hit ? 1 : 0)
              << "\n";
    if (out.result.reduces > 0 || out.result.inprocessings > 0)
        std::cout << "c reduces=" << out.result.reduces
                  << " inprocessings=" << out.result.inprocessings
                  << " eliminated_vars=" << out.result.eliminated_vars << "\n";
    if (cache) {
        const auto cs = cache->stats();
        std::cout << "c cache hits=" << cs.hits << " insertions=" << cs.insertions
                  << " persisted_loads=" << cs.persisted_loads << "\n";
        cache->save();
    }
    if (out.result.status != substrate::solve_status::ok &&
        out.result.status != substrate::solve_status::cancelled &&
        out.result.status != substrate::solve_status::over_budget) {
        std::cout << "c error: " << out.result.status_detail << "\n"
                  << "s MALFORMED\n";
        return exit_malformed;
    }
    std::cout << "s " << verdict_name(out.result.ans) << "\n";
    if (!out.result.is_sat()) return exit_for(out.result.ans);

    // Verify the model against every parsed clause before claiming it: a
    // clause is violated only when every literal is assigned false (an
    // unassigned variable is unconstrained — either phase completes the
    // model, so it can never violate a clause on its own).
    const auto& model = out.result.sat_model;
    auto lit_false = [&](sat::lit l) {
        const auto v = static_cast<std::size_t>(sat::var_of(l));
        if (v >= model.size() || model[v] == sat::lbool::l_undef) return false;
        const bool value = model[v] == sat::lbool::l_true;
        return value == sat::sign_of(l);
    };
    for (std::size_t i = 0; i < problem.clauses.size(); ++i) {
        bool violated = !problem.clauses[i].empty();
        for (sat::lit l : problem.clauses[i])
            if (!lit_false(l)) {
                violated = false;
                break;
            }
        if (violated) {
            std::cout << "s MODEL-INVALID (clause " << i + 1 << ")\n";
            return exit_bad_model;
        }
    }
    if (opt.print_model) {
        std::cout << "v";
        for (int v = 0; v < problem.num_vars; ++v) {
            const bool neg = static_cast<std::size_t>(v) < model.size() &&
                             model[static_cast<std::size_t>(v)] == sat::lbool::l_false;
            std::cout << ' ' << (neg ? -(v + 1) : v + 1);
        }
        std::cout << " 0\n";
    }
    std::cout << "s MODEL-VERIFIED\n";
    return exit_for(out.result.ans);
}

/// Renders one model value the way (get-model) replies look: #x literals
/// for bit-vectors (width in nibbles, zero-padded), true/false for Bool.
std::string render_value(const smt::term_manager& tm, smt::term var, std::uint64_t value) {
    const unsigned w = tm.width_of(var);
    if (w == 0) return value != 0 ? "true" : "false";
    const unsigned nibbles = (w + 3) / 4;
    char buf[24];
    std::snprintf(buf, sizeof buf, "#x%0*llx", static_cast<int>(nibbles),
                  static_cast<unsigned long long>(value));
    return buf;
}

int run_smtlib2(const options& opt, const substrate::strategy& strat) {
    smt::term_manager tm;
    frontend::script script;
    try {
        script = frontend::parse_script_file(opt.file, tm);
    } catch (const std::exception& e) {
        std::cout << "c error: " << e.what() << "\n"
                  << "s MALFORMED\n";
        return exit_malformed;
    }
    std::cout << "c smtlib2 logic=" << (script.logic.empty() ? "(none)" : script.logic)
              << " assertions=" << script.assertions.size()
              << " declarations=" << script.declarations.size() << "\n";
    if (!script.check_sat) {
        std::cout << "c script has no (check-sat); parsed only\n";
        return exit_parsed_only;
    }

    substrate::engine_config cfg;
    cfg.cache_path = opt.cache_path;
    if (opt.threads > 0) cfg.threads = opt.threads;
    substrate::smt_engine engine(tm, cfg);
    substrate::solve_request req;
    req.assertions = script.assertions;
    req.strategy = strat;
    // The handle path enforces the wall-clock budget; without one the
    // synchronous path avoids spawning workers for single-strategy runs.
    substrate::backend_result res;
    if (opt.time_budget_ms > 0) {
        auto handle = engine.submit(std::move(req));
        res = handle.get();
    } else {
        res = engine.solve(std::move(req));
    }

    // The kind the engine dispatched; a cache hit dispatches nothing and
    // reports `single`, as the CNF path does.
    const auto stats = engine.stats();
    using substrate::strategy_kind;
    const strategy_kind ran = stats.dispatched.portfolio > 0 ? strategy_kind::portfolio
                              : stats.dispatched.shard > 0   ? strategy_kind::shard
                                                             : strategy_kind::single;
    std::cout << "c strategy=" << substrate::to_string(ran) << " conflicts=" << res.conflicts
              << " solver_runs=" << stats.solver_runs << " cache_hit=" << stats.cache_hits
              << "\n";
    if (!opt.cache_path.empty()) {
        std::cout << "c cache hits=" << stats.cache_hits
                  << " persisted_loads=" << engine.cache().stats().persisted_loads << "\n";
        engine.cache().save();
    }
    if (res.status == substrate::solve_status::malformed ||
        res.status == substrate::solve_status::internal) {
        std::cout << "c error: " << res.status_detail << "\n"
                  << "s MALFORMED\n";
        return exit_malformed;
    }
    std::cout << "s " << verdict_name(res.ans) << "\n";
    if (!res.is_sat()) return check_annotation(res.ans, script.expected_status);

    // Verify the model by evaluation: every assertion must evaluate to
    // true under it (unblasted variables default to zero — they were never
    // constrained).
    substrate::model_evaluator eval(tm, res.model);
    for (std::size_t i = 0; i < script.assertions.size(); ++i) {
        if (eval.value(script.assertions[i]) == 0) {
            std::cout << "s MODEL-INVALID (assertion " << i + 1 << ")\n";
            return exit_bad_model;
        }
    }
    if (opt.print_model && (script.get_model || !script.declarations.empty())) {
        for (const auto& [name, var] : script.declarations) {
            const std::uint64_t value = engine.model_value(var, res.model);
            const unsigned w = tm.width_of(var);
            std::cout << "v (define-fun " << name << " () "
                      << (w == 0 ? std::string("Bool") : "(_ BitVec " + std::to_string(w) + ")")
                      << " " << render_value(tm, var, value) << ")\n";
        }
    }
    std::cout << "s MODEL-VERIFIED\n";
    return check_annotation(res.ans, script.expected_status);
}

}  // namespace

int main(int argc, char** argv) {
    options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::cerr << arg << " needs a value\n";
                std::exit(usage(argv[0]));
            }
            return argv[++i];
        };
        if (arg == "--strategy")
            opt.strategy_name = value();
        else if (arg == "--members")
            opt.members = static_cast<unsigned>(std::strtoul(value(), nullptr, 10));
        else if (arg == "--depth")
            opt.depth = static_cast<unsigned>(std::strtoul(value(), nullptr, 10));
        else if (arg == "--threads") {
            const unsigned long threads = std::strtoul(value(), nullptr, 10);
            if (threads > substrate::max_threads) return usage(argv[0]);
            opt.threads = static_cast<unsigned>(threads);
        } else if (arg == "--cache")
            opt.cache_path = value();
        else if (arg == "--conflict-budget")
            opt.conflict_budget = std::strtoull(value(), nullptr, 10);
        else if (arg == "--time-budget")
            opt.time_budget_ms = std::strtoull(value(), nullptr, 10);
        else if (arg == "--no-model")
            opt.print_model = false;
        else if (arg == "--reduce")
            opt.reduce = true;
        else if (arg == "--inprocess")
            opt.inprocess = true;
        else if (arg == "--help" || arg == "-h")
            return usage(argv[0]);
        else if (!arg.empty() && arg[0] == '-')
            return usage(argv[0]);
        else if (opt.file.empty())
            opt.file = arg;
        else
            return usage(argv[0]);
    }
    if (opt.file.empty()) return usage(argv[0]);

    substrate::strategy strat;
    if (!parse_strategy(opt, strat)) return usage(argv[0]);

    std::cout << "c sciduction_run file=" << opt.file << " strategy=" << opt.strategy_name
              << "\n";
    const auto dot = opt.file.rfind('.');
    const std::string ext = dot == std::string::npos ? "" : opt.file.substr(dot);
    if (ext == ".cnf" || ext == ".dimacs") return run_dimacs(opt, strat);
    if (ext == ".smt2") return run_smtlib2(opt, strat);
    std::cerr << "unrecognized input format '" << ext << "' (expected .cnf or .smt2)\n";
    return exit_malformed;
}
