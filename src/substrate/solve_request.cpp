#include "substrate/solve_request.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "substrate/portfolio.hpp"
#include "substrate/query_cache.hpp"
#include "substrate/thread_pool.hpp"

namespace sciduction::substrate {

const char* to_string(strategy_kind k) {
    switch (k) {
        case strategy_kind::automatic: return "automatic";
        case strategy_kind::single: return "single";
        case strategy_kind::portfolio: return "portfolio";
        case strategy_kind::shard: return "shard";
    }
    return "?";
}

strategy strategy::single() {
    strategy s;
    s.kind = strategy_kind::single;
    return s;
}

strategy strategy::portfolio(unsigned members) {
    strategy s;
    s.kind = strategy_kind::portfolio;
    if (members > 0) s.members = members;
    return s;
}

strategy strategy::shard(unsigned depth) {
    strategy s;
    s.kind = strategy_kind::shard;
    if (depth > 0) s.depth = depth;
    return s;
}

strategy strategy::auto_select(const query_features& f) {
    using t = auto_select_thresholds;
    const unsigned threads = std::max(1u, f.threads);
    // Small instances: the solver startup dominates, any concurrency
    // strategy only adds overhead. Assumption-carrying queries are the
    // incremental shape (same assertions re-checked under varying
    // assumptions): keep the instance single so models stay deterministic.
    if (f.clauses < t::small_clauses && f.variables < t::small_variables) return single();
    if (f.assumptions > 0) return single();
    // Shard depth ~log2(threads), clamped to [1, 2]: the TUNING.md depth rule.
    if (f.clauses >= t::large_clauses) return shard(threads >= 4 ? 2 : 1);
    // A portfolio needs a second core to pay: time-slicing its members on
    // one thread measured slower than the baseline member alone.
    return threads >= 2 ? portfolio() : single();
}

strategy strategy::overriding(strategy pick) const {
    if (members) pick.members = members;
    if (depth) pick.depth = depth;
    if (probe_candidates) pick.probe_candidates = probe_candidates;
    if (features) pick.features = features;
    if (use_cache) pick.use_cache = use_cache;
    pick.conflict_budget = conflict_budget;
    pick.slice_conflicts = slice_conflicts;
    pick.time_budget_ms = time_budget_ms;
    return pick;
}

resolved_strategy strategy::resolve() const {
    resolved_strategy r;
    r.kind = kind;
    if (members) r.members = *members;
    if (depth) r.depth = *depth;
    if (probe_candidates) r.probe_candidates = *probe_candidates;
    if (features) r.features = *features;
    if (use_cache) r.use_cache = *use_cache;
    r.conflict_budget = conflict_budget;
    r.slice_conflicts = slice_conflicts;
    r.time_budget_ms = time_budget_ms;
    // Normalize degenerate combinations: a 1-member portfolio and a shard
    // of no split variables *are* single solves. `automatic` keeps its
    // kind — classify picks once the prototype exists — but its fields
    // are resolved so explicit per-request settings survive the pick.
    if ((r.kind == strategy_kind::portfolio && r.members <= 1) ||
        (r.kind == strategy_kind::shard && r.depth == 0))
        r.kind = strategy_kind::single;
    return r;
}

std::string strategy::validate() const {
    if (members && *members == 0) return "strategy.members must be >= 1 (0-member portfolio)";
    if (members && *members > 1024) return "strategy.members must be <= 1024";
    if (depth && *depth > 12)
        return "strategy.depth must be <= 12 (the cube generator's clamp)";
    if (probe_candidates && *probe_candidates == 0)
        return "strategy.probe_candidates must be >= 1";
    return {};
}

std::string solve_request::validate() const {
    for (smt::term t : assertions)
        if (!t.valid()) return "assertion is an invalid (default-constructed) term";
    for (smt::term t : assumptions)
        if (!t.valid()) return "assumption is an invalid (default-constructed) term";
    return strategy.validate();
}

resolved_strategy classify(const strategy& requested, const sat::solver& prototype,
                           std::size_t assumptions, unsigned threads) {
    query_features f;
    f.variables = static_cast<std::size_t>(prototype.num_vars());
    f.clauses = prototype.num_clauses();
    f.assumptions = assumptions;
    f.threads = threads == 0 ? default_concurrency() : threads;
    return requested.overriding(strategy::auto_select(f)).resolve();
}

dispatch_outcome execute(const resolved_strategy& rs, std::unique_ptr<solver_backend> prototype,
                         const instance_factory& make, thread_pool* pool, unsigned threads,
                         const solve_controls& controls) {
    // Member 0's options are the baseline: the prototype, a single solve,
    // portfolio member 0 and every shard replica are built with them.
    const sat::solver_options baseline = sat::apply_features({}, rs.features);
    if (!prototype && rs.kind != strategy_kind::portfolio) prototype = make(0, baseline);
    dispatch_outcome out;
    if (rs.kind == strategy_kind::portfolio) {
        const portfolio_config pcfg{
            .members = rs.members, .threads = threads, .slice_conflicts = rs.slice_conflicts};
        auto factory = [&](unsigned member) -> std::unique_ptr<solver_backend> {
            if (member == 0 && prototype) return std::move(prototype);
            return make(member, sat::apply_features(diversified_options(member), rs.features));
        };
        portfolio_outcome race_out = race(factory, pcfg, pool, controls);
        out.result = std::move(race_out.result);
        out.winner = race_out.winner;
        out.total_conflicts = race_out.total_conflicts;
        out.rounds = race_out.rounds;
        out.instances = rs.members;
        return out;
    }
    if (rs.kind == strategy_kind::shard) {
        // Lookahead on the prototype picks the split variables, then the
        // cube tree is dispatched across the pool. The cube count is
        // published first: progress readers poll it mid-flight.
        prototype->prepare();
        cube_plan plan = generate_cubes(
            *prototype->sat_core(), {.depth = rs.depth, .probe_candidates = rs.probe_candidates});
        if (controls.progress != nullptr)
            controls.progress->total.store(plan.cubes.size(), std::memory_order_relaxed);
        std::unique_ptr<thread_pool> transient;
        if (pool == nullptr) {
            transient =
                std::make_unique<thread_pool>(threads == 0 ? default_concurrency() : threads);
            pool = transient.get();
        }
        std::atomic<std::uint64_t> replicas{0};
        shard_outcome shard_out = solve_cubes(
            [&](std::size_t) {
                replicas.fetch_add(1, std::memory_order_relaxed);
                return make(0, baseline);
            },
            plan, *pool, rs.slice_conflicts, controls);
        out.result = std::move(shard_out.result);
        out.total_conflicts = shard_out.stats.conflicts;
        out.rounds = shard_out.stats.rounds;
        out.shard = shard_out.stats;
        out.instances = replicas.load(std::memory_order_relaxed);
        return out;
    }
    sat::solver* core = prototype->sat_core();
    if (controls.conflict_budget != 0 && core != nullptr)
        core->set_conflict_pause(core->stats().conflicts + controls.conflict_budget);
    out.result = prototype->check(controls.cancel);
    out.total_conflicts = out.result.conflicts;
    out.instances = 1;
    return out;
}

cnf_outcome solve_cnf(const cnf_builder& build, const strategy& strat, unsigned threads,
                      const solve_controls& controls, query_cache* cache) {
    std::string err = strat.validate();
    if (err.empty() && threads > max_threads)
        err = "threads must be <= " + std::to_string(max_threads);
    if (!err.empty()) {
        // The regular error model: malformed requests are reported through
        // solve_status, never thrown (exceptions = programming errors only).
        cnf_outcome out;
        out.result.status = solve_status::malformed;
        out.result.status_detail = std::move(err);
        return out;
    }
    resolved_strategy rs = strat.resolve();
    // The strategy's own budget takes precedence over the caller-supplied
    // control line (per-request fields override ambient state throughout).
    solve_controls inner = controls;
    if (rs.conflict_budget != 0) inner.conflict_budget = rs.conflict_budget;
    auto make = [&](unsigned member, sat::solver_options opts) -> std::unique_ptr<solver_backend> {
        auto backend = std::make_unique<sat_backend>(opts);
        build(member, backend->solver());
        return backend;
    };
    // The prototype instance is built at most once and recycled: the
    // fingerprint and the automatic classifier read it, and execute reuses
    // it as the single instance, member 0 or the lookahead instance.
    std::unique_ptr<solver_backend> proto;
    const bool use_cnf_cache = cache != nullptr && rs.use_cache;
    if (use_cnf_cache || rs.kind == strategy_kind::automatic)
        proto = make(0, sat::apply_features({}, rs.features));

    cnf_outcome out;
    cnf_fingerprint fp;
    if (use_cnf_cache) {
        sat::solver& core = *proto->sat_core();
        fp = cnf_fingerprint::of(core);
        if (auto cached = cache->lookup_cnf(fp)) {
            if (cached->is_unsat()) {
                // Unsat transfers directly: the fingerprint identifies the
                // clause stream, and unsatisfiability is a property of the
                // clauses alone.
                out.result = std::move(*cached);
                out.executed = strategy_kind::single;
                out.cache_hit = true;
                return out;
            }
            // Sat: re-validate on the live instance by assuming every
            // assigned model literal. With a fully assigned model this is
            // pure propagation; l_undef gaps leave a (small) residual
            // search, so the caller's conflict budget is honoured here
            // exactly as it would be on the real solve. unknown (budget
            // or cancel) and unsat (stale/corrupt entry) both fall
            // through to the normal solve path.
            std::vector<sat::lit> model_lits;
            model_lits.reserve(cached->sat_model.size());
            for (std::size_t v = 0; v < cached->sat_model.size(); ++v) {
                if (static_cast<int>(v) >= core.num_vars()) break;
                if (cached->sat_model[v] == sat::lbool::l_undef) continue;
                model_lits.push_back(sat::mk_lit(static_cast<sat::var>(v),
                                                 cached->sat_model[v] == sat::lbool::l_false));
            }
            const std::uint64_t budget = inner.conflict_budget;
            if (budget != 0) core.set_conflict_pause(core.stats().conflicts + budget);
            backend_result validated = proto->check_cube(model_lits, inner.cancel);
            if (budget != 0) core.set_conflict_pause(0);
            if (validated.is_sat()) {
                validated.conflicts = cached->conflicts;
                out.result = std::move(validated);
                out.total_conflicts = out.result.conflicts;
                out.executed = strategy_kind::single;
                out.cache_hit = true;
                return out;
            }
        }
    }
    if (rs.kind == strategy_kind::automatic)
        rs = classify(strat, *proto->sat_core(), /*assumptions=*/0, threads);
    static_cast<dispatch_outcome&>(out) =
        execute(rs, std::move(proto), make, /*pool=*/nullptr, threads, inner);
    out.executed = rs.kind;
    // Memoizes a definite outcome under the fingerprint computed above
    // (the digest is stable across the solve: search never re-enters
    // add_clause).
    if (use_cnf_cache) cache->insert_cnf(fp, out.result);
    return out;
}

cnf_outcome solve_cnf_dimacs(const sat::dimacs_problem& problem, const strategy& strat,
                             unsigned threads, const solve_controls& controls,
                             query_cache* cache) {
    // Every member replays the same parsed clause stream: the replica
    // contract (identical CNF, identical variable numbering, identical
    // clause digest) holds by construction.
    return solve_cnf([&problem](unsigned, sat::solver& s) { problem.load_into(s); }, strat,
                     threads, controls, cache);
}

cnf_outcome solve_cnf_file(const std::string& path, const strategy& strat, unsigned threads,
                           const solve_controls& controls, query_cache* cache) {
    sat::dimacs_problem problem;
    try {
        std::ifstream in(path);
        if (!in) throw std::runtime_error("dimacs: cannot open '" + path + "'");
        problem = sat::read_dimacs(in);
    } catch (const std::exception& e) {
        cnf_outcome out;
        out.result.status = solve_status::malformed;
        out.result.status_detail = e.what();
        return out;
    }
    return solve_cnf_dimacs(problem, strat, threads, controls, cache);
}

}  // namespace sciduction::substrate
