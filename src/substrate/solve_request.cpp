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
    if (sharing) pick.sharing = sharing;
    if (features) pick.features = features;
    if (use_cache) pick.use_cache = use_cache;
    pick.conflict_budget = conflict_budget;
    pick.time_budget_ms = time_budget_ms;
    return pick;
}

resolved_strategy strategy::resolve(const resolved_strategy& defaults) const {
    resolved_strategy r = defaults;
    r.kind = kind;
    if (members) r.members = *members;
    if (depth) r.depth = *depth;
    if (probe_candidates) r.probe_candidates = *probe_candidates;
    if (sharing) r.sharing = *sharing;
    if (features) r.features = *features;
    if (use_cache) r.use_cache = *use_cache;
    r.conflict_budget = conflict_budget;
    r.time_budget_ms = time_budget_ms;
    // Normalize degenerate combinations: a shard request with no depth
    // *is* the portfolio path, and a 1-member portfolio *is* a single
    // solve. `automatic` keeps its kind — the engine classifies once
    // features are known — but its fields are resolved so explicit
    // per-request settings survive the classification.
    if (r.kind == strategy_kind::shard && r.depth == 0) r.kind = strategy_kind::portfolio;
    if (r.kind == strategy_kind::portfolio && r.members <= 1) r.kind = strategy_kind::single;
    return r;
}

std::string strategy::validate() const {
    if (members && *members == 0) return "strategy.members must be >= 1 (0-member portfolio)";
    if (members && *members > 1024) return "strategy.members must be <= 1024";
    if (depth && *depth > 12)
        return "strategy.depth must be <= 12 (the cube generator's clamp)";
    if (probe_candidates && *probe_candidates == 0)
        return "strategy.probe_candidates must be >= 1";
    if (sharing && sharing->enabled && sharing->max_clause_size == 0)
        return "sharing.max_clause_size must be >= 1 when sharing is enabled";
    if (sharing && sharing->enabled && sharing->slice_conflicts == 0)
        return "sharing.slice_conflicts must be >= 1 when sharing is enabled";
    return {};
}

std::string solve_request::validate() const {
    for (smt::term t : assertions)
        if (!t.valid()) return "assertion is an invalid (default-constructed) term";
    for (smt::term t : assumptions)
        if (!t.valid()) return "assumption is an invalid (default-constructed) term";
    return strategy.validate();
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
    // Library-level defaults (no engine_config at the CNF level): the
    // portfolio/cube defaults of portfolio_config / cube_config.
    resolved_strategy defaults;
    defaults.members = 4;
    defaults.depth = 3;
    resolved_strategy rs = strat.resolve(defaults);

    // The prototype instance is built at most once and recycled: the
    // fingerprint and the automatic classifier read it, the single path
    // solves it, and the shard paths run the cube lookahead on it.
    std::unique_ptr<sat_backend> proto;
    auto make_proto = [&] {
        proto = std::make_unique<sat_backend>(sat::apply_features({}, rs.features), "cnf#0");
        build(0, proto->solver());
    };

    cnf_outcome out;
    cnf_fingerprint fp;
    const bool use_cnf_cache = cache != nullptr && rs.use_cache;
    if (use_cnf_cache) {
        make_proto();
        fp = cnf_fingerprint::of(proto->solver());
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
                if (static_cast<int>(v) >= proto->solver().num_vars()) break;
                if (cached->sat_model[v] == sat::lbool::l_undef) continue;
                model_lits.push_back(sat::mk_lit(static_cast<sat::var>(v),
                                                 cached->sat_model[v] == sat::lbool::l_false));
            }
            const std::uint64_t budget =
                rs.conflict_budget != 0 ? rs.conflict_budget : controls.conflict_budget;
            if (budget != 0)
                proto->solver().set_conflict_pause(proto->solver().stats().conflicts + budget);
            backend_result validated = proto->check_cube(model_lits, controls.cancel);
            if (budget != 0) proto->solver().set_conflict_pause(0);
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
    // Memoizes a definite outcome under the fingerprint computed above
    // (the digest is stable across the solve: search never re-enters
    // add_clause).
    auto memoize = [&](const backend_result& r) {
        if (use_cnf_cache) cache->insert_cnf(fp, r);
    };
    if (rs.kind == strategy_kind::automatic) {
        // Classify on the prototype's size.
        if (!proto) make_proto();
        query_features f;
        f.variables = static_cast<std::size_t>(proto->solver().num_vars());
        f.clauses = proto->solver().num_clauses();
        f.threads = threads == 0 ? default_concurrency() : threads;
        // Explicitly-set request fields survive the classification — the
        // same precedence order as the engine path.
        rs = strat.overriding(strategy::auto_select(f)).resolve(defaults);
    }
    out.executed = rs.kind;

    // The strategy's own budget takes precedence over the caller-supplied
    // control line (per-request fields override ambient state throughout).
    solve_controls inner = controls;
    if (rs.conflict_budget != 0) inner.conflict_budget = rs.conflict_budget;

    if (rs.kind == strategy_kind::single) {
        if (!proto) make_proto();
        if (inner.conflict_budget != 0)
            proto->solver().set_conflict_pause(proto->solver().stats().conflicts +
                                               inner.conflict_budget);
        out.result = proto->check(inner.cancel);
        out.total_conflicts = out.result.conflicts;
        memoize(out.result);
        return out;
    }

    if (rs.kind == strategy_kind::portfolio) {
        portfolio_config pcfg;
        pcfg.members = rs.members;
        // 0 passes through: race()'s transient pool then clamps to
        // min(members, hardware) rather than spawning a full-width pool.
        pcfg.threads = threads;
        pcfg.sharing = rs.sharing;
        // Member 0's options are the baseline, so a prototype built for the
        // classifier is recycled instead of re-running the builder.
        auto factory = [&](unsigned member) -> std::unique_ptr<solver_backend> {
            if (member == 0 && proto) return std::move(proto);
            auto backend = std::make_unique<sat_backend>(
                sat::apply_features(diversified_options(member), rs.features),
                "cnf#" + std::to_string(member));
            build(member, backend->solver());
            return backend;
        };
        portfolio_outcome race_out = race(factory, pcfg, nullptr, inner);
        out.result = std::move(race_out.result);
        out.winner = race_out.winner;
        out.total_conflicts = race_out.total_conflicts;
        out.sharing = race_out.sharing;
        memoize(out.result);
        return out;
    }

    // Shard: lookahead on the prototype picks the split variables, then the
    // cube tree is dispatched across a pool.
    if (!proto) make_proto();
    cube_plan plan = generate_cubes(proto->solver(),
                                    {.depth = rs.depth, .probe_candidates = rs.probe_candidates});
    thread_pool pool(threads == 0 ? default_concurrency() : threads);
    shard_outcome shard_out = solve_cubes(
        [&](std::size_t pair) {
            auto backend = std::make_unique<sat_backend>(sat::apply_features({}, rs.features),
                                                         "cnf-shard#" + std::to_string(pair));
            build(0, backend->solver());
            return backend;
        },
        plan, pool, rs.sharing, inner);
    out.result = std::move(shard_out.result);
    out.total_conflicts = shard_out.stats.conflicts;
    out.sharing = shard_out.stats.sharing;
    out.shard = shard_out.stats;
    memoize(out.result);
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
