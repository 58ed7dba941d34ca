#include "gametime/gametime.hpp"

#include <algorithm>
#include <stdexcept>

#include "substrate/thread_pool.hpp"

namespace sciduction::gametime {

// ---- platform ---------------------------------------------------------------

sarm_platform::sarm_platform(const ir::program& p, const ir::function& f,
                             arch::timing_config timing, std::uint64_t seed, double fill,
                             std::uint64_t perturb_address_space)
    : compiled_(arch::compile_function(p, f)),
      machine_(compiled_, timing),
      rng_(seed),
      fill_(fill),
      address_space_(perturb_address_space) {}

std::uint64_t sarm_platform::measure(const std::vector<std::uint64_t>& args) {
    ++count_;
    arch::machine_state state(machine_.config());
    state.icache.randomize(rng_, address_space_, fill_);
    state.dcache.randomize(rng_, address_space_, fill_);
    return machine_.run(args, state).cycles;
}

std::uint64_t sarm_platform::measure_cold(const std::vector<std::uint64_t>& args) {
    ++count_;
    return machine_.run_cold(args).cycles;
}

// ---- basis extraction --------------------------------------------------------

namespace {

/// Lazy DFS enumerator of source-to-sink paths, in the same order the
/// original recursive enumeration visited them.
class path_enumerator {
public:
    explicit path_enumerator(const ir::cfg& g) : g_(g), stack_{{g.source(), 0}} {}

    /// Next complete path, or nullopt when exhausted.
    std::optional<ir::path> next() {
        while (!stack_.empty()) {
            frame& f = stack_.back();
            if (f.block == g_.sink()) {
                ir::path complete = current_;
                stack_.pop_back();
                if (!current_.empty()) current_.pop_back();
                return complete;
            }
            const auto& outs = g_.out_edges(f.block);
            if (f.next_choice == outs.size()) {
                stack_.pop_back();
                if (!current_.empty()) current_.pop_back();
                continue;
            }
            int eid = outs[f.next_choice++];
            current_.push_back(eid);
            stack_.push_back({g_.edge(eid).to, 0});
        }
        return std::nullopt;
    }

private:
    struct frame {
        int block;
        std::size_t next_choice;
    };
    const ir::cfg& g_;
    std::vector<frame> stack_;
    ir::path current_;
};

}  // namespace

basis_info extract_basis_paths(const ir::cfg& g, substrate::smt_engine& engine,
                               const basis_config& cfg) {
    basis_info info;
    const std::size_t target = g.basis_dimension();
    util::echelon_basis echelon(g.num_edges());
    path_enumerator paths(g);

    // Candidates are rank-tested (cheap, exact) and only rank-increasing
    // ones consult the SMT substrate. In batch mode, candidates are pulled
    // in waves whose feasibility queries run concurrently (each worker on
    // its own term_manager — the query is path-local and deterministic, so
    // the answers match the sequential ones bit-for-bit) before the rank
    // logic is replayed in enumeration order.
    const std::size_t wave =
        cfg.batch_threads > 1 ? static_cast<std::size_t>(cfg.batch_threads) * 4 : 1;
    std::optional<substrate::thread_pool> pool;
    if (cfg.batch_threads > 1) pool.emplace(cfg.batch_threads);
    while (echelon.rank() < target) {
        // A wave never pulls past the enumeration limit: the limit check
        // happens after the wave is processed, so a basis completing within
        // the limit returns normally in both modes.
        std::vector<ir::path> candidates;
        bool at_limit = false;
        while (candidates.size() < wave) {
            if (info.paths_considered == cfg.enumeration_limit) {
                at_limit = true;
                break;
            }
            auto p = paths.next();
            if (!p) break;
            ++info.paths_considered;
            candidates.push_back(std::move(*p));
        }

        std::vector<std::optional<std::vector<std::uint64_t>>> witnesses(candidates.size());
        if (pool) {
            info.speculative_queries += candidates.size();
            pool->parallel_for(candidates.size(), [&](std::size_t i) {
                smt::term_manager local_tm;
                witnesses[i] = ir::feasible_path_witness(g, candidates[i], local_tm);
            });
        }
        for (std::size_t i = 0; i < candidates.size() && echelon.rank() < target; ++i) {
            util::rvector v = g.edge_vector(candidates[i]);
            if (!echelon.is_independent(v)) continue;
            ++info.smt_queries;
            auto witness = pool ? std::move(witnesses[i])
                                : ir::feasible_path_witness(g, candidates[i], engine);
            if (witness) {
                echelon.insert(v);
                info.paths.push_back(candidates[i]);
                info.tests.push_back(std::move(*witness));
            }
        }
        if (echelon.rank() >= target) break;
        if (at_limit) {
            // Sequential semantics: exceeding the limit only matters when
            // another candidate would actually be considered.
            if (paths.next()) {
                ++info.paths_considered;
                throw std::runtime_error("extract_basis_paths: enumeration limit exceeded");
            }
            break;
        }
        if (candidates.empty()) break;  // enumeration exhausted
    }

    std::vector<util::rvector> rows;
    rows.reserve(info.paths.size());
    for (const auto& p : info.paths) rows.push_back(g.edge_vector(p));
    info.matrix = util::rmatrix::from_rows(rows);
    return info;
}

basis_info extract_basis_paths(const ir::cfg& g, smt::term_manager& tm,
                               std::size_t enumeration_limit,
                               const substrate::engine_config& engine_cfg) {
    substrate::smt_engine engine(tm, engine_cfg);
    basis_config cfg;
    cfg.enumeration_limit = enumeration_limit;
    return extract_basis_paths(g, engine, cfg);
}

// ---- learning ------------------------------------------------------------------

timing_model learn_timing_model(const basis_info& basis, platform_oracle& platform,
                                const learn_config& cfg) {
    const std::size_t b = basis.paths.size();
    if (b == 0) throw std::invalid_argument("learn_timing_model: empty basis");

    // The online game (paper Sec. 3.2): each trial draws a basis path
    // uniformly at random and measures it end-to-end. Sums stay integral so
    // the per-path mean is an exact rational sum/count.
    std::vector<std::uint64_t> sum(b, 0);
    std::vector<std::uint64_t> count(b, 0);
    std::vector<std::uint64_t> min_seen(b, ~0ULL);
    std::vector<std::uint64_t> max_seen(b, 0);
    util::rng rng(cfg.seed);
    const std::size_t total_trials = b * static_cast<std::size_t>(cfg.trials_per_basis_path);
    for (std::size_t t = 0; t < total_trials; ++t) {
        std::size_t i = rng.next_below(b);
        std::uint64_t cycles = platform.measure(basis.tests[i]);
        sum[i] += cycles;
        ++count[i];
        min_seen[i] = std::min(min_seen[i], cycles);
        max_seen[i] = std::max(max_seen[i], cycles);
    }
    // Uniform random draw can starve a path at tiny trial counts; top up so
    // every basis path has at least one observation.
    for (std::size_t i = 0; i < b; ++i) {
        if (count[i] == 0) {
            sum[i] = platform.measure(basis.tests[i]);
            count[i] = 1;
            min_seen[i] = max_seen[i] = sum[i];
        }
    }

    util::rvector lengths(b);
    timing_model model;
    model.basis_means.resize(b);
    model.basis_spread.resize(b);
    for (std::size_t i = 0; i < b; ++i) {
        lengths[i] = util::rational(static_cast<std::int64_t>(sum[i]),
                                    static_cast<std::int64_t>(count[i]));
        model.basis_means[i] = lengths[i].to_double();
        model.basis_spread[i] = static_cast<double>(max_seen[i] - min_seen[i]);
        model.measurements += static_cast<int>(count[i]);
    }

    auto w = util::min_norm_solution(basis.matrix, lengths);
    if (!w)
        throw std::runtime_error("learn_timing_model: basis matrix is rank-deficient");
    model.edge_weights = std::move(*w);
    return model;
}

// ---- prediction ------------------------------------------------------------------

double predict_path_time(const ir::cfg& g, const timing_model& model, const ir::path& p) {
    util::rational acc(0);
    for (int eid : p) acc += model.edge_weights[static_cast<std::size_t>(eid)];
    (void)g;
    return acc.to_double();
}

std::optional<wcet_estimate> predict_wcet(const ir::cfg& g, const timing_model& model,
                                          smt::term_manager& tm,
                                          const substrate::engine_config& engine_cfg) {
    substrate::smt_engine engine(tm, engine_cfg);
    return predict_wcet(g, model, engine);
}

std::optional<wcet_estimate> predict_wcet(const ir::cfg& g, const timing_model& model,
                                          substrate::smt_engine& engine) {
    // Longest path in the DAG under w, by DP over a reverse topological order.
    const std::size_t n = g.num_blocks();
    std::vector<int> order;
    order.reserve(n);
    std::vector<char> state(n, 0);
    std::vector<std::pair<int, std::size_t>> stack{{g.source(), 0}};
    state[static_cast<std::size_t>(g.source())] = 1;
    while (!stack.empty()) {
        auto& [blk, idx] = stack.back();
        const auto& outs = g.out_edges(blk);
        if (idx == outs.size()) {
            state[static_cast<std::size_t>(blk)] = 2;
            order.push_back(blk);
            stack.pop_back();
            continue;
        }
        int next = g.edge(outs[idx]).to;
        ++idx;
        if (state[static_cast<std::size_t>(next)] == 0) {
            state[static_cast<std::size_t>(next)] = 1;
            stack.emplace_back(next, 0);
        }
    }

    std::vector<util::rational> best(n, util::rational(0));
    std::vector<int> best_edge(n, -1);
    std::vector<char> reaches(n, 0);
    reaches[static_cast<std::size_t>(g.sink())] = 1;
    for (int blk : order) {
        if (blk == g.sink()) continue;
        bool found = false;
        for (int eid : g.out_edges(blk)) {
            int to = g.edge(eid).to;
            if (reaches[static_cast<std::size_t>(to)] == 0) continue;
            util::rational cand =
                model.edge_weights[static_cast<std::size_t>(eid)] + best[static_cast<std::size_t>(to)];
            if (!found || best[static_cast<std::size_t>(blk)] < cand) {
                best[static_cast<std::size_t>(blk)] = cand;
                best_edge[static_cast<std::size_t>(blk)] = eid;
                found = true;
            }
        }
        reaches[static_cast<std::size_t>(blk)] = found ? 1 : 0;
    }
    if (reaches[static_cast<std::size_t>(g.source())] == 0) return std::nullopt;

    ir::path longest;
    int cur = g.source();
    while (cur != g.sink()) {
        int eid = best_edge[static_cast<std::size_t>(cur)];
        longest.push_back(eid);
        cur = g.edge(eid).to;
    }
    // The predicted-longest-path feasibility check: every basis query was
    // already answered during extraction, so this is either a cache hit or
    // one fresh path query, decided as a single solve. A caller with a
    // path hard enough to split can decide it through
    // ir::feasible_path_witness_with and strategy::shard instead.
    auto witness = ir::feasible_path_witness(g, longest, engine);
    if (witness) {
        wcet_estimate est;
        est.longest = std::move(longest);
        est.predicted_cycles = predict_path_time(g, model, est.longest);
        est.test_args = std::move(*witness);
        return est;
    }

    // DP-longest path is infeasible: fall back to exhaustive search over all
    // feasible paths (fine at benchmark scale; the structure hypothesis's
    // "unique longest by margin rho" usually prevents reaching here).
    std::optional<wcet_estimate> best_est;
    for (const auto& p : g.enumerate_paths()) {
        double t = predict_path_time(g, model, p);
        if (best_est && t <= best_est->predicted_cycles) continue;
        auto wit = ir::feasible_path_witness(g, p, engine);
        if (!wit) continue;
        wcet_estimate est;
        est.longest = p;
        est.predicted_cycles = t;
        est.test_args = std::move(*wit);
        best_est = std::move(est);
    }
    return best_est;
}

ta_answer decide_ta(const ir::cfg& g, const timing_model& model, smt::term_manager& tm,
                    sarm_platform& platform, double tau,
                    const substrate::engine_config& engine_cfg) {
    ta_answer ans;
    ans.report.hypothesis = weight_perturbation_hypothesis();
    ans.report.guarantee = core::guarantee_kind::probabilistically_sound;
    ans.report.confidence = 0.99;  // 1 - delta for the configured trial count

    auto wcet = predict_wcet(g, model, tm, engine_cfg);
    if (!wcet) throw std::runtime_error("decide_ta: no feasible path");
    ans.predicted_worst_cycles = wcet->predicted_cycles;
    // Execute the predicted longest path and compare the *measured* time
    // against tau (paper Sec. 3.2: "predict the longest path, execute it to
    // compute the corresponding timing tau*, and compare").
    ans.measured_worst_cycles = platform.measure_cold(wcet->test_args);
    ans.within_bound = static_cast<double>(ans.measured_worst_cycles) <= tau;
    if (!ans.within_bound) ans.witness_args = wcet->test_args;
    return ans;
}

core::structure_hypothesis weight_perturbation_hypothesis() {
    return {
        .name = "weight-perturbation model (w, pi)",
        .artifact_class = "environment models selecting path-independent edge weights w in R^m "
                          "plus path-dependent perturbations pi with mean bounded by mu_max; "
                          "worst-case path unique longest by margin rho",
        .validity_condition = "platform timing is near-additive over CFG edges with bounded-mean "
                              "state-dependent noise (holds for in-order pipelines with caches at "
                              "program scale)",
        .strictly_restrictive = true,
    };
}

}  // namespace sciduction::gametime
