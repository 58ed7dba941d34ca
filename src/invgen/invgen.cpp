#include "invgen/invgen.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "sat/gates.hpp"
#include "substrate/query_cache.hpp"
#include "substrate/solve_request.hpp"
#include "substrate/thread_pool.hpp"

namespace sciduction::invgen {

namespace {

using circuit_t = sciduction::aig::aig;
using aig::literal;

/// Per-variable simulation signature across all sampled states.
using signature = std::vector<std::uint64_t>;

struct sig_hash {
    std::size_t operator()(const signature& s) const {
        std::uint64_t h = 0xcbf29ce484222325ULL;
        for (std::uint64_t w : s) {
            h ^= w;
            h *= 0x100000001b3ULL;
        }
        return static_cast<std::size_t>(h);
    }
};

signature complement(const signature& s) {
    signature c(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) c[i] = ~s[i];
    return c;
}

bool all_zero(const signature& s) {
    for (std::uint64_t w : s)
        if (w != 0) return false;
    return true;
}

bool implies(const signature& a, const signature& b) {
    for (std::size_t i = 0; i < a.size(); ++i)
        if ((a[i] & ~b[i]) != 0) return false;
    return true;
}

/// Instantiates two time frames and returns per-candidate violation
/// literals, assuming the candidates in frame 0 when `assume_frame0`.
struct frames {
    std::vector<sat::lit> f0;
    std::vector<sat::lit> f1;
};

frames build_frames(const circuit_t& circuit, sat::gate_encoder& gates, bool init_frame0) {
    auto& solver = gates.sat_solver();
    std::vector<sat::lit> latches0;
    std::vector<sat::lit> inputs0;
    for (std::size_t i = 0; i < circuit.num_latches(); ++i) {
        if (init_frame0) {
            latches0.push_back(gates.constant(circuit.latch_init(i)));
        } else {
            latches0.push_back(sat::mk_lit(solver.new_var()));
        }
    }
    for (std::size_t i = 0; i < circuit.num_inputs(); ++i)
        inputs0.push_back(sat::mk_lit(solver.new_var()));
    frames fr;
    fr.f0 = circuit.instantiate(gates, latches0, inputs0);

    std::vector<sat::lit> latches1;
    for (std::size_t i = 0; i < circuit.num_latches(); ++i)
        latches1.push_back(circuit_t::sat_literal(fr.f0, circuit.latch_next(i)));
    std::vector<sat::lit> inputs1;
    for (std::size_t i = 0; i < circuit.num_inputs(); ++i)
        inputs1.push_back(sat::mk_lit(solver.new_var()));
    fr.f1 = circuit.instantiate(gates, latches1, inputs1);
    return fr;
}

void assume_candidate(sat::solver& solver, const std::vector<sat::lit>& frame,
                      const candidate& c) {
    sat::lit a = circuit_t::sat_literal(frame, c.lhs);
    switch (c.k) {
        case candidate::kind::constant: solver.add_clause(a); break;
        case candidate::kind::equivalence: {
            sat::lit b = circuit_t::sat_literal(frame, c.rhs);
            solver.add_clause(~a, b);
            solver.add_clause(a, ~b);
            break;
        }
        case candidate::kind::implication: {
            sat::lit b = circuit_t::sat_literal(frame, c.rhs);
            solver.add_clause(~a, b);
            break;
        }
    }
}

sat::lit violation_literal(sat::gate_encoder& gates, const std::vector<sat::lit>& frame,
                           const candidate& c) {
    sat::lit a = circuit_t::sat_literal(frame, c.lhs);
    switch (c.k) {
        case candidate::kind::constant: return ~a;
        case candidate::kind::equivalence:
            return gates.xor_gate(a, circuit_t::sat_literal(frame, c.rhs));
        case candidate::kind::implication:
            return gates.and_gate(a, ~circuit_t::sat_literal(frame, c.rhs));
    }
    return ~a;
}

/// Builds one refinement-round CNF instance into `solver`: two time frames,
/// candidate assumptions (inductive step only), and the "some candidate is
/// violated" clause. Returns the per-candidate violation literals.
/// Construction is fully deterministic, so every portfolio member gets the
/// identical CNF with identical variable numbering.
std::vector<sat::lit> build_refinement_instance(const circuit_t& circuit,
                                                const std::vector<candidate>& candidates,
                                                bool inductive_step, sat::solver& solver) {
    sat::gate_encoder gates(solver);
    frames fr = build_frames(circuit, gates, /*init_frame0=*/!inductive_step);
    if (inductive_step)
        for (const candidate& c : candidates) assume_candidate(solver, fr.f0, c);
    const auto& check_frame = inductive_step ? fr.f1 : fr.f0;
    std::vector<sat::lit> violations;
    violations.reserve(candidates.size());
    sat::clause_lits any;
    for (const candidate& c : candidates) {
        sat::lit v = violation_literal(gates, check_frame, c);
        violations.push_back(v);
        any.push_back(v);
    }
    solver.add_clause(any);
    return violations;
}

bool model_lit_true(const std::vector<sat::lbool>& model, sat::lit l) {
    sat::lbool v = model[static_cast<std::size_t>(sat::var_of(l))];
    return sat::sign_of(l) ? v == sat::lbool::l_false : v == sat::lbool::l_true;
}

/// One refinement round: returns false when the current candidate set is
/// consistent (query UNSAT); otherwise drops every candidate violated in
/// the model and returns true. The query routes through the substrate's
/// unified strategy dispatcher: a single solve, or — with
/// cfg.portfolio_members > 1 — diversified instances racing.
bool refine_round(const circuit_t& circuit, std::vector<candidate>& candidates,
                  bool inductive_step, const invgen_config& cfg,
                  substrate::query_cache* cache) {
    // Violation literals are identical in every member (deterministic
    // construction); each builder call records its own copy and the
    // winner's is used to read the model. A member may be skipped entirely
    // when the race is already decided, so only the winner's slot is
    // guaranteed.
    std::vector<std::vector<sat::lit>> member_violations(std::max(1u, cfg.portfolio_members));
    substrate::strategy strat = cfg.portfolio_members > 1
                                    ? substrate::strategy::portfolio(cfg.portfolio_members)
                                    : substrate::strategy::single();
    auto outcome = substrate::solve_cnf(
        [&](unsigned member, sat::solver& solver) {
            member_violations[member] =
                build_refinement_instance(circuit, candidates, inductive_step, solver);
        },
        strat, cfg.portfolio_threads, {}, cache);
    if (outcome.result.is_unsat()) return false;
    if (!outcome.result.is_sat())
        throw std::runtime_error("refine_round: substrate returned unknown");
    const std::vector<sat::lit>& violations = member_violations[outcome.winner];
    std::vector<candidate> kept;
    kept.reserve(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i)
        if (!model_lit_true(outcome.result.sat_model, violations[i]))
            kept.push_back(candidates[i]);
    candidates = std::move(kept);
    return true;
}

}  // namespace

std::string candidate::to_string() const {
    std::ostringstream os;
    auto lit_str = [](literal l) {
        std::ostringstream s;
        if (aig::negated(l)) s << "!";
        s << "n" << aig::var_of(l);
        return s.str();
    };
    switch (k) {
        case kind::constant: os << lit_str(lhs) << " == 1"; break;
        case kind::equivalence: os << lit_str(lhs) << " == " << lit_str(rhs); break;
        case kind::implication: os << lit_str(lhs) << " -> " << lit_str(rhs); break;
    }
    return os.str();
}

invgen_result generate_invariants(const aig::aig& circuit, const invgen_config& cfg) {
    invgen_result result;
    result.report.hypothesis = invariant_form_hypothesis();
    result.report.guarantee = core::guarantee_kind::sound;

    // ---- inductive engine I: simulate and collect signatures ----
    util::rng rng(cfg.seed);
    std::vector<signature> sigs(circuit.num_vars());
    for (int round = 0; round < cfg.simulation_rounds; ++round) {
        auto state = circuit.initial_state();
        for (int step = 0; step < cfg.steps_per_round; ++step) {
            std::vector<std::uint64_t> inputs(circuit.num_inputs());
            for (auto& w : inputs) w = rng.next_u64();
            auto values = circuit.simulate_step(state, inputs);
            for (std::size_t v = 0; v < values.size(); ++v) sigs[v].push_back(values[v]);
            state = circuit.next_state(values);
        }
    }

    // Candidate constants and equivalence classes over latch/AND variables
    // (inputs are free variables; their "equivalences" are sampling noise).
    std::vector<candidate> candidates;
    std::unordered_map<signature, literal, sig_hash> classes;
    const std::size_t first_var = 1 + circuit.num_inputs();
    for (std::size_t v = first_var; v < circuit.num_vars(); ++v) {
        literal pos = aig::mk_literal(static_cast<std::uint32_t>(v));
        if (all_zero(sigs[v])) {
            candidates.push_back({candidate::kind::constant, aig::negate(pos), 0});
            continue;
        }
        signature comp = complement(sigs[v]);
        if (all_zero(comp)) {
            candidates.push_back({candidate::kind::constant, pos, 0});
            continue;
        }
        // Normalize polarity so a node and its complement share a class.
        bool flip = (sigs[v][0] & 1) != 0;
        const signature& norm = flip ? comp : sigs[v];
        literal norm_lit = flip ? aig::negate(pos) : pos;
        auto [it, inserted] = classes.emplace(norm, norm_lit);
        if (!inserted)
            candidates.push_back({candidate::kind::equivalence, norm_lit, it->second});
    }
    if (cfg.include_implications) {
        // a -> b for class representatives whose signatures are ordered.
        std::vector<std::pair<signature, literal>> reps(classes.begin(), classes.end());
        for (std::size_t i = 0; i < reps.size(); ++i)
            for (std::size_t j = 0; j < reps.size(); ++j)
                if (i != j && implies(reps[i].first, reps[j].first))
                    candidates.push_back(
                        {candidate::kind::implication, reps[i].second, reps[j].second});
    }
    result.candidates_after_simulation = candidates.size();

    // ---- deductive engine D: base + mutual 1-induction ----
    // With a cache_path, round results persist across runs under the CNF
    // fingerprint (loaded here, saved when `cache` dies): the seeded
    // candidate generation makes a repeated run's query stream identical,
    // so CI re-runs answer every round from the file.
    std::unique_ptr<substrate::query_cache> cache;
    if (!cfg.cache_path.empty())
        cache = std::make_unique<substrate::query_cache>(cfg.cache_path);
    std::size_t before = candidates.size();
    for (int iter = 0; iter < cfg.max_induction_iterations && !candidates.empty(); ++iter) {
        ++result.induction_iterations;
        if (!refine_round(circuit, candidates, /*inductive_step=*/false, cfg, cache.get()) &&
            !refine_round(circuit, candidates, /*inductive_step=*/true, cfg, cache.get()))
            break;
    }
    result.dropped_by_induction = before - candidates.size();
    result.proven = std::move(candidates);
    return result;
}

bool prove_with_invariants(const aig::aig& circuit, aig::literal prop,
                           const std::vector<candidate>& invariants,
                           const proof_config& cfg) {
    // With a cache_path, both queries persist across runs under the CNF
    // fingerprint (the cache is internally locked, so the batched mode's
    // concurrent base/step proofs share it safely).
    std::unique_ptr<substrate::query_cache> cache;
    if (!cfg.cache_path.empty())
        cache = std::make_unique<substrate::query_cache>(cfg.cache_path);
    // Base: the property holds in the initial state (for all inputs).
    auto base_holds = [&] {
        auto outcome = substrate::solve_cnf(
            [&](unsigned, sat::solver& solver) {
                sat::gate_encoder gates(solver);
                frames fr = build_frames(circuit, gates, /*init_frame0=*/true);
                solver.add_clause(~circuit_t::sat_literal(fr.f0, prop));
            },
            substrate::strategy::single(), 1, {}, cache.get());
        return outcome.result.is_unsat();
    };
    // Step: invariants + property in frame 0 imply the property in frame 1.
    // Construction is deterministic, so every shard replica rebuilds the
    // identical CNF with identical variable numbering (the cube-transfer
    // contract of substrate::solve_cubes).
    auto build_step = [&](sat::solver& solver) {
        sat::gate_encoder gates(solver);
        frames fr = build_frames(circuit, gates, /*init_frame0=*/false);
        for (const candidate& c : invariants) {
            assume_candidate(solver, fr.f0, c);
            assume_candidate(solver, fr.f1, c);  // proven invariants hold everywhere
        }
        solver.add_clause(circuit_t::sat_literal(fr.f0, prop));
        solver.add_clause(~circuit_t::sat_literal(fr.f1, prop));
    };
    auto step_holds = [&] {
        // Route through the substrate's unified strategy dispatcher: a
        // plain solve, or — with cfg.shard_depth > 0 — cube-and-conquer
        // (lookahead on a prototype picks the split variables, then the
        // cube tree races on a pool).
        substrate::strategy strat = cfg.shard_depth > 0
                                        ? substrate::strategy::shard(cfg.shard_depth)
                                        : substrate::strategy::single();
        auto outcome = substrate::solve_cnf(
            [&](unsigned, sat::solver& solver) { build_step(solver); }, strat,
            cfg.shard_threads, {}, cache.get());
        return outcome.result.is_unsat();
    };
    if (cfg.batch_threads <= 1) return base_holds() && step_holds();
    // The two queries are independent: batch them on the substrate pool.
    bool base_ok = false;
    bool step_ok = false;
    substrate::thread_pool pool(cfg.batch_threads);
    pool.parallel_for(2, [&](std::size_t i) {
        if (i == 0) base_ok = base_holds();
        else step_ok = step_holds();
    });
    return base_ok && step_ok;
}

core::structure_hypothesis invariant_form_hypothesis() {
    return {
        .name = "invariants are literal constants / equivalences / implications",
        .artifact_class = "conjunctions of node-literal constants, pairwise equivalences and "
                          "implications over the circuit's latches and gates (the ABC-style "
                          "forms of paper Sec. 2.4.1)",
        .validity_condition = "always safe: if no invariant of this form suffices the procedure "
                              "proves less, never more — verification stays sound (paper: 'a "
                              "buggy system will not be deemed correct')",
        .strictly_restrictive = true,
    };
}

}  // namespace sciduction::invgen
