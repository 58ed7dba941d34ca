#include "ogis/synthesis.hpp"

#include <algorithm>
#include <stdexcept>

#include "smt/solver.hpp"
#include "util/rng.hpp"

namespace sciduction::ogis {

namespace {

using smt::term;
using smt::term_manager;

constexpr unsigned loc_width = 8;  // location indices are tiny integers

/// The location variables of the Brahma-style encoding (shared across all
/// queries of one synthesis run; solvers are fresh per query).
struct locations {
    std::vector<term> comp_out;                 // O_i
    std::vector<std::vector<term>> comp_in;     // I_{i,j}
    std::vector<term> prog_out;                 // R_k
};

class encoder {
public:
    encoder(const synthesis_config& cfg, term_manager& tm) : cfg_(cfg), tm_(tm) {
        const std::size_t l = cfg_.library.size();
        for (std::size_t i = 0; i < l; ++i) {
            locs_.comp_out.push_back(tm_.mk_bv_var("O_" + std::to_string(i), loc_width));
            std::vector<term> ins;
            for (unsigned j = 0; j < cfg_.library[i].arity; ++j)
                ins.push_back(
                    tm_.mk_bv_var("I_" + std::to_string(i) + "_" + std::to_string(j), loc_width));
            locs_.comp_in.push_back(std::move(ins));
        }
        for (unsigned k = 0; k < cfg_.num_outputs; ++k)
            locs_.prog_out.push_back(tm_.mk_bv_var("R_" + std::to_string(k), loc_width));
    }

    [[nodiscard]] std::size_t num_slots() const {
        return cfg_.num_inputs + cfg_.library.size();
    }

    term loc_const(std::uint64_t v) { return tm_.mk_bv_const(loc_width, v); }

    /// Well-formedness psi_wfp: ranges, acyclicity, output-location
    /// consistency (distinctness makes O a bijection onto the slot range).
    term well_formed() {
        std::vector<term> cs;
        const std::uint64_t n = cfg_.num_inputs;
        const std::uint64_t top = num_slots();
        for (std::size_t i = 0; i < locs_.comp_out.size(); ++i) {
            cs.push_back(tm_.mk_ule(loc_const(n), locs_.comp_out[i]));
            cs.push_back(tm_.mk_ult(locs_.comp_out[i], loc_const(top)));
            for (const term& in : locs_.comp_in[i])
                cs.push_back(tm_.mk_ult(in, locs_.comp_out[i]));  // acyclicity (covers range too)
            for (std::size_t j = i + 1; j < locs_.comp_out.size(); ++j)
                cs.push_back(tm_.mk_distinct(locs_.comp_out[i], locs_.comp_out[j]));
        }
        for (const term& r : locs_.prog_out) cs.push_back(tm_.mk_ult(r, loc_const(top)));
        // Symmetry breaking: interchangeable (identical) components are
        // ordered by output location, and the operands of a commutative
        // component by location (sound: see component::commutative). It
        // shrinks both the search and — more importantly — the uniqueness
        // proof of the distinguishing query.
        for (std::size_t i = 0; i < locs_.comp_out.size(); ++i)
            for (std::size_t j = i + 1; j < locs_.comp_out.size(); ++j)
                if (cfg_.library[i].name == cfg_.library[j].name)
                    cs.push_back(tm_.mk_ult(locs_.comp_out[i], locs_.comp_out[j]));
        for (std::size_t i = 0; i < locs_.comp_in.size(); ++i)
            if (cfg_.library[i].commutative)
                cs.push_back(tm_.mk_ule(locs_.comp_in[i][0], locs_.comp_in[i][1]));
        return tm_.mk_and(cs);
    }

    /// Value entity: a (location term, value term) pair participating in the
    /// connection constraint psi_conn.
    struct entity {
        term loc;
        term value;
    };

    /// Encodes one program execution: given input value terms, produces the
    /// program-output value variables plus the phi_lib / psi_conn
    /// constraints. `tag` isolates value-variable names per example.
    struct execution {
        std::vector<term> outputs;  // program output value vars
        term constraint;
    };

    execution encode_execution(const std::string& tag, const std::vector<term>& inputs) {
        // Definers: program inputs (fixed locations) and component outputs
        // (distinct locations covering the remaining slots). Consumers:
        // component inputs and program outputs. Every consumer location
        // names exactly one definer, so psi_conn reduces to a mux of the
        // consumer's value over the definers, selected by its location —
        // functionally determined, which propagates far better than the
        // quadratic all-pairs implication form.
        std::vector<entity> definers;
        for (unsigned i = 0; i < cfg_.num_inputs; ++i)
            definers.push_back({loc_const(i), inputs[i]});

        std::vector<std::vector<term>> comp_in_vals;
        for (std::size_t i = 0; i < cfg_.library.size(); ++i) {
            const component& c = cfg_.library[i];
            std::vector<term> in_vals;
            for (unsigned j = 0; j < c.arity; ++j)
                in_vals.push_back(tm_.mk_bv_var(
                    "v" + tag + "_in_" + std::to_string(i) + "_" + std::to_string(j),
                    cfg_.width));
            term out = c.symbolic(tm_, in_vals, cfg_.width);  // phi_lib, by construction
            definers.push_back({locs_.comp_out[i], out});
            comp_in_vals.push_back(std::move(in_vals));
        }

        auto mux_definers = [&](term loc) {
            // Location validity is enforced by well_formed(); the final
            // definer serves as the chain's default arm.
            term v = definers.back().value;
            for (std::size_t d = definers.size() - 1; d-- > 0;)
                v = tm_.mk_ite(tm_.mk_eq(loc, definers[d].loc), definers[d].value, v);
            return v;
        };

        std::vector<term> cs;
        for (std::size_t i = 0; i < cfg_.library.size(); ++i)
            for (unsigned j = 0; j < cfg_.library[i].arity; ++j)
                cs.push_back(tm_.mk_eq(comp_in_vals[i][j], mux_definers(locs_.comp_in[i][j])));

        execution exec;
        for (unsigned k = 0; k < cfg_.num_outputs; ++k)
            exec.outputs.push_back(mux_definers(locs_.prog_out[k]));
        exec.constraint = tm_.mk_and(cs);
        return exec;
    }

    /// Constraint: the encoded program maps example.first to example.second.
    term example_constraint(std::size_t index, const std::pair<io_vector, io_vector>& example) {
        std::vector<term> ins;
        for (unsigned i = 0; i < cfg_.num_inputs; ++i)
            ins.push_back(tm_.mk_bv_const(cfg_.width, example.first[i]));
        execution exec = encode_execution(std::string("e").append(std::to_string(index)), ins);
        std::vector<term> cs{exec.constraint};
        for (unsigned k = 0; k < cfg_.num_outputs; ++k)
            cs.push_back(tm_.mk_eq(exec.outputs[k],
                                   tm_.mk_bv_const(cfg_.width, example.second[k])));
        return tm_.mk_and(cs);
    }

    /// Reads the synthesized program out of a model (any term -> value map).
    lf_program extract(const std::function<std::uint64_t(term)>& model_value) {
        lf_program prog;
        prog.width = cfg_.width;
        prog.num_inputs = cfg_.num_inputs;
        const std::size_t l = cfg_.library.size();
        std::vector<int> comp_at_slot(num_slots(), -1);
        for (std::size_t i = 0; i < l; ++i) {
            auto slot = static_cast<std::size_t>(model_value(locs_.comp_out[i]));
            comp_at_slot.at(slot) = static_cast<int>(i);
        }
        for (std::size_t slot = cfg_.num_inputs; slot < num_slots(); ++slot) {
            int ci = comp_at_slot[slot];
            if (ci < 0) throw std::logic_error("extract: slot without component");
            lf_program::line line;
            line.component = ci;
            for (const term& in : locs_.comp_in[static_cast<std::size_t>(ci)])
                line.args.push_back(static_cast<int>(model_value(in)));
            prog.lines.push_back(std::move(line));
        }
        for (const term& r : locs_.prog_out)
            prog.outputs.push_back(static_cast<int>(model_value(r)));
        return prog;
    }

    const locations& locs() const { return locs_; }

private:
    const synthesis_config& cfg_;
    term_manager& tm_;
    locations locs_;
};

}  // namespace

synthesis_outcome synthesize(const synthesis_config& cfg, spec_oracle& oracle) {
    if (cfg.library.empty()) throw std::invalid_argument("synthesize: empty library");
    for (const component& c : cfg.library)
        if (c.commutative && c.arity != 2)
            throw std::invalid_argument("synthesize: commutative component " + c.name +
                                        " is not binary");
    const auto start = std::chrono::steady_clock::now();

    term_manager tm;
    encoder enc(cfg, tm);
    substrate::smt_engine engine(tm, cfg.engine);
    synthesis_outcome outcome;
    outcome.report.hypothesis = component_library_hypothesis(cfg.library.size());
    outcome.report.guarantee = core::guarantee_kind::sound;

    using example = std::pair<io_vector, io_vector>;

    // Example constraints are memoized so both query shapes (and successive
    // iterations, whose example sets grow by one) share the exact term
    // nodes — which is also what lets the substrate cache key them cheaply.
    std::vector<term> example_terms;
    auto example_assertions = [&](const std::vector<example>& examples) {
        for (std::size_t e = example_terms.size(); e < examples.size(); ++e)
            example_terms.push_back(enc.example_constraint(e, examples[e]));
        std::vector<term> assertions{enc.well_formed()};
        assertions.insert(assertions.end(), example_terms.begin(),
                          example_terms.begin() + static_cast<std::ptrdiff_t>(examples.size()));
        return assertions;
    };

    // Every query flows through the one submit() entry point as a single
    // solve (deterministic models, hence a deterministic loop trajectory).
    // Only queries this run solved count conflicts: a cache hit or a
    // coalesced duplicate reports the conflicts of a solve it did not run.
    auto decide = [&](std::vector<term> assertions) {
        auto handle = engine.submit(std::move(assertions), substrate::strategy::single());
        substrate::backend_result result = handle.get();
        const substrate::request_stats s = handle.stats();
        if (!s.cache_hit && !s.coalesced) outcome.stats.conflicts += s.conflicts;
        return result;
    };

    auto synth = [&](const std::vector<example>& examples) -> std::optional<lf_program> {
        ++outcome.stats.synthesis_queries;
        auto result = decide(example_assertions(examples));
        if (!result.is_sat()) return std::nullopt;
        substrate::model_evaluator eval(tm, std::move(result.model));
        return enc.extract([&](term t) { return eval.value(t); });
    };

    auto distinguish = [&](const lf_program& candidate,
                           const std::vector<example>& examples) -> std::optional<io_vector> {
        ++outcome.stats.distinguish_queries;
        // The symbolic input driving both the rival encoding and the
        // candidate. Terms are hash-consed by name, so rebuilding these per
        // round reuses the same nodes (which also keys the cache).
        std::vector<term> x;
        for (unsigned i = 0; i < cfg.num_inputs; ++i)
            x.push_back(tm.mk_bv_var("dx_" + std::to_string(i), cfg.width));
        std::vector<term> assertions = example_assertions(examples);
        auto exec = enc.encode_execution("d", x);
        assertions.push_back(exec.constraint);
        std::vector<term> cand_out = candidate.eval_symbolic(cfg.library, tm, x);
        std::vector<term> differs;
        for (unsigned k = 0; k < cfg.num_outputs; ++k)
            differs.push_back(tm.mk_distinct(exec.outputs[k], cand_out[k]));
        assertions.push_back(tm.mk_or(differs));
        auto result = decide(std::move(assertions));
        if (!result.is_sat()) return std::nullopt;
        substrate::model_evaluator eval(tm, std::move(result.model));
        io_vector input;
        for (unsigned i = 0; i < cfg.num_inputs; ++i) input.push_back(eval.value(x[i]));
        return input;
    };

    auto ask_oracle = [&](const io_vector& in) {
        ++outcome.stats.oracle_queries;
        return oracle.query(in);
    };

    std::vector<io_vector> seeds;
    util::rng rng(cfg.seed);
    for (int s = 0; s < cfg.initial_examples; ++s) {
        io_vector in;
        for (unsigned i = 0; i < cfg.num_inputs; ++i)
            in.push_back(rng.next_u64() & smt::term_manager::mask(cfg.width));
        seeds.push_back(std::move(in));
    }

    auto loop = core::run_ogis<lf_program, io_vector, io_vector>(
        synth, distinguish, ask_oracle, cfg.max_iterations, std::move(seeds));

    outcome.status = loop.status;
    outcome.program = std::move(loop.artifact);
    outcome.stats.iterations = loop.iterations;
    outcome.stats.substrate_cache_hits = engine.stats().cache_hits;
    outcome.stats.solver_runs = engine.stats().solver_runs;
    outcome.stats.elapsed_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    return outcome;
}

core::structure_hypothesis component_library_hypothesis(std::size_t library_size) {
    return {
        .name = "loop-free composition over component library L",
        .artifact_class = "straight-line programs using each of the " +
                          std::to_string(library_size) + " library components exactly once",
        .validity_condition = "L is sufficient: some composition is semantically equivalent to "
                              "the specification (paper Sec. 4.3, Fig. 7)",
        .strictly_restrictive = true,
    };
}

}  // namespace sciduction::ogis
