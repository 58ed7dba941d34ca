// Generic inductive-deductive interaction loops.
//
// Two loop shapes recur throughout the paper:
//
//  * CEGIS (Sec. 2.4.1, from Sketch): a learner proposes a candidate
//    consistent with the examples seen so far; a verifier either accepts or
//    returns a counterexample that becomes a new example.
//
//  * OGIS, oracle-guided inductive synthesis (Sec. 4): no verifier for the
//    full spec exists — only an I/O oracle. The learner proposes a candidate
//    consistent with the observed I/O pairs; a *distinguisher* searches for
//    another consistent-but-semantically-different candidate and an input
//    separating the two. If none exists the candidate is semantically unique
//    within C_H; otherwise the distinguishing input is sent to the oracle
//    and its answer becomes a new example (Goldman-Kearns teaching sets).
//
// Both are written as algorithms over std::function callbacks so that the
// application modules (ogis, invgen, hybrid) instantiate rather than
// re-implement them.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

namespace sciduction::core {

enum class loop_status : unsigned char {
    success,       ///< artifact synthesized (unique / verified)
    unrealizable,  ///< deductive engine proved no candidate exists in C_H
    budget_exhausted
};

template <typename Candidate, typename Example>
struct cegis_result {
    loop_status status = loop_status::budget_exhausted;
    std::optional<Candidate> artifact;
    std::vector<Example> examples;  ///< all counterexamples accumulated
    int iterations = 0;
};

/// Runs the CEGIS loop.
///  synthesize(examples) -> candidate consistent with all examples, or
///                          nullopt if none exists (=> unrealizable);
///  verify(candidate)    -> counterexample, or nullopt if candidate correct.
template <typename Candidate, typename Example>
cegis_result<Candidate, Example> run_cegis(
    const std::function<std::optional<Candidate>(const std::vector<Example>&)>& synthesize,
    const std::function<std::optional<Example>(const Candidate&)>& verify,
    int max_iterations,
    std::vector<Example> initial_examples = {}) {
    cegis_result<Candidate, Example> result;
    result.examples = std::move(initial_examples);
    for (result.iterations = 1; result.iterations <= max_iterations; ++result.iterations) {
        auto candidate = synthesize(result.examples);
        if (!candidate) {
            result.status = loop_status::unrealizable;
            return result;
        }
        auto counterexample = verify(*candidate);
        if (!counterexample) {
            result.status = loop_status::success;
            result.artifact = std::move(candidate);
            return result;
        }
        result.examples.push_back(std::move(*counterexample));
    }
    result.status = loop_status::budget_exhausted;
    return result;
}

template <typename Candidate, typename Input, typename Output>
struct ogis_result {
    loop_status status = loop_status::budget_exhausted;
    std::optional<Candidate> artifact;
    std::vector<std::pair<Input, Output>> examples;  ///< I/O pairs revealed by the oracle
    int iterations = 0;
    std::uint64_t oracle_queries = 0;
};

/// Runs the OGIS loop (paper Sec. 4.2).
///  synthesize(examples)            -> candidate consistent with examples or nullopt;
///  distinguish(candidate,examples) -> input on which some other consistent
///                                     candidate differs, or nullopt if the
///                                     candidate is semantically unique in C_H;
///  oracle(input)                   -> the specification's output.
/// `seed_inputs` are labelled through `oracle` before the first round.
template <typename Candidate, typename Input, typename Output>
ogis_result<Candidate, Input, Output> run_ogis(
    const std::function<std::optional<Candidate>(
        const std::vector<std::pair<Input, Output>>&)>& synthesize,
    const std::function<std::optional<Input>(
        const Candidate&, const std::vector<std::pair<Input, Output>>&)>& distinguish,
    const std::function<Output(const Input&)>& oracle,
    int max_iterations,
    std::vector<Input> seed_inputs = {}) {
    ogis_result<Candidate, Input, Output> result;
    for (const Input& in : seed_inputs) {
        result.examples.emplace_back(in, oracle(in));
        ++result.oracle_queries;
    }
    for (result.iterations = 1; result.iterations <= max_iterations; ++result.iterations) {
        auto candidate = synthesize(result.examples);
        if (!candidate) {
            result.status = loop_status::unrealizable;
            return result;
        }
        auto input = distinguish(*candidate, result.examples);
        if (!input) {
            result.status = loop_status::success;
            result.artifact = std::move(candidate);
            return result;
        }
        result.examples.emplace_back(*input, oracle(*input));
        ++result.oracle_queries;
    }
    result.status = loop_status::budget_exhausted;
    return result;
}

}  // namespace sciduction::core
