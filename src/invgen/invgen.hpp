// Inductive invariant generation by simulation pruning + SAT induction —
// the sciduction instance of paper Sec. 2.4.1:
//
//   "an effective approach to generating inductive invariants is to assume
//    that they have a particular structural form, use simulation/testing to
//    prune out candidates, and then use a SAT/SMT solver or model checker
//    to prove those candidates that remain ... The structure hypothesis H
//    defines the space of candidate invariants as being either constants
//    (literals), equivalences, implications ... The inductive inference
//    engine ... keeps all instances of invariants that match H and are
//    consistent with simulation traces. The deductive engine is a SAT
//    solver."
//
// Counterexamples to induction feed back as simulation patterns, so the
// loop is the classic sciductive interaction: D generates examples for I,
// I's surviving candidates focus D's next proof attempt.
#pragma once

#include <string>

#include "aig/aig.hpp"
#include "core/hypothesis.hpp"
#include "util/rng.hpp"

namespace sciduction::invgen {

/// A candidate invariant over AIG literals.
struct candidate {
    enum class kind : unsigned char {
        constant,    ///< lhs is always true (negate for always-false)
        equivalence, ///< lhs == rhs in all reachable states
        implication  ///< lhs -> rhs in all reachable states
    } k = kind::constant;
    aig::literal lhs = aig::lit_false;
    aig::literal rhs = aig::lit_false;

    [[nodiscard]] std::string to_string() const;
};

struct invgen_config {
    int simulation_rounds = 64;   ///< random walks from the initial state
    int steps_per_round = 16;     ///< sequential depth of each walk
    bool include_implications = false;  ///< O(n^2) candidates; off by default
    int max_induction_iterations = 64;
    std::uint64_t seed = 8;
    /// Warm start: persist the refinement rounds' CNF-level results at
    /// this path (substrate fingerprint cache, see docs/CACHING.md). The
    /// candidate generation is seeded, so a repeated run issues the
    /// identical query stream and answers it from the file instead of
    /// re-searching. Empty = no persistence.
    std::string cache_path{};
};

struct invgen_result {
    std::vector<candidate> proven;         ///< 1-inductive (mutually) invariants
    std::size_t candidates_after_simulation = 0;
    std::size_t dropped_by_induction = 0;
    int induction_iterations = 0;
    core::soundness_report report;
};

/// Generates candidate invariants of the hypothesized forms, prunes them
/// with random simulation, then proves the survivors by mutual 1-induction
/// (dropping candidates falsified by counterexamples-to-induction until the
/// remaining set is inductive).
invgen_result generate_invariants(const aig::aig& circuit, const invgen_config& cfg = {});

/// Options of prove_with_invariants, which decides the base case and then,
/// if it holds, the inductive step, each as one single solve.
struct proof_config {
    /// Warm start: persist the base-case and inductive-step results at
    /// this path (substrate fingerprint cache, see docs/CACHING.md), so
    /// re-proving the same property under the same invariants answers
    /// from the file. Empty = no persistence.
    std::string cache_path{};
};

/// Checks whether `prop` (an AIG literal that must always be true) can be
/// proven by 1-induction strengthened with the given invariants. Sound:
/// `true` means proved; `false` means not provable this way (not a bug
/// report).
bool prove_with_invariants(const aig::aig& circuit, aig::literal prop,
                           const std::vector<candidate>& invariants,
                           const proof_config& cfg = {});

/// The structure hypothesis H of this instance, for reporting.
core::structure_hypothesis invariant_form_hypothesis();

}  // namespace sciduction::invgen
