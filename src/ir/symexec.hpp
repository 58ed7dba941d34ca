// Symbolic execution of CFG paths into QF_BV formulas.
//
// This is the deductive half of GameTime's basis-path machinery (paper
// Sec. 3.2): "from each candidate basis path, an SMT formula is generated
// such that the formula is satisfiable iff the path is feasible", and a
// satisfying assignment is the test case driving execution down the path.
#pragma once

#include <unordered_map>

#include "ir/cfg.hpp"
#include "smt/solver.hpp"
#include "substrate/engine.hpp"

namespace sciduction::ir {

struct path_encoding {
    /// Conjunction of branch constraints along the path; satisfiable iff the
    /// path is feasible.
    smt::term path_condition;
    /// Function parameters as symbolic inputs, in declaration order.
    std::vector<smt::term> params;
    /// The symbolic return value of the path (valid() iff the path's final
    /// edge is a return edge).
    smt::term return_value;
};

/// Encodes one source-to-sink path of the CFG. Array accesses must use
/// constant indices (dynamic indices would need the array theory; the
/// paper's benchmarks do not require it — the interpreter covers them).
path_encoding encode_path(const cfg& g, const path& p, smt::term_manager& tm);

/// Convenience wrapper: decide feasibility of a path and, if feasible,
/// return the argument tuple driving execution down it. The term_manager
/// overload runs a transient uncached engine; the engine overload decides
/// a single solve through the caller's engine on the calling thread, so
/// repeated feasibility queries — e.g. GameTime re-checking the predicted
/// longest path — hit its cache.
std::optional<std::vector<std::uint64_t>> feasible_path_witness(const cfg& g, const path& p,
                                                                smt::term_manager& tm);
std::optional<std::vector<std::uint64_t>> feasible_path_witness(const cfg& g, const path& p,
                                                                substrate::smt_engine& engine);

/// The general form the engine overload above delegates to (with
/// substrate::strategy::single): decide feasibility under an explicit
/// per-request strategy — e.g. substrate::strategy::shard(2) for one hard
/// path, or substrate::strategy{} (automatic) to let the classifier pick
/// per query shape.
std::optional<std::vector<std::uint64_t>> feasible_path_witness_with(
    const cfg& g, const path& p, substrate::smt_engine& engine, substrate::strategy strat);

}  // namespace sciduction::ir
