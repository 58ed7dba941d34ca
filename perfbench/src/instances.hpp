// Deciding one standard-format instance the way sciduction_run decides it,
// with the same answer checks, plus the traced replay that splits the
// decision into layers.
#pragma once

#include <optional>
#include <string>

#include "bench.hpp"
#include "substrate/backend.hpp"

namespace perfbench {

/// What deciding one instance produced.
struct verdict {
    sciduction::substrate::answer ans = sciduction::substrate::answer::unknown;
    /// Empty when the instance decided and any sat model re-evaluated true on
    /// the original clauses / assertions; otherwise why not.
    std::string error;
};

/// DIMACS text: frontend (`sat::read_dimacs`) -> `substrate::solve_cnf_dimacs`
/// (strategy single, no cache). Traced: spans around both calls, then a
/// replay on a bare `sat::solver` for the search time and CDCL counters.
verdict decide_cnf(const std::string& text, tracer* tr, layer_sample* layers);

/// SMT-LIB2 text: frontend (`frontend::parse_script`) -> `smt_engine::solve`
/// (strategy single, cache off). Traced: spans around both calls, then a
/// replay on a bare `smt::smt_solver` — `assert_term` per assertion for the
/// blast time and CNF size, `check` for the search time and counters.
verdict decide_smt2(const std::string& text, tracer* tr, layer_sample* layers);

/// "SATISFIABLE" / "UNSATISFIABLE" / "UNKNOWN", as the goldens spell it.
const char* verdict_name(sciduction::substrate::answer a);

}  // namespace perfbench
