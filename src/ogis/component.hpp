// Component libraries and loop-free programs (paper Sec. 4).
//
// The structure hypothesis H of the program-synthesis application:
// "Programs are assumed to be loop-free compositions of components drawn
// from a finite component library L. Each component ... is essentially a
// bit-vector circuit." A component carries both a symbolic semantics (an
// smt term builder, used by the deductive engine) and a concrete semantics
// (used when executing synthesized programs), kept in lock-step by tests.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "smt/term.hpp"

namespace sciduction::ogis {

struct component {
    std::string name;
    unsigned arity = 2;
    /// Symbolic semantics over width-w bit-vector terms.
    std::function<smt::term(smt::term_manager&, const std::vector<smt::term>&, unsigned width)>
        symbolic;
    /// Concrete semantics (must agree with `symbolic` bit-for-bit).
    std::function<std::uint64_t(const std::vector<std::uint64_t>&, unsigned width)> concrete;
    /// Binary and f(a, b) == f(b, a). The synthesis encoding then orders
    /// the two operand locations (I_{i,0} <=u I_{i,1}), beside its ordering
    /// of identical components by output location. Both are sound
    /// symmetry breaking: every program has a canonical form satisfying
    /// them (relabel identical components by output slot, then sort each
    /// commutative operand pair) that computes the same function, so
    /// restricting candidate and rival to canonical forms changes neither
    /// the synthesis answer nor whether the candidate is semantically
    /// unique in C_H. The ordering is `<=`, not `<`: add(v0, v0) is legal.
    bool commutative = false;
};

// ---- the standard library ----
component comp_add();
component comp_sub();
component comp_mul();
component comp_and();
component comp_or();
component comp_xor();
component comp_not();
component comp_neg();
component comp_shl_const(unsigned amount);   ///< x << k
component comp_lshr_const(unsigned amount);  ///< x >> k (logical)
component comp_add_const(std::uint64_t c);   ///< x + c
component comp_const(std::uint64_t c);       ///< nullary constant
component comp_ule();                        ///< (x <=u y) ? 1 : 0
component comp_ite();                        ///< c ? a : b  (c is a full word, != 0 tested)

/// A straight-line program over a component library: the artifact class C_H.
/// Value slots 0..num_inputs-1 hold the program inputs; each line applies
/// one library component to earlier slots and defines the next slot.
struct lf_program {
    struct line {
        int component;          ///< index into the library
        std::vector<int> args;  ///< value-slot indices, all < slot of this line
    };

    unsigned width = 32;
    unsigned num_inputs = 0;
    std::vector<line> lines;
    std::vector<int> outputs;  ///< value-slot indices of the program outputs

    /// Concrete execution.
    [[nodiscard]] std::vector<std::uint64_t> eval(const std::vector<component>& library,
                                                  const std::vector<std::uint64_t>& inputs) const;

    /// Symbolic execution: composes the components' term semantics over
    /// symbolic inputs. Used by the distinguishing-input query.
    [[nodiscard]] std::vector<smt::term> eval_symbolic(const std::vector<component>& library,
                                                       smt::term_manager& tm,
                                                       const std::vector<smt::term>& inputs) const;

    /// Pseudo-code rendering, e.g. "v2 = xor(v0, v1)".
    [[nodiscard]] std::string to_string(const std::vector<component>& library) const;
};

}  // namespace sciduction::ogis
