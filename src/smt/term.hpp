// Hash-consed term DAG for QF_BV (quantifier-free bit-vectors) plus the
// boolean connectives.
//
// This is the language in which all deductive queries of the GameTime
// (Sec. 3) and program-synthesis (Sec. 4) applications are phrased: path
// feasibility formulas, component-connection encodings, distinguishing-input
// queries. Terms are immutable, deduplicated, and constant-folded at
// construction.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace sciduction::smt {

/// Opaque handle to a node in a term_manager. Cheap to copy and compare.
struct term {
    std::uint32_t id = 0xffffffffU;

    [[nodiscard]] bool valid() const { return id != 0xffffffffU; }
    friend bool operator==(term a, term b) { return a.id == b.id; }
    friend bool operator!=(term a, term b) { return a.id != b.id; }
    friend bool operator<(term a, term b) { return a.id < b.id; }
};

enum class kind : std::uint8_t {
    // leaves
    const_bool,
    const_bv,
    var_bool,
    var_bv,
    // boolean connectives
    not_op,
    and_op,
    or_op,
    xor_op,
    implies_op,
    iff_op,
    // mixed-sort
    ite_op,  // condition bool, branches share sort
    eq_op,   // both children same sort; result bool
    // bit-vector operations (result bv)
    bvnot,
    bvneg,
    bvand,
    bvor,
    bvxor,
    bvadd,
    bvsub,
    bvmul,
    bvudiv,  // division by zero yields all-ones (SMT-LIB semantics)
    bvurem,  // remainder by zero yields the dividend (SMT-LIB semantics)
    bvshl,
    bvlshr,
    bvashr,
    concat,
    extract,  // payload packs (hi << 32) | lo
    zext,     // payload = result width
    sext,     // payload = result width
    // bit-vector predicates (result bool)
    ult,
    ule,
    slt,
    sle,
};

/// Assignment of concrete values to variable terms, used by the evaluator.
/// Boolean variables store 0/1; bit-vector variables store the (masked) value.
using env = std::unordered_map<std::uint32_t, std::uint64_t>;

/// Owns and hash-conses all terms. Construction applies constant folding and
/// cheap local rewrites, so structurally equal simplifiable expressions
/// collapse to one node.
class term_manager {
public:
    term_manager();

    // ---- leaves ----
    term mk_bool_const(bool b);
    term mk_bv_const(unsigned width, std::uint64_t value);
    term mk_bool_var(const std::string& name);
    term mk_bv_var(const std::string& name, unsigned width);

    // ---- boolean connectives ----
    term mk_not(term a);
    term mk_and(term a, term b);
    term mk_or(term a, term b);
    term mk_xor(term a, term b);
    term mk_implies(term a, term b);
    term mk_iff(term a, term b);
    term mk_and(const std::vector<term>& ts);
    term mk_or(const std::vector<term>& ts);

    // ---- mixed ----
    term mk_ite(term c, term t, term e);
    term mk_eq(term a, term b);
    term mk_distinct(term a, term b) { return mk_not(mk_eq(a, b)); }

    // ---- bit-vector ----
    term mk_bvnot(term a);
    term mk_bvneg(term a);
    term mk_bvand(term a, term b);
    term mk_bvor(term a, term b);
    term mk_bvxor(term a, term b);
    term mk_bvadd(term a, term b);
    term mk_bvsub(term a, term b);
    term mk_bvmul(term a, term b);
    term mk_bvudiv(term a, term b);
    term mk_bvurem(term a, term b);
    term mk_bvshl(term a, term b);
    term mk_bvlshr(term a, term b);
    term mk_bvashr(term a, term b);
    term mk_concat(term hi, term lo);
    term mk_extract(term a, unsigned hi, unsigned lo);
    term mk_zext(term a, unsigned new_width);
    term mk_sext(term a, unsigned new_width);

    // ---- predicates ----
    term mk_ult(term a, term b);
    term mk_ule(term a, term b);
    term mk_ugt(term a, term b) { return mk_ult(b, a); }
    term mk_uge(term a, term b) { return mk_ule(b, a); }
    term mk_slt(term a, term b);
    term mk_sle(term a, term b);
    term mk_sgt(term a, term b) { return mk_slt(b, a); }
    term mk_sge(term a, term b) { return mk_sle(b, a); }

    // ---- inspection ----
    [[nodiscard]] kind kind_of(term t) const;
    /// Width of a bit-vector term; 0 for boolean terms.
    [[nodiscard]] unsigned width_of(term t) const;
    [[nodiscard]] bool is_bool(term t) const { return width_of(t) == 0; }
    [[nodiscard]] const std::vector<term>& children_of(term t) const;
    [[nodiscard]] std::uint64_t payload_of(term t) const;
    [[nodiscard]] bool is_const(term t) const;
    [[nodiscard]] bool const_bool_value(term t) const;
    [[nodiscard]] std::uint64_t const_bv_value(term t) const;
    [[nodiscard]] const std::string& var_name(term t) const;
    [[nodiscard]] std::size_t num_terms() const { return nodes_.size(); }

    /// Process-unique identity of this manager instance (monotonically
    /// assigned at construction, never reused). Lets caches that key
    /// per-manager scratch detect a new manager reusing a dead one's
    /// address exactly, instead of by heuristic.
    [[nodiscard]] std::uint64_t uid() const { return uid_; }

    /// Concrete evaluation under an environment mapping variable ids to
    /// values. Throws std::out_of_range on an unbound variable.
    [[nodiscard]] std::uint64_t evaluate(term t, const env& e) const;
    /// evaluate() with model completion: variables unbound in `e` read as
    /// zero, the value a solver model leaves unconstrained variables at.
    [[nodiscard]] std::uint64_t evaluate_completed(term t, const env& e) const;

    /// SMT-LIB-flavoured rendering, for debugging and documentation.
    [[nodiscard]] std::string to_string(term t) const;

    static std::uint64_t mask(unsigned width) {
        return width >= 64 ? ~0ULL : ((1ULL << width) - 1);
    }

private:
    struct node {
        kind k;
        unsigned width;  // 0 == bool
        std::vector<term> kids;
        std::uint64_t payload;  // const value | name index | extract bounds | ext width
    };

    struct node_key {
        kind k;
        unsigned width;
        std::uint64_t payload;
        std::vector<std::uint32_t> kids;

        bool operator==(const node_key&) const = default;
    };
    struct node_key_hash {
        std::size_t operator()(const node_key& n) const;
    };

    term intern(node n);
    term fold_binary_bv(kind k, term a, term b);
    std::uint64_t evaluate_under(term t, const env& e, bool complete) const;
    [[nodiscard]] const node& at(term t) const { return nodes_[t.id]; }

    std::uint64_t uid_;
    std::vector<node> nodes_;
    std::unordered_map<node_key, std::uint32_t, node_key_hash> table_;
    std::vector<std::string> names_;
    std::unordered_map<std::string, std::uint64_t> name_index_;
    std::unordered_map<std::string, unsigned> var_sorts_;  // 0 == bool
    term true_term_;
    term false_term_;
};

}  // namespace sciduction::smt
