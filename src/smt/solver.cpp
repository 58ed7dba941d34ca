#include "smt/solver.hpp"

#include <stdexcept>

namespace sciduction::smt {

using sat::lit;

// ---- circuit building blocks ----------------------------------------------------

smt_solver::bits smt_solver::adder(const bits& a, const bits& b, lit carry_in) {
    bits sum(a.size());
    lit carry = carry_in;
    for (std::size_t i = 0; i < a.size(); ++i) {
        auto [s, c] = gates_.full_adder(a[i], b[i], carry);
        sum[i] = s;
        carry = c;
    }
    return sum;
}

smt_solver::bits smt_solver::negate_bits(const bits& a) {
    bits inv(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) inv[i] = ~a[i];
    return inv;
}

smt_solver::bits smt_solver::multiplier(const bits& a, const bits& b) {
    const std::size_t w = a.size();
    bits acc(w, gates_.constant(false));
    for (std::size_t i = 0; i < w; ++i) {
        // Partial product: (a << i) masked by b[i].
        bits pp(w, gates_.constant(false));
        for (std::size_t j = i; j < w; ++j) pp[j] = gates_.and_gate(a[j - i], b[i]);
        acc = adder(acc, pp, gates_.constant(false));
    }
    return acc;
}

std::pair<smt_solver::bits, smt_solver::bits> smt_solver::divider(const bits& a, const bits& b) {
    const std::size_t w = a.size();
    // Restoring division with a (w+1)-bit remainder register.
    bits r(w + 1, gates_.constant(false));
    bits bx = b;
    bx.push_back(gates_.constant(false));  // zero-extended divisor
    bits q(w, gates_.constant(false));
    for (std::size_t step = 0; step < w; ++step) {
        std::size_t i = w - 1 - step;
        // r = (r << 1) | a[i]
        for (std::size_t k = w + 1; k-- > 1;) r[k] = r[k - 1];
        r[0] = a[i];
        // diff = r - bx ; borrow-free iff r >= bx
        bits diff = adder(r, negate_bits(bx), gates_.constant(true));
        // carry-out of (r + ~bx + 1): recompute the final carry explicitly.
        lit carry = gates_.constant(true);
        for (std::size_t k = 0; k < w + 1; ++k) {
            lit nb = ~bx[k];
            carry = gates_.or_gate(gates_.and_gate(r[k], nb),
                                   gates_.and_gate(carry, gates_.xor_gate(r[k], nb)));
        }
        lit ge = carry;  // r >= bx
        q[i] = ge;
        for (std::size_t k = 0; k < w + 1; ++k) r[k] = gates_.ite_gate(ge, diff[k], r[k]);
    }
    // SMT-LIB: x udiv 0 = all-ones, x urem 0 = x.
    lit bz = gates_.constant(true);
    for (lit l : b) bz = gates_.and_gate(bz, ~l);
    bits quot(w);
    bits rem(w);
    for (std::size_t k = 0; k < w; ++k) {
        quot[k] = gates_.ite_gate(bz, gates_.constant(true), q[k]);
        rem[k] = gates_.ite_gate(bz, a[k], r[k]);
    }
    return {quot, rem};
}

smt_solver::bits smt_solver::shifter(const bits& a, const bits& amount, kind k) {
    const std::size_t w = a.size();
    lit fill = gates_.constant(false);
    if (k == kind::bvashr) fill = a[w - 1];

    bits cur = a;
    std::size_t handled_bits = 0;  // number of low amount bits realised by mux stages
    for (std::size_t stage = 0; (1ULL << stage) < w && stage < amount.size(); ++stage) {
        const std::size_t sh = 1ULL << stage;
        bits next(w);
        for (std::size_t i = 0; i < w; ++i) {
            lit shifted;
            if (k == kind::bvshl) {
                shifted = i >= sh ? cur[i - sh] : gates_.constant(false);
            } else {
                shifted = i + sh < w ? cur[i + sh] : fill;
            }
            next[i] = gates_.ite_gate(amount[stage], shifted, cur[i]);
        }
        cur = next;
        handled_bits = stage + 1;
    }
    // Shift amounts >= w (any higher amount bit set, or handled range could
    // not express w-1) saturate to the fill value.
    lit big = gates_.constant(false);
    for (std::size_t i = handled_bits; i < amount.size(); ++i)
        big = gates_.or_gate(big, amount[i]);
    // If the mux stages cover amounts up to 2^handled_bits - 1 >= w - 1 we are
    // done; otherwise (w == 1) any set amount bit is big. Also amounts in
    // [w, 2^handled_bits - 1] must saturate: compare the handled slice to w-1.
    if (handled_bits > 0) {
        std::uint64_t covered = (1ULL << handled_bits) - 1;
        if (covered >= w) {
            // amount_slice >= w => saturate
            bits slice(amount.begin(),
                       amount.begin() + static_cast<std::ptrdiff_t>(handled_bits));
            // build comparison slice >= w over handled_bits
            bits wconst(handled_bits);
            for (std::size_t i = 0; i < handled_bits; ++i)
                wconst[i] = gates_.constant(((w >> i) & 1) != 0);
            lit lt = ult_chain(slice, wconst);
            big = gates_.or_gate(big, ~lt);
        }
    } else {
        for (lit l : amount) big = gates_.or_gate(big, l);
    }
    bits out(w);
    for (std::size_t i = 0; i < w; ++i) out[i] = gates_.ite_gate(big, fill, cur[i]);
    return out;
}

lit smt_solver::ult_chain(const bits& a, const bits& b) {
    lit lt = gates_.constant(false);
    for (std::size_t i = 0; i < a.size(); ++i) {
        lit eq = gates_.iff_gate(a[i], b[i]);
        lit ai_lt_bi = gates_.and_gate(~a[i], b[i]);
        lt = gates_.or_gate(ai_lt_bi, gates_.and_gate(eq, lt));
    }
    return lt;
}

lit smt_solver::equality(const bits& a, const bits& b) {
    lit eq = gates_.constant(true);
    for (std::size_t i = 0; i < a.size(); ++i)
        eq = gates_.and_gate(eq, gates_.iff_gate(a[i], b[i]));
    return eq;
}

// ---- blasting -------------------------------------------------------------------

std::vector<lit> smt_solver::blast(term t) {
    auto it = cache_.find(t.id);
    if (it != cache_.end()) return it->second;

    const kind k = tm_.kind_of(t);
    const unsigned w = tm_.width_of(t);
    const auto& kids = tm_.children_of(t);
    bits out;

    auto kid_bits = [&](std::size_t i) { return blast(kids[i]); };

    switch (k) {
        case kind::const_bool: out = {gates_.constant(tm_.const_bool_value(t))}; break;
        case kind::const_bv: {
            std::uint64_t v = tm_.const_bv_value(t);
            out.resize(w);
            for (unsigned i = 0; i < w; ++i) out[i] = gates_.constant(((v >> i) & 1) != 0);
            break;
        }
        case kind::var_bool:
            out = {gates_.fresh()};
            blasted_vars_.push_back(t);
            break;
        case kind::var_bv: {
            out.resize(w);
            for (unsigned i = 0; i < w; ++i) out[i] = gates_.fresh();
            blasted_vars_.push_back(t);
            break;
        }
        case kind::not_op: out = {~blast_bool(kids[0])}; break;
        case kind::and_op: out = {gates_.and_gate(blast_bool(kids[0]), blast_bool(kids[1]))}; break;
        case kind::xor_op: out = {gates_.xor_gate(blast_bool(kids[0]), blast_bool(kids[1]))}; break;
        case kind::ite_op: {
            lit c = blast_bool(kids[0]);
            bits tb = kid_bits(1);
            bits eb = kid_bits(2);
            out.resize(w);
            for (unsigned i = 0; i < w; ++i) out[i] = gates_.ite_gate(c, tb[i], eb[i]);
            break;
        }
        case kind::eq_op: out = {equality(kid_bits(0), kid_bits(1))}; break;
        case kind::bvnot: out = negate_bits(kid_bits(0)); break;
        case kind::bvand:
        case kind::bvor:
        case kind::bvxor: {
            bits a = kid_bits(0);
            bits b = kid_bits(1);
            out.resize(w);
            for (unsigned i = 0; i < w; ++i) {
                if (k == kind::bvand) out[i] = gates_.and_gate(a[i], b[i]);
                else if (k == kind::bvor) out[i] = gates_.or_gate(a[i], b[i]);
                else out[i] = gates_.xor_gate(a[i], b[i]);
            }
            break;
        }
        case kind::bvadd: out = adder(kid_bits(0), kid_bits(1), gates_.constant(false)); break;
        case kind::bvsub:
            out = adder(kid_bits(0), negate_bits(kid_bits(1)), gates_.constant(true));
            break;
        case kind::bvmul: out = multiplier(kid_bits(0), kid_bits(1)); break;
        case kind::bvudiv: out = divider(kid_bits(0), kid_bits(1)).first; break;
        case kind::bvurem: out = divider(kid_bits(0), kid_bits(1)).second; break;
        case kind::bvshl:
        case kind::bvlshr:
        case kind::bvashr: out = shifter(kid_bits(0), kid_bits(1), k); break;
        case kind::concat: {
            bits lo = kid_bits(1);
            bits hi = kid_bits(0);
            out = lo;
            out.insert(out.end(), hi.begin(), hi.end());
            break;
        }
        case kind::extract: {
            bits a = kid_bits(0);
            unsigned lo = static_cast<unsigned>(tm_.payload_of(t) & 0xffffffffU);
            out.assign(a.begin() + lo, a.begin() + lo + w);
            break;
        }
        case kind::zext: {
            out = kid_bits(0);
            out.resize(w, gates_.constant(false));
            break;
        }
        case kind::sext: {
            out = kid_bits(0);
            lit sign = out.back();
            out.resize(w, sign);
            break;
        }
        case kind::ult: out = {ult_chain(kid_bits(0), kid_bits(1))}; break;
        case kind::ule: out = {~ult_chain(kid_bits(1), kid_bits(0))}; break;
        case kind::slt:
        case kind::sle: {
            bits a = kid_bits(0);
            bits b = kid_bits(1);
            // Signed comparison == unsigned comparison with MSB flipped.
            a.back() = ~a.back();
            b.back() = ~b.back();
            if (k == kind::slt) out = {ult_chain(a, b)};
            else out = {~ult_chain(b, a)};
            break;
        }
        default: throw std::logic_error("blast: unexpected kind");
    }

    cache_.emplace(t.id, out);
    return out;
}

lit smt_solver::blast_bool(term t) {
    if (!tm_.is_bool(t)) throw std::invalid_argument("blast_bool: not boolean");
    return blast(t)[0];
}

// ---- public API ----------------------------------------------------------------

void smt_solver::assert_term(term t) {
    lit l = blast_bool(t);
    sat_.add_clause(l);
}

check_result smt_solver::check(const std::vector<term>& assumptions) {
    std::vector<lit> assumed;
    assumed.reserve(assumptions.size());
    for (term t : assumptions) assumed.push_back(blast_bool(t));
    return check_under(assumed);
}

check_result smt_solver::check_under(const std::vector<sat::lit>& assumptions) {
    auto r = sat_.solve(assumptions);
    if (r == sat::solve_result::unknown) return check_result::unknown;
    return r == sat::solve_result::sat ? check_result::sat : check_result::unsat;
}

env smt_solver::model_env() const {
    env e;
    for (term v : blasted_vars_) {
        const bits& bs = cache_.at(v.id);
        std::uint64_t val = 0;
        for (std::size_t i = 0; i < bs.size(); ++i)
            if (sat_.model_lit(bs[i])) val |= 1ULL << i;
        e[v.id] = val;
    }
    return e;
}

std::uint64_t smt_solver::model_value(term t) const {
    // Unblasted variables are unconstrained; model completion reads them as zero.
    return tm_.evaluate_completed(t, model_env());
}

}  // namespace sciduction::smt
