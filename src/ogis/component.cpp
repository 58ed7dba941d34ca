#include "ogis/component.hpp"

#include <sstream>
#include <stdexcept>

namespace sciduction::ogis {

namespace {

std::uint64_t mask_of(unsigned w) { return smt::term_manager::mask(w); }

}  // namespace

component comp_add() {
    return {"add", 2,
            [](smt::term_manager& tm, const std::vector<smt::term>& a, unsigned) {
                return tm.mk_bvadd(a[0], a[1]);
            },
            [](const std::vector<std::uint64_t>& a, unsigned w) {
                return (a[0] + a[1]) & mask_of(w);
            },
            /*commutative=*/true};
}

component comp_sub() {
    return {"sub", 2,
            [](smt::term_manager& tm, const std::vector<smt::term>& a, unsigned) {
                return tm.mk_bvsub(a[0], a[1]);
            },
            [](const std::vector<std::uint64_t>& a, unsigned w) {
                return (a[0] - a[1]) & mask_of(w);
            }};
}

component comp_mul() {
    return {"mul", 2,
            [](smt::term_manager& tm, const std::vector<smt::term>& a, unsigned) {
                return tm.mk_bvmul(a[0], a[1]);
            },
            [](const std::vector<std::uint64_t>& a, unsigned w) {
                return (a[0] * a[1]) & mask_of(w);
            },
            /*commutative=*/true};
}

component comp_and() {
    return {"and", 2,
            [](smt::term_manager& tm, const std::vector<smt::term>& a, unsigned) {
                return tm.mk_bvand(a[0], a[1]);
            },
            [](const std::vector<std::uint64_t>& a, unsigned) { return a[0] & a[1]; },
            /*commutative=*/true};
}

component comp_or() {
    return {"or", 2,
            [](smt::term_manager& tm, const std::vector<smt::term>& a, unsigned) {
                return tm.mk_bvor(a[0], a[1]);
            },
            [](const std::vector<std::uint64_t>& a, unsigned) { return a[0] | a[1]; },
            /*commutative=*/true};
}

component comp_xor() {
    return {"xor", 2,
            [](smt::term_manager& tm, const std::vector<smt::term>& a, unsigned) {
                return tm.mk_bvxor(a[0], a[1]);
            },
            [](const std::vector<std::uint64_t>& a, unsigned) { return a[0] ^ a[1]; },
            /*commutative=*/true};
}

component comp_not() {
    return {"not", 1,
            [](smt::term_manager& tm, const std::vector<smt::term>& a, unsigned) {
                return tm.mk_bvnot(a[0]);
            },
            [](const std::vector<std::uint64_t>& a, unsigned w) { return ~a[0] & mask_of(w); }};
}

component comp_neg() {
    return {"neg", 1,
            [](smt::term_manager& tm, const std::vector<smt::term>& a, unsigned) {
                return tm.mk_bvneg(a[0]);
            },
            [](const std::vector<std::uint64_t>& a, unsigned w) { return (0 - a[0]) & mask_of(w); }};
}

component comp_shl_const(unsigned amount) {
    return {"shl" + std::to_string(amount), 1,
            [amount](smt::term_manager& tm, const std::vector<smt::term>& a, unsigned) {
                unsigned w = tm.width_of(a[0]);
                return tm.mk_bvshl(a[0], tm.mk_bv_const(w, amount));
            },
            [amount](const std::vector<std::uint64_t>& a, unsigned w) {
                return amount >= w ? 0 : (a[0] << amount) & mask_of(w);
            }};
}

component comp_lshr_const(unsigned amount) {
    return {"lshr" + std::to_string(amount), 1,
            [amount](smt::term_manager& tm, const std::vector<smt::term>& a, unsigned) {
                unsigned w = tm.width_of(a[0]);
                return tm.mk_bvlshr(a[0], tm.mk_bv_const(w, amount));
            },
            [amount](const std::vector<std::uint64_t>& a, unsigned w) {
                return amount >= w ? 0 : (a[0] & mask_of(w)) >> amount;
            }};
}

component comp_add_const(std::uint64_t c) {
    return {"add" + std::to_string(c), 1,
            [c](smt::term_manager& tm, const std::vector<smt::term>& a, unsigned) {
                unsigned w = tm.width_of(a[0]);
                return tm.mk_bvadd(a[0], tm.mk_bv_const(w, c));
            },
            [c](const std::vector<std::uint64_t>& a, unsigned w) {
                return (a[0] + c) & mask_of(w);
            }};
}

component comp_const(std::uint64_t c) {
    return {"const" + std::to_string(c), 0,
            [c](smt::term_manager& tm, const std::vector<smt::term>&, unsigned w) {
                return tm.mk_bv_const(w, c);
            },
            [c](const std::vector<std::uint64_t>&, unsigned w) { return c & mask_of(w); }};
}

component comp_ule() {
    return {"ule", 2,
            [](smt::term_manager& tm, const std::vector<smt::term>& a, unsigned) {
                unsigned w = tm.width_of(a[0]);
                return tm.mk_ite(tm.mk_ule(a[0], a[1]), tm.mk_bv_const(w, 1),
                                 tm.mk_bv_const(w, 0));
            },
            [](const std::vector<std::uint64_t>& a, unsigned) -> std::uint64_t {
                return a[0] <= a[1] ? 1 : 0;
            }};
}

component comp_ite() {
    return {"ite", 3,
            [](smt::term_manager& tm, const std::vector<smt::term>& a, unsigned) {
                unsigned w = tm.width_of(a[0]);
                return tm.mk_ite(tm.mk_distinct(a[0], tm.mk_bv_const(w, 0)), a[1], a[2]);
            },
            [](const std::vector<std::uint64_t>& a, unsigned) {
                return a[0] != 0 ? a[1] : a[2];
            }};
}

std::vector<std::uint64_t> lf_program::eval(const std::vector<component>& library,
                                            const std::vector<std::uint64_t>& inputs) const {
    if (inputs.size() != num_inputs) throw std::invalid_argument("lf_program::eval: arity");
    std::vector<std::uint64_t> slots(inputs);
    for (auto& v : slots) v &= smt::term_manager::mask(width);
    for (const line& l : lines) {
        const component& c = library[static_cast<std::size_t>(l.component)];
        std::vector<std::uint64_t> args;
        args.reserve(l.args.size());
        for (int a : l.args) args.push_back(slots[static_cast<std::size_t>(a)]);
        slots.push_back(c.concrete(args, width) & smt::term_manager::mask(width));
    }
    std::vector<std::uint64_t> out;
    out.reserve(outputs.size());
    for (int o : outputs) out.push_back(slots[static_cast<std::size_t>(o)]);
    return out;
}

std::vector<smt::term> lf_program::eval_symbolic(const std::vector<component>& library,
                                                 smt::term_manager& tm,
                                                 const std::vector<smt::term>& inputs) const {
    if (inputs.size() != num_inputs) throw std::invalid_argument("lf_program::eval_symbolic: arity");
    std::vector<smt::term> slots(inputs);
    for (const line& l : lines) {
        const component& c = library[static_cast<std::size_t>(l.component)];
        std::vector<smt::term> args;
        args.reserve(l.args.size());
        for (int a : l.args) args.push_back(slots[static_cast<std::size_t>(a)]);
        slots.push_back(c.symbolic(tm, args, width));
    }
    std::vector<smt::term> out;
    out.reserve(outputs.size());
    for (int o : outputs) out.push_back(slots[static_cast<std::size_t>(o)]);
    return out;
}

std::string lf_program::to_string(const std::vector<component>& library) const {
    std::ostringstream os;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const line& l = lines[i];
        os << "v" << (num_inputs + i) << " = "
           << library[static_cast<std::size_t>(l.component)].name << "(";
        for (std::size_t j = 0; j < l.args.size(); ++j) {
            if (j != 0) os << ", ";
            os << "v" << l.args[j];
        }
        os << ")\n";
    }
    os << "return (";
    for (std::size_t k = 0; k < outputs.size(); ++k) {
        if (k != 0) os << ", ";
        os << "v" << outputs[k];
    }
    os << ")";
    return os.str();
}

}  // namespace sciduction::ogis
