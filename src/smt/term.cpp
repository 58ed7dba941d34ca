#include "smt/term.hpp"

#include <atomic>
#include <sstream>
#include <stdexcept>

namespace sciduction::smt {

namespace {

std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h;
}

std::int64_t to_signed(std::uint64_t v, unsigned width) {
    if (width < 64 && (v >> (width - 1)) != 0) {
        return static_cast<std::int64_t>(v | ~term_manager::mask(width));
    }
    return static_cast<std::int64_t>(v);
}

}  // namespace

std::size_t term_manager::node_key_hash::operator()(const node_key& n) const {
    std::uint64_t h = static_cast<std::uint64_t>(n.k) * 0x100000001b3ULL;
    h = hash_mix(h, n.width);
    h = hash_mix(h, n.payload);
    for (auto kid : n.kids) h = hash_mix(h, kid);
    return static_cast<std::size_t>(h);
}

term_manager::term_manager() {
    static std::atomic<std::uint64_t> next_uid{0};
    uid_ = ++next_uid;
    true_term_ = intern({kind::const_bool, 0, {}, 1});
    false_term_ = intern({kind::const_bool, 0, {}, 0});
}

term term_manager::intern(node n) {
    node_key key{n.k, n.width, n.payload, {}};
    key.kids.reserve(n.kids.size());
    for (term t : n.kids) key.kids.push_back(t.id);
    auto it = table_.find(key);
    if (it != table_.end()) return term{it->second};
    std::uint32_t id = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(std::move(n));
    table_.emplace(std::move(key), id);
    return term{id};
}

// ---- leaves -----------------------------------------------------------------

term term_manager::mk_bool_const(bool b) { return b ? true_term_ : false_term_; }

term term_manager::mk_bv_const(unsigned width, std::uint64_t value) {
    if (width == 0 || width > 64) throw std::invalid_argument("mk_bv_const: bad width");
    return intern({kind::const_bv, width, {}, value & mask(width)});
}

term term_manager::mk_bool_var(const std::string& name) {
    auto [it, inserted] = name_index_.emplace(name, names_.size());
    if (inserted) {
        names_.push_back(name);
        var_sorts_[name] = 0;
    } else if (var_sorts_.at(name) != 0) {
        throw std::invalid_argument("mk_bool_var: sort clash for " + name);
    }
    return intern({kind::var_bool, 0, {}, it->second});
}

term term_manager::mk_bv_var(const std::string& name, unsigned width) {
    if (width == 0 || width > 64) throw std::invalid_argument("mk_bv_var: bad width");
    auto [it, inserted] = name_index_.emplace(name, names_.size());
    if (inserted) {
        names_.push_back(name);
        var_sorts_[name] = width;
    } else if (var_sorts_.at(name) != width) {
        throw std::invalid_argument("mk_bv_var: width clash for " + name);
    }
    return intern({kind::var_bv, width, {}, it->second});
}

// ---- inspection ----------------------------------------------------------------

kind term_manager::kind_of(term t) const { return at(t).k; }
unsigned term_manager::width_of(term t) const { return at(t).width; }
const std::vector<term>& term_manager::children_of(term t) const { return at(t).kids; }
std::uint64_t term_manager::payload_of(term t) const { return at(t).payload; }

bool term_manager::is_const(term t) const {
    kind k = at(t).k;
    return k == kind::const_bool || k == kind::const_bv;
}

bool term_manager::const_bool_value(term t) const {
    if (at(t).k != kind::const_bool) throw std::logic_error("not a bool constant");
    return at(t).payload != 0;
}

std::uint64_t term_manager::const_bv_value(term t) const {
    if (at(t).k != kind::const_bv) throw std::logic_error("not a bv constant");
    return at(t).payload;
}

const std::string& term_manager::var_name(term t) const {
    kind k = at(t).k;
    if (k != kind::var_bool && k != kind::var_bv) throw std::logic_error("not a variable");
    return names_[at(t).payload];
}

// ---- boolean connectives ---------------------------------------------------------

term term_manager::mk_not(term a) {
    if (!is_bool(a)) throw std::invalid_argument("mk_not: not boolean");
    if (is_const(a)) return mk_bool_const(!const_bool_value(a));
    if (kind_of(a) == kind::not_op) return children_of(a)[0];
    return intern({kind::not_op, 0, {a}, 0});
}

term term_manager::mk_and(term a, term b) {
    if (!is_bool(a) || !is_bool(b)) throw std::invalid_argument("mk_and: not boolean");
    if (a == false_term_ || b == false_term_) return false_term_;
    if (a == true_term_) return b;
    if (b == true_term_) return a;
    if (a == b) return a;
    if (mk_not(a) == b) return false_term_;
    if (b < a) std::swap(a, b);
    return intern({kind::and_op, 0, {a, b}, 0});
}

term term_manager::mk_or(term a, term b) { return mk_not(mk_and(mk_not(a), mk_not(b))); }

term term_manager::mk_xor(term a, term b) {
    if (!is_bool(a) || !is_bool(b)) throw std::invalid_argument("mk_xor: not boolean");
    if (a == false_term_) return b;
    if (b == false_term_) return a;
    if (a == true_term_) return mk_not(b);
    if (b == true_term_) return mk_not(a);
    if (a == b) return false_term_;
    if (mk_not(a) == b) return true_term_;
    if (b < a) std::swap(a, b);
    return intern({kind::xor_op, 0, {a, b}, 0});
}

term term_manager::mk_implies(term a, term b) { return mk_or(mk_not(a), b); }
term term_manager::mk_iff(term a, term b) { return mk_not(mk_xor(a, b)); }

term term_manager::mk_and(const std::vector<term>& ts) {
    term acc = true_term_;
    for (term t : ts) acc = mk_and(acc, t);
    return acc;
}

term term_manager::mk_or(const std::vector<term>& ts) {
    term acc = false_term_;
    for (term t : ts) acc = mk_or(acc, t);
    return acc;
}

// ---- mixed -------------------------------------------------------------------------

term term_manager::mk_ite(term c, term t, term e) {
    if (!is_bool(c)) throw std::invalid_argument("mk_ite: condition not boolean");
    if (width_of(t) != width_of(e)) throw std::invalid_argument("mk_ite: branch sort mismatch");
    if (c == true_term_) return t;
    if (c == false_term_) return e;
    if (t == e) return t;
    if (is_bool(t)) {
        // (ite c t e) == (c & t) | (!c & e)
        return mk_or(mk_and(c, t), mk_and(mk_not(c), e));
    }
    return intern({kind::ite_op, width_of(t), {c, t, e}, 0});
}

term term_manager::mk_eq(term a, term b) {
    if (width_of(a) != width_of(b)) throw std::invalid_argument("mk_eq: sort mismatch");
    if (a == b) return true_term_;
    if (is_bool(a)) return mk_iff(a, b);
    if (is_const(a) && is_const(b)) return mk_bool_const(const_bv_value(a) == const_bv_value(b));
    if (b < a) std::swap(a, b);
    return intern({kind::eq_op, 0, {a, b}, 0});
}

// ---- bit-vector helpers ---------------------------------------------------------------

namespace {

/// Constant semantics shared by folding, the interpreter, and tests.
std::uint64_t eval_bv_op(kind k, unsigned w, std::uint64_t a, std::uint64_t b) {
    const std::uint64_t m = term_manager::mask(w);
    switch (k) {
        case kind::bvand: return a & b;
        case kind::bvor: return a | b;
        case kind::bvxor: return a ^ b;
        case kind::bvadd: return (a + b) & m;
        case kind::bvsub: return (a - b) & m;
        case kind::bvmul: return (a * b) & m;
        case kind::bvudiv: return b == 0 ? m : (a / b) & m;
        case kind::bvurem: return b == 0 ? a : (a % b) & m;
        case kind::bvshl: return b >= w ? 0 : (a << b) & m;
        case kind::bvlshr: return b >= w ? 0 : (a >> b);
        case kind::bvashr: {
            bool sign = w > 0 && ((a >> (w - 1)) & 1) != 0;
            if (b >= w) return sign ? m : 0;
            std::uint64_t r = a >> b;
            if (sign) r |= m & ~(m >> b);
            return r & m;
        }
        default: throw std::logic_error("eval_bv_op: not a binary bv op");
    }
}

}  // namespace

term term_manager::fold_binary_bv(kind k, term a, term b) {
    unsigned w = width_of(a);
    if (w == 0 || w != width_of(b)) throw std::invalid_argument("bv op: sort mismatch");
    if (is_const(a) && is_const(b))
        return mk_bv_const(w, eval_bv_op(k, w, const_bv_value(a), const_bv_value(b)));

    const term zero = mk_bv_const(w, 0);
    const term ones = mk_bv_const(w, mask(w));
    switch (k) {
        case kind::bvand:
            if (a == zero || b == zero) return zero;
            if (a == ones) return b;
            if (b == ones) return a;
            if (a == b) return a;
            break;
        case kind::bvor:
            if (a == ones || b == ones) return ones;
            if (a == zero) return b;
            if (b == zero) return a;
            if (a == b) return a;
            break;
        case kind::bvxor:
            if (a == zero) return b;
            if (b == zero) return a;
            if (a == b) return zero;
            break;
        case kind::bvadd:
            if (a == zero) return b;
            if (b == zero) return a;
            break;
        case kind::bvsub:
            if (b == zero) return a;
            if (a == b) return zero;
            break;
        case kind::bvmul:
            if (a == zero || b == zero) return zero;
            if (a == mk_bv_const(w, 1)) return b;
            if (b == mk_bv_const(w, 1)) return a;
            break;
        case kind::bvshl:
        case kind::bvlshr:
        case kind::bvashr:
            if (b == zero) return a;
            if (a == zero) return zero;
            break;
        default: break;
    }
    // Normalize commutative operand order for sharing.
    if ((k == kind::bvand || k == kind::bvor || k == kind::bvxor || k == kind::bvadd ||
         k == kind::bvmul) &&
        b < a)
        std::swap(a, b);
    return intern({k, w, {a, b}, 0});
}

term term_manager::mk_bvnot(term a) {
    unsigned w = width_of(a);
    if (w == 0) throw std::invalid_argument("mk_bvnot: not a bv");
    if (is_const(a)) return mk_bv_const(w, ~const_bv_value(a));
    if (kind_of(a) == kind::bvnot) return children_of(a)[0];
    return intern({kind::bvnot, w, {a}, 0});
}

term term_manager::mk_bvneg(term a) {
    unsigned w = width_of(a);
    if (w == 0) throw std::invalid_argument("mk_bvneg: not a bv");
    if (is_const(a)) return mk_bv_const(w, ~const_bv_value(a) + 1);
    return mk_bvadd(mk_bvnot(a), mk_bv_const(w, 1));
}

term term_manager::mk_bvand(term a, term b) { return fold_binary_bv(kind::bvand, a, b); }
term term_manager::mk_bvor(term a, term b) { return fold_binary_bv(kind::bvor, a, b); }
term term_manager::mk_bvxor(term a, term b) { return fold_binary_bv(kind::bvxor, a, b); }
term term_manager::mk_bvadd(term a, term b) { return fold_binary_bv(kind::bvadd, a, b); }
term term_manager::mk_bvsub(term a, term b) { return fold_binary_bv(kind::bvsub, a, b); }
term term_manager::mk_bvmul(term a, term b) { return fold_binary_bv(kind::bvmul, a, b); }
term term_manager::mk_bvudiv(term a, term b) { return fold_binary_bv(kind::bvudiv, a, b); }
term term_manager::mk_bvurem(term a, term b) { return fold_binary_bv(kind::bvurem, a, b); }
term term_manager::mk_bvshl(term a, term b) { return fold_binary_bv(kind::bvshl, a, b); }
term term_manager::mk_bvlshr(term a, term b) { return fold_binary_bv(kind::bvlshr, a, b); }
term term_manager::mk_bvashr(term a, term b) { return fold_binary_bv(kind::bvashr, a, b); }

term term_manager::mk_concat(term hi, term lo) {
    unsigned wh = width_of(hi);
    unsigned wl = width_of(lo);
    if (wh == 0 || wl == 0) throw std::invalid_argument("mk_concat: not bit-vectors");
    if (wh + wl > 64) throw std::invalid_argument("mk_concat: result exceeds 64 bits");
    if (is_const(hi) && is_const(lo))
        return mk_bv_const(wh + wl, (const_bv_value(hi) << wl) | const_bv_value(lo));
    return intern({kind::concat, wh + wl, {hi, lo}, 0});
}

term term_manager::mk_extract(term a, unsigned hi, unsigned lo) {
    unsigned w = width_of(a);
    if (w == 0 || hi >= w || lo > hi) throw std::invalid_argument("mk_extract: bad bounds");
    if (lo == 0 && hi == w - 1) return a;
    if (is_const(a)) return mk_bv_const(hi - lo + 1, const_bv_value(a) >> lo);
    return intern(
        {kind::extract, hi - lo + 1, {a}, (static_cast<std::uint64_t>(hi) << 32) | lo});
}

term term_manager::mk_zext(term a, unsigned new_width) {
    unsigned w = width_of(a);
    if (w == 0 || new_width < w || new_width > 64)
        throw std::invalid_argument("mk_zext: bad width");
    if (new_width == w) return a;
    if (is_const(a)) return mk_bv_const(new_width, const_bv_value(a));
    return intern({kind::zext, new_width, {a}, new_width});
}

term term_manager::mk_sext(term a, unsigned new_width) {
    unsigned w = width_of(a);
    if (w == 0 || new_width < w || new_width > 64)
        throw std::invalid_argument("mk_sext: bad width");
    if (new_width == w) return a;
    if (is_const(a)) {
        std::uint64_t v = const_bv_value(a);
        if ((v >> (w - 1)) & 1) v |= mask(new_width) & ~mask(w);
        return mk_bv_const(new_width, v);
    }
    return intern({kind::sext, new_width, {a}, new_width});
}

term term_manager::mk_ult(term a, term b) {
    if (width_of(a) == 0 || width_of(a) != width_of(b))
        throw std::invalid_argument("mk_ult: sort mismatch");
    if (a == b) return false_term_;
    if (is_const(a) && is_const(b)) return mk_bool_const(const_bv_value(a) < const_bv_value(b));
    if (is_const(b) && const_bv_value(b) == 0) return false_term_;
    return intern({kind::ult, 0, {a, b}, 0});
}

term term_manager::mk_ule(term a, term b) {
    if (width_of(a) == 0 || width_of(a) != width_of(b))
        throw std::invalid_argument("mk_ule: sort mismatch");
    if (a == b) return true_term_;
    if (is_const(a) && is_const(b)) return mk_bool_const(const_bv_value(a) <= const_bv_value(b));
    if (is_const(a) && const_bv_value(a) == 0) return true_term_;
    return intern({kind::ule, 0, {a, b}, 0});
}

term term_manager::mk_slt(term a, term b) {
    unsigned w = width_of(a);
    if (w == 0 || w != width_of(b)) throw std::invalid_argument("mk_slt: sort mismatch");
    if (a == b) return false_term_;
    if (is_const(a) && is_const(b))
        return mk_bool_const(to_signed(const_bv_value(a), w) < to_signed(const_bv_value(b), w));
    return intern({kind::slt, 0, {a, b}, 0});
}

term term_manager::mk_sle(term a, term b) {
    unsigned w = width_of(a);
    if (w == 0 || w != width_of(b)) throw std::invalid_argument("mk_sle: sort mismatch");
    if (a == b) return true_term_;
    if (is_const(a) && is_const(b))
        return mk_bool_const(to_signed(const_bv_value(a), w) <= to_signed(const_bv_value(b), w));
    return intern({kind::sle, 0, {a, b}, 0});
}

// ---- evaluation --------------------------------------------------------------------

std::uint64_t term_manager::evaluate(term t, const env& e) const {
    return evaluate_under(t, e, /*complete=*/false);
}

std::uint64_t term_manager::evaluate_completed(term t, const env& e) const {
    return evaluate_under(t, e, /*complete=*/true);
}

std::uint64_t term_manager::evaluate_under(term t, const env& e, bool complete) const {
    // Iterative post-order with memoization: each node is evaluated once, so
    // the walk is linear in the DAG even where sharing makes the unfolded
    // tree exponential, and deep DAGs (unrolled programs) need no recursion.
    std::unordered_map<std::uint32_t, std::uint64_t> memo;
    std::vector<std::pair<term, bool>> stack{{t, false}};
    while (!stack.empty()) {
        auto [cur, expanded] = stack.back();
        stack.pop_back();
        if (memo.count(cur.id) != 0) continue;
        const node& n = at(cur);
        if (!expanded) {
            switch (n.k) {
                case kind::const_bool:
                case kind::const_bv: memo[cur.id] = n.payload; continue;
                case kind::var_bool:
                case kind::var_bv: {
                    auto it = e.find(cur.id);
                    if (it == e.end()) {
                        if (!complete)
                            throw std::out_of_range("evaluate: unbound variable " +
                                                    var_name(cur));
                        memo[cur.id] = 0;
                        continue;
                    }
                    memo[cur.id] = it->second & (n.k == kind::var_bool ? 1 : mask(n.width));
                    continue;
                }
                default:
                    stack.push_back({cur, true});
                    for (term kid : n.kids) stack.push_back({kid, false});
                    continue;
            }
        }
        auto val = [&](std::size_t i) { return memo.at(n.kids[i].id); };
        std::uint64_t r = 0;
        switch (n.k) {
            case kind::not_op: r = val(0) ^ 1; break;
            case kind::and_op: r = val(0) & val(1); break;
            case kind::xor_op: r = val(0) ^ val(1); break;
            case kind::ite_op: r = val(0) != 0 ? val(1) : val(2); break;
            case kind::eq_op: r = val(0) == val(1) ? 1 : 0; break;
            case kind::bvnot: r = ~val(0) & mask(n.width); break;
            case kind::bvand:
            case kind::bvor:
            case kind::bvxor:
            case kind::bvadd:
            case kind::bvsub:
            case kind::bvmul:
            case kind::bvudiv:
            case kind::bvurem:
            case kind::bvshl:
            case kind::bvlshr:
            case kind::bvashr: r = eval_bv_op(n.k, n.width, val(0), val(1)); break;
            case kind::concat: r = (val(0) << width_of(n.kids[1])) | val(1); break;
            case kind::extract: {
                unsigned lo = static_cast<unsigned>(n.payload & 0xffffffffU);
                r = (val(0) >> lo) & mask(n.width);
                break;
            }
            case kind::zext: r = val(0); break;
            case kind::sext: {
                unsigned w0 = width_of(n.kids[0]);
                r = val(0);
                if ((r >> (w0 - 1)) & 1) r |= mask(n.width) & ~mask(w0);
                break;
            }
            case kind::ult: r = val(0) < val(1) ? 1 : 0; break;
            case kind::ule: r = val(0) <= val(1) ? 1 : 0; break;
            case kind::slt:
                r = to_signed(val(0), width_of(n.kids[0])) < to_signed(val(1), width_of(n.kids[0]))
                        ? 1
                        : 0;
                break;
            case kind::sle:
                r = to_signed(val(0), width_of(n.kids[0])) <=
                            to_signed(val(1), width_of(n.kids[0]))
                        ? 1
                        : 0;
                break;
            // or_op / implies / iff are rewritten away at construction.
            default: throw std::logic_error("evaluate: unexpected kind");
        }
        memo[cur.id] = r;
    }
    return memo.at(t.id);
}

// ---- printing -----------------------------------------------------------------------

std::string term_manager::to_string(term t) const {
    const node& n = at(t);
    auto binop = [&](const char* op) {
        return std::string("(").append(op).append(" ").append(to_string(n.kids[0])).append(" ")
                   .append(to_string(n.kids[1])).append(")");
    };
    switch (n.k) {
        case kind::const_bool: return n.payload != 0 ? "true" : "false";
        case kind::const_bv: {
            std::ostringstream os;
            os << "(_ bv" << n.payload << " " << n.width << ")";
            return os.str();
        }
        case kind::var_bool:
        case kind::var_bv: return names_[n.payload];
        case kind::not_op: return "(not " + to_string(n.kids[0]) + ")";
        case kind::and_op: return binop("and");
        case kind::xor_op: return binop("xor");
        case kind::ite_op:
            return "(ite " + to_string(n.kids[0]) + " " + to_string(n.kids[1]) + " " +
                   to_string(n.kids[2]) + ")";
        case kind::eq_op: return binop("=");
        case kind::bvnot: return "(bvnot " + to_string(n.kids[0]) + ")";
        case kind::bvand: return binop("bvand");
        case kind::bvor: return binop("bvor");
        case kind::bvxor: return binop("bvxor");
        case kind::bvadd: return binop("bvadd");
        case kind::bvsub: return binop("bvsub");
        case kind::bvmul: return binop("bvmul");
        case kind::bvudiv: return binop("bvudiv");
        case kind::bvurem: return binop("bvurem");
        case kind::bvshl: return binop("bvshl");
        case kind::bvlshr: return binop("bvlshr");
        case kind::bvashr: return binop("bvashr");
        case kind::concat: return binop("concat");
        case kind::extract: {
            std::ostringstream os;
            os << "((_ extract " << (n.payload >> 32) << " " << (n.payload & 0xffffffffU) << ") "
               << to_string(n.kids[0]) << ")";
            return os.str();
        }
        case kind::zext: return "(zext " + to_string(n.kids[0]) + ")";
        case kind::sext: return "(sext " + to_string(n.kids[0]) + ")";
        case kind::ult: return binop("bvult");
        case kind::ule: return binop("bvule");
        case kind::slt: return binop("bvslt");
        case kind::sle: return binop("bvsle");
        default: return "(?)";
    }
}

}  // namespace sciduction::smt
