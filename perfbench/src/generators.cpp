#include "generators.hpp"

#include <stdexcept>

#include "util/rng.hpp"

namespace perfbench {

namespace {

using sciduction::util::rng;

/// Distinct seeds for distinct purposes, so two generators never share a
/// random stream.
std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
    return seed * 0x9e3779b97f4a7c15ULL + salt;
}

/// A fresh identifier: a letter plus five random letters/digits.
std::string fresh_name(rng& r) {
    static const char alphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
    std::string name(1, static_cast<char>('a' + r.next_below(26)));
    for (int i = 0; i < 5; ++i) name.push_back(alphabet[r.next_below(36)]);
    return name;
}

std::string bv(std::uint64_t value, unsigned width) {
    return "(_ bv" + std::to_string(value) + " " + std::to_string(width) + ")";
}

std::string header(const std::string& status, const std::vector<std::string>& vars,
                   unsigned width) {
    std::string s = "(set-logic QF_BV)\n(set-info :status " + status + ")\n";
    for (const std::string& v : vars)
        s += "(declare-const " + v + " (_ BitVec " + std::to_string(width) + "))\n";
    return s;
}

template <class T>
void shuffle(std::vector<T>& v, rng& r) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[r.next_below(i)]);
}

/// The parameters of one tiny query, kept so a repeat can re-render it
/// under new names.
struct tiny_params {
    bool sat = false;
    std::uint64_t sum = 0;     // a + b == sum
    std::uint64_t bound = 0;   // sat: a < bound
    std::uint64_t a_val = 0;   // unsat: a == a_val, b == b_val, a_val + b_val != sum
    std::uint64_t b_val = 0;
};

constexpr unsigned tiny_width = 16;

std::string render_tiny(const tiny_params& p, rng& names) {
    const std::string a = fresh_name(names);
    const std::string b = fresh_name(names);
    std::string s = header(p.sat ? "sat" : "unsat", {a, b}, tiny_width);
    s += "(assert (= (bvadd " + a + " " + b + ") " + bv(p.sum, tiny_width) + "))\n";
    if (p.sat) {
        s += "(assert (bvult " + a + " " + bv(p.bound, tiny_width) + "))\n";
    } else {
        s += "(assert (= " + a + " " + bv(p.a_val, tiny_width) + "))\n";
        s += "(assert (= " + b + " " + bv(p.b_val, tiny_width) + "))\n";
    }
    s += "(check-sat)\n";
    return s;
}

}  // namespace

miter make_miter(const std::string& family, unsigned width, bool mutant, std::uint64_t seed,
                 std::uint64_t tag) {
    rng r(derive(seed, 0x6d69746572ULL));
    const std::string a = fresh_name(r);
    const std::string b = fresh_name(r);
    const std::string c = fresh_name(r);
    const std::uint64_t mask = (1ULL << width) - 1;
    // The perturbation is fixed (an odd k = 1; a shift one further), not
    // seeded, so every seed costs the solver the same. With every operand 1
    // the perturbed side differs from the identity by k (or by a distinct
    // power of two), so each mutant is satisfiable by construction.
    const std::uint64_t k = 1;
    std::string lhs;
    std::string rhs;
    std::vector<std::string> vars = {a, b, c};
    if (family == "distrib") {
        lhs = "(bvmul " + a + " (bvadd " + b + " " + c + "))";
        const std::string cc = mutant ? "(bvadd " + c + " " + bv(k, width) + ")" : c;
        rhs = "(bvadd (bvmul " + a + " " + b + ") (bvmul " + a + " " + cc + "))";
    } else if (family == "assoc") {
        lhs = "(bvmul (bvmul " + a + " " + b + ") " + c + ")";
        const std::string cc = mutant ? "(bvadd " + c + " " + bv(k, width) + ")" : c;
        rhs = "(bvmul " + a + " (bvmul " + b + " " + cc + "))";
    } else if (family == "square") {
        vars = {a, b};
        const std::string sum = "(bvadd " + a + " " + b + ")";
        lhs = "(bvmul " + sum + " " + sum + ")";
        const std::uint64_t two = mutant ? (2 + k) & mask : 2;
        rhs = "(bvadd (bvadd (bvmul " + a + " " + a + ") (bvmul " + bv(two, width) +
              " (bvmul " + a + " " + b + "))) (bvmul " + b + " " + b + "))";
    } else if (family == "shiftmul") {
        vars = {a, b};
        const std::uint64_t s = width / 2;  // s + 1 < width: both shifts fit
        lhs = "(bvshl (bvmul " + a + " " + b + ") " + bv(s, width) + ")";
        rhs = "(bvmul " + a + " (bvshl " + b + " " + bv(mutant ? s + 1 : s, width) + "))";
    } else {
        throw std::invalid_argument("unknown miter family '" + family + "'");
    }
    std::string tag_assertion;
    if (tag != 0) {
        const std::string t = fresh_name(r);
        tag_assertion = "(declare-const " + t + " (_ BitVec 16))\n(assert (= " + t + " " +
                        bv(tag & 0xffff, 16) + "))\n";
    }
    miter m;
    m.family = family;
    m.width = width;
    m.expect_sat = mutant;
    m.smt2 = header(mutant ? "sat" : "unsat", vars, width) + tag_assertion + "(assert (distinct " +
             lhs + " " + rhs + "))\n(check-sat)\n";
    return m;
}

std::vector<miter> generate_bv_miters(std::uint64_t seed, bool reduced) {
    struct shape {
        const char* family;
        unsigned width;
        bool mutant;
    };
    // The family x width mix is fixed: it sets the amount of solver work.
    static const std::vector<shape> full = {
        {"distrib", 4, false}, {"distrib", 5, false}, {"distrib", 6, false},
        {"assoc", 4, false},   {"assoc", 5, false},   {"square", 4, false},
        {"square", 5, false},  {"square", 6, false},  {"shiftmul", 4, false},
        {"shiftmul", 5, false}, {"shiftmul", 6, false}, {"distrib", 6, true},
        {"assoc", 5, true},    {"square", 6, true},   {"shiftmul", 6, true},
    };
    static const std::vector<shape> probe = {
        {"distrib", 4, false}, {"square", 4, false}, {"distrib", 5, true}, {"shiftmul", 5, false}};
    const std::vector<shape>& shapes = reduced ? probe : full;
    rng r(derive(seed, 0x62766d69ULL));
    std::vector<miter> out;
    out.reserve(shapes.size());
    for (const shape& s : shapes) out.push_back(make_miter(s.family, s.width, s.mutant, r.next_u64()));
    shuffle(out, r);
    return out;
}

std::vector<mix_request> generate_daemon_mix(std::uint64_t seed, std::size_t count) {
    rng r(derive(seed, 0x6d6978ULL));
    // A fixed class pattern per block of ten (70% tiny, 20% repeat, 10%
    // medium), with the medium alternating between the two tenants: where
    // the heavy requests fall sets the work, so the seed must not move them.
    using k = mix_request::klass;
    static const k pattern[10] = {k::tiny,   k::tiny, k::repeat, k::tiny, k::medium,
                                  k::tiny,   k::tiny, k::repeat, k::tiny, k::tiny};
    auto kind_at = [](std::size_t i) {
        const std::size_t slot = i % 10;
        if ((i / 10) % 2 == 1 && (slot == 4 || slot == 5)) return slot == 4 ? k::tiny : k::medium;
        return pattern[slot];
    };

    // Distinct sums make every tiny query structurally unique (an odd
    // multiplier is a bijection modulo 2^16).
    const std::uint64_t mask = (1ULL << tiny_width) - 1;
    const std::uint64_t offset = r.next_below(mask + 1);
    std::vector<tiny_params> params(count);
    std::vector<mix_request> out(count);
    std::uint64_t medium = 0;
    for (std::size_t i = 0; i < count; ++i) {
        mix_request& req = out[i];
        req.tenant = static_cast<unsigned>(i % 2);
        req.kind = kind_at(i);
        if (req.kind == mix_request::klass::repeat) {
            // Rename a tiny query the other tenant sent at least eight
            // requests earlier (so it has completed in a closed loop).
            std::vector<std::size_t> sources;
            for (std::size_t j = 0; j + 8 <= i; ++j)
                if (out[j].kind == mix_request::klass::tiny && out[j].tenant != req.tenant)
                    sources.push_back(j);
            if (sources.empty()) {
                req.kind = mix_request::klass::tiny;
            } else {
                const std::size_t src = sources[sources.size() - 1 - r.next_below(
                                                    std::min<std::size_t>(sources.size(), 32))];
                params[i] = params[src];
                req.repeat_of = static_cast<int>(src);
                req.expect_sat = params[i].sat;
                req.smt2 = render_tiny(params[i], r);
                continue;
            }
        }
        if (req.kind == mix_request::klass::medium) {
            // One family and width, ~2.5 ms each: short enough that a
            // medium's solve ends well inside one 5 ms poll-tick interval
            // (at width 5, ~10 ms, it ended near an interval edge and
            // rtt_p99_ms jumped between ~16 and ~20 ms). Renaming alone
            // would make every medium a structural cache hit after the first,
            // so each carries its own tag — the same tag sequence for every
            // seed, so the medium work does not depend on it.
            const miter m = make_miter("square", 4, false, r.next_u64(), ++medium);
            req.expect_sat = m.expect_sat;
            req.smt2 = m.smt2;
            continue;
        }
        tiny_params& p = params[i];
        p.sat = r.next_bool();
        p.sum = (i * 40503 + offset) & mask;
        p.bound = 1 + r.next_below(mask);
        p.a_val = r.next_below(mask + 1);
        p.b_val = (p.sum - p.a_val + 1 + r.next_below(mask)) & mask;  // a_val + b_val != sum
        req.expect_sat = p.sat;
        req.smt2 = render_tiny(p, r);
    }
    return out;
}

}  // namespace perfbench
