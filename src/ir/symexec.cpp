#include "ir/symexec.hpp"

#include <stdexcept>

namespace sciduction::ir {

namespace {

using smt::term;
using smt::term_manager;

/// Symbolic store: variable name -> current symbolic value. Array cells with
/// constant indices are keyed "name[i]".
using sym_env = std::unordered_map<std::string, term>;

class path_encoder {
public:
    path_encoder(const cfg& g, term_manager& tm)
        : cfg_(g), tm_(tm), width_(g.owning_program().width) {}

    path_encoding encode(const path& p) {
        sym_env env;
        const function& f = cfg_.owning_function();
        path_encoding out;
        out.return_value = term{};
        for (const auto& name : f.params) {
            term v = tm_.mk_bv_var("arg_" + name, width_);
            env[name] = v;
            out.params.push_back(v);
        }
        for (const auto& g : cfg_.owning_program().globals) {
            if (g.is_array) {
                for (std::size_t i = 0; i < g.size; ++i)
                    env[g.name + "[" + std::to_string(i) + "]"] =
                        tm_.mk_bv_const(width_, g.init[i]);
            } else {
                env[g.name] = tm_.mk_bv_const(width_, g.init[0]);
            }
        }

        std::vector<term> constraints;
        int cur = cfg_.source();
        for (int eid : p) {
            exec_block(cfg_.block(cur), env);
            const cfg_edge& e = cfg_.edge(eid);
            if (e.from != cur) throw std::invalid_argument("encode_path: disconnected path");
            if (e.cond != nullptr) {
                term c = to_bool(eval(*e.cond, env));
                constraints.push_back(e.polarity ? c : tm_.mk_not(c));
            }
            if (e.ret_value != nullptr) out.return_value = eval(*e.ret_value, env);
            cur = e.to;
        }
        if (cur != cfg_.sink()) throw std::invalid_argument("encode_path: path does not reach sink");
        out.path_condition = tm_.mk_and(constraints);
        return out;
    }

private:
    term eval(const expr& e, const sym_env& env) {
        switch (e.k) {
            case expr::kind::num: return tm_.mk_bv_const(width_, e.value);
            case expr::kind::var: {
                auto it = env.find(e.name);
                if (it == env.end())
                    throw std::runtime_error("symexec: unknown variable '" + e.name + "'");
                return it->second;
            }
            case expr::kind::binary: {
                term a = eval(e.args[0], env);
                term b = eval(e.args[1], env);
                switch (e.bop) {
                    case binop::add: return tm_.mk_bvadd(a, b);
                    case binop::sub: return tm_.mk_bvsub(a, b);
                    case binop::mul: return tm_.mk_bvmul(a, b);
                    case binop::udiv: return tm_.mk_bvudiv(a, b);
                    case binop::urem: return tm_.mk_bvurem(a, b);
                    case binop::band: return tm_.mk_bvand(a, b);
                    case binop::bor: return tm_.mk_bvor(a, b);
                    case binop::bxor: return tm_.mk_bvxor(a, b);
                    case binop::shl: return tm_.mk_bvshl(a, b);
                    case binop::lshr: return tm_.mk_bvlshr(a, b);
                    case binop::lt: return from_bool(tm_.mk_slt(a, b));
                    case binop::le: return from_bool(tm_.mk_sle(a, b));
                    case binop::gt: return from_bool(tm_.mk_sgt(a, b));
                    case binop::ge: return from_bool(tm_.mk_sge(a, b));
                    case binop::eq: return from_bool(tm_.mk_eq(a, b));
                    case binop::ne: return from_bool(tm_.mk_distinct(a, b));
                    // Path expressions are side-effect free, so non-short-
                    // circuit encoding is equivalent.
                    case binop::land: return from_bool(tm_.mk_and(to_bool(a), to_bool(b)));
                    case binop::lor: return from_bool(tm_.mk_or(to_bool(a), to_bool(b)));
                }
                throw std::logic_error("symexec: bad binop");
            }
            case expr::kind::unary: {
                term v = eval(e.args[0], env);
                switch (e.uop) {
                    case unop::neg: return tm_.mk_bvneg(v);
                    case unop::bnot: return tm_.mk_bvnot(v);
                    case unop::lnot: return from_bool(tm_.mk_not(to_bool(v)));
                }
                throw std::logic_error("symexec: bad unop");
            }
            case expr::kind::ternary:
                return tm_.mk_ite(to_bool(eval(e.args[0], env)), eval(e.args[1], env),
                                  eval(e.args[2], env));
            case expr::kind::index: return env_cell(e, env);
        }
        throw std::logic_error("symexec: bad expr kind");
    }

    term env_cell(const expr& e, const sym_env& env) {
        if (e.args[0].k != expr::kind::num)
            throw std::runtime_error("symexec: dynamic array index unsupported (array '" +
                                     e.name + "')");
        auto key = e.name + "[" + std::to_string(e.args[0].value) + "]";
        auto it = env.find(key);
        if (it == env.end())
            throw std::runtime_error("symexec: array access out of bounds: " + key);
        return it->second;
    }

    void exec_block(const basic_block& b, sym_env& env) {
        for (const stmt* s : b.stmts) {
            term v = eval(s->e, env);
            if (s->k == stmt::kind::store) {
                if (s->idx.k != expr::kind::num)
                    throw std::runtime_error("symexec: dynamic array store unsupported (array '" +
                                             s->name + "')");
                env[s->name + "[" + std::to_string(s->idx.value) + "]"] = v;
            } else {
                env[s->name] = v;
            }
        }
    }

    /// bv value -> bool (v != 0)
    term to_bool(term v) {
        if (tm_.is_bool(v)) return v;
        return tm_.mk_distinct(v, tm_.mk_bv_const(tm_.width_of(v), 0));
    }
    /// bool -> bv 0/1
    term from_bool(term b) {
        return tm_.mk_ite(b, tm_.mk_bv_const(width_, 1), tm_.mk_bv_const(width_, 0));
    }

    const cfg& cfg_;
    term_manager& tm_;
    unsigned width_;
};

}  // namespace

path_encoding encode_path(const cfg& g, const path& p, smt::term_manager& tm) {
    path_encoder enc(g, tm);
    return enc.encode(p);
}

std::optional<std::vector<std::uint64_t>> feasible_path_witness(const cfg& g, const path& p,
                                                                smt::term_manager& tm) {
    substrate::smt_engine engine(tm, {.use_cache = false});
    return feasible_path_witness(g, p, engine);
}

std::optional<std::vector<std::uint64_t>> feasible_path_witness_with(
    const cfg& g, const path& p, substrate::smt_engine& engine, substrate::strategy strat) {
    path_encoding enc = encode_path(g, p, engine.manager());
    // solve, not submit: a `single` check runs on the calling thread, so a
    // transient engine never starts a pool for it.
    auto result = engine.solve({{enc.path_condition}, {}, std::move(strat)});
    if (!result.is_sat()) return std::nullopt;
    substrate::model_evaluator eval(engine.manager(), std::move(result.model));
    std::vector<std::uint64_t> args;
    args.reserve(enc.params.size());
    for (smt::term t : enc.params) args.push_back(eval.value(t));
    return args;
}

std::optional<std::vector<std::uint64_t>> feasible_path_witness(const cfg& g, const path& p,
                                                                substrate::smt_engine& engine) {
    return feasible_path_witness_with(g, p, engine, substrate::strategy::single());
}

}  // namespace sciduction::ir
