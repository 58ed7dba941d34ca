#include "ir/transform.hpp"

#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "ir/interp.hpp"

namespace sciduction::ir {

namespace {

// ---- inlining -----------------------------------------------------------------

void collect_locals(const std::vector<stmt>& body, std::unordered_set<std::string>& out) {
    for (const stmt& s : body) {
        if (s.k == stmt::kind::decl) out.insert(s.name);
        collect_locals(s.body, out);
        collect_locals(s.else_body, out);
    }
}

expr rename_expr(const expr& e, const std::unordered_map<std::string, std::string>& ren) {
    expr out = e;
    if (e.k == expr::kind::var) {
        auto it = ren.find(e.name);
        if (it != ren.end()) out.name = it->second;
    }
    for (auto& a : out.args) a = rename_expr(a, ren);
    return out;
}

std::vector<stmt> rename_stmts(const std::vector<stmt>& body,
                               const std::unordered_map<std::string, std::string>& ren) {
    std::vector<stmt> out;
    out.reserve(body.size());
    for (const stmt& s : body) {
        stmt n = s;
        if ((s.k == stmt::kind::decl || s.k == stmt::kind::assign ||
             s.k == stmt::kind::call_stmt)) {
            auto it = ren.find(s.name);
            if (it != ren.end()) n.name = it->second;
        }
        n.e = rename_expr(s.e, ren);
        n.idx = rename_expr(s.idx, ren);
        for (auto& a : n.call_args) a = rename_expr(a, ren);
        n.body = rename_stmts(s.body, ren);
        n.else_body = rename_stmts(s.else_body, ren);
        out.push_back(std::move(n));
    }
    return out;
}

class inliner {
public:
    explicit inliner(const program& p) : program_(p) {}

    std::vector<stmt> inline_body(const std::vector<stmt>& body) {
        std::vector<stmt> out;
        for (const stmt& s : body) {
            if (s.k == stmt::kind::call_stmt) {
                expand_call(s, out);
                continue;
            }
            stmt n = s;
            n.body = inline_body(s.body);
            n.else_body = inline_body(s.else_body);
            out.push_back(std::move(n));
        }
        return out;
    }

private:
    void expand_call(const stmt& call, std::vector<stmt>& out) {
        const function* callee = program_.find_function(call.callee);
        if (callee == nullptr)
            throw std::runtime_error("inline: no function '" + call.callee + "'");
        if (active_.count(call.callee) != 0)
            throw std::runtime_error("inline: recursion through '" + call.callee + "'");
        if (callee->params.size() != call.call_args.size())
            throw std::runtime_error("inline: arity mismatch calling '" + call.callee + "'");
        if (callee->body.empty() || callee->body.back().k != stmt::kind::return_stmt)
            throw std::runtime_error("inline: callee '" + call.callee +
                                     "' must end in a single top-level return");
        for (std::size_t i = 0; i + 1 < callee->body.size(); ++i)
            if (contains_return(callee->body[i]))
                throw std::runtime_error("inline: callee '" + call.callee +
                                         "' has an early return");

        active_.insert(call.callee);
        const std::string suffix = std::string("$").append(std::to_string(counter_++));
        std::unordered_map<std::string, std::string> ren;
        for (const auto& pname : callee->params) ren[pname] = pname + suffix;
        std::unordered_set<std::string> locals;
        collect_locals(callee->body, locals);
        for (const auto& l : locals) ren[l] = l + suffix;

        // Bind parameters.
        for (std::size_t i = 0; i < callee->params.size(); ++i) {
            stmt d;
            d.k = stmt::kind::decl;
            d.name = ren.at(callee->params[i]);
            d.e = call.call_args[i];
            out.push_back(std::move(d));
        }
        // Body minus the trailing return, recursively inlined.
        std::vector<stmt> renamed = rename_stmts(callee->body, ren);
        stmt ret = std::move(renamed.back());
        renamed.pop_back();
        std::vector<stmt> inlined = inline_body(renamed);
        for (auto& s : inlined) out.push_back(std::move(s));
        // Result assignment.
        stmt a;
        a.k = stmt::kind::assign;
        a.name = call.name;
        a.e = ret.e;
        out.push_back(std::move(a));
        active_.erase(call.callee);
    }

    static bool contains_return(const stmt& s) {
        if (s.k == stmt::kind::return_stmt) return true;
        for (const auto& c : s.body)
            if (contains_return(c)) return true;
        for (const auto& c : s.else_body)
            if (contains_return(c)) return true;
        return false;
    }

    const program& program_;
    std::unordered_set<std::string> active_;
    int counter_ = 0;
};

// ---- unrolling ----------------------------------------------------------------

bool contains_break(const std::vector<stmt>& body) {
    for (const stmt& s : body) {
        if (s.k == stmt::kind::break_stmt) return true;
        if (s.k == stmt::kind::while_stmt) continue;  // inner loop owns its breaks
        if (contains_break(s.body) || contains_break(s.else_body)) return true;
    }
    return false;
}

std::vector<stmt> unroll_body(const std::vector<stmt>& body);

stmt unroll_while(const stmt& s) {
    if (!s.bound)
        throw std::runtime_error("unroll: while-loop lacks a 'bound N' annotation");
    if (contains_break(s.body))
        throw std::runtime_error("unroll: break inside unrolled loop is unsupported");
    std::vector<stmt> inner = unroll_body(s.body);
    // Build from the innermost iteration outward.
    stmt acc;
    acc.k = stmt::kind::if_stmt;
    acc.e = s.e;
    acc.body = inner;
    for (unsigned i = 1; i < *s.bound; ++i) {
        stmt next;
        next.k = stmt::kind::if_stmt;
        next.e = s.e;
        next.body = inner;
        next.body.push_back(acc);
        acc = std::move(next);
    }
    if (*s.bound == 0) {
        // Bound 0: the loop body never runs; keep an empty if for shape.
        acc.body.clear();
    }
    return acc;
}

std::vector<stmt> unroll_body(const std::vector<stmt>& body) {
    std::vector<stmt> out;
    for (const stmt& s : body) {
        if (s.k == stmt::kind::while_stmt) {
            out.push_back(unroll_while(s));
            continue;
        }
        stmt n = s;
        n.body = unroll_body(s.body);
        n.else_body = unroll_body(s.else_body);
        out.push_back(std::move(n));
    }
    return out;
}

// ---- static branch resolution ----------------------------------------------

using const_env = std::unordered_map<std::string, std::uint64_t>;

std::optional<std::uint64_t> try_fold(const expr& e, unsigned w, const const_env& env) {
    switch (e.k) {
        case expr::kind::num: return e.value & value_mask(w);
        case expr::kind::var: {
            auto it = env.find(e.name);
            if (it == env.end()) return std::nullopt;
            return it->second;
        }
        case expr::kind::binary: {
            auto a = try_fold(e.args[0], w, env);
            if (e.bop == binop::land) {
                if (a && *a == 0) return 0;
                auto b = try_fold(e.args[1], w, env);
                if (a && b) return (*a != 0 && *b != 0) ? 1 : 0;
                return std::nullopt;
            }
            if (e.bop == binop::lor) {
                if (a && *a != 0) return 1;
                auto b = try_fold(e.args[1], w, env);
                if (a && b) return (*a != 0 || *b != 0) ? 1 : 0;
                return std::nullopt;
            }
            auto b = try_fold(e.args[1], w, env);
            if (!a || !b) return std::nullopt;
            return apply_binop(e.bop, *a, *b, w);
        }
        case expr::kind::unary: {
            auto v = try_fold(e.args[0], w, env);
            if (!v) return std::nullopt;
            return apply_unop(e.uop, *v, w);
        }
        case expr::kind::ternary: {
            auto c = try_fold(e.args[0], w, env);
            if (!c) return std::nullopt;
            return try_fold(e.args[*c != 0 ? 1 : 2], w, env);
        }
        case expr::kind::index: return std::nullopt;  // array cells are not tracked
    }
    return std::nullopt;
}

void merge_envs(const_env& into, const const_env& other) {
    for (auto it = into.begin(); it != into.end();) {
        auto oit = other.find(it->first);
        if (oit == other.end() || oit->second != it->second) {
            it = into.erase(it);
        } else {
            ++it;
        }
    }
}

std::vector<stmt> resolve_body(const std::vector<stmt>& body, unsigned w, const_env& env) {
    std::vector<stmt> out;
    for (const stmt& s : body) {
        switch (s.k) {
            case stmt::kind::decl:
            case stmt::kind::assign: {
                auto v = try_fold(s.e, w, env);
                if (v) env[s.name] = *v;
                else env.erase(s.name);
                out.push_back(s);
                break;
            }
            case stmt::kind::store:
                out.push_back(s);  // arrays untracked
                break;
            case stmt::kind::if_stmt: {
                auto c = try_fold(s.e, w, env);
                if (c) {
                    // Splice the taken branch; the branch disappears.
                    std::vector<stmt> taken =
                        resolve_body(*c != 0 ? s.body : s.else_body, w, env);
                    for (auto& t : taken) out.push_back(std::move(t));
                } else {
                    stmt n = s;
                    const_env then_env = env;
                    const_env else_env = env;
                    n.body = resolve_body(s.body, w, then_env);
                    n.else_body = resolve_body(s.else_body, w, else_env);
                    merge_envs(then_env, else_env);
                    env = std::move(then_env);
                    out.push_back(std::move(n));
                }
                break;
            }
            case stmt::kind::while_stmt: {
                // Conservative: body may run any number of times.
                stmt n = s;
                const_env empty;
                n.body = resolve_body(s.body, w, empty);
                env.clear();
                out.push_back(std::move(n));
                break;
            }
            case stmt::kind::call_stmt:
                env.erase(s.name);
                out.push_back(s);
                break;
            case stmt::kind::return_stmt:
            case stmt::kind::break_stmt:
                out.push_back(s);
                return out;  // anything after is unreachable
        }
    }
    return out;
}

bool loop_free(const std::vector<stmt>& body) {
    for (const stmt& s : body) {
        if (s.k == stmt::kind::while_stmt) return false;
        if (!loop_free(s.body) || !loop_free(s.else_body)) return false;
    }
    return true;
}

}  // namespace

function inline_calls(const program& p, const std::string& top) {
    const function* f = p.find_function(top);
    if (f == nullptr) throw std::runtime_error("inline: no function '" + top + "'");
    inliner in(p);
    function out = *f;
    out.body = in.inline_body(f->body);
    return out;
}

function unroll_loops(const function& f) {
    function out = f;
    out.body = unroll_body(f.body);
    return out;
}

bool is_loop_free(const function& f) { return loop_free(f.body); }

function resolve_static_branches(const function& f, unsigned width) {
    function out = f;
    const_env env;  // parameters are unknown; globals conservatively unknown
    out.body = resolve_body(f.body, width, env);
    return out;
}

}  // namespace sciduction::ir
