#include "sat/solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace sciduction::sat {

solver::solver() = default;

void solver::set_options(const solver_options& opts) {
    // Re-seed existing phases only when the initial-phase option changes:
    // mid-incremental-session retunes (decay, restarts, seed) must not
    // clobber the phase-saving state accumulated by earlier solve() calls.
    const bool phase_changed = opts.init_phase_true != opts_.init_phase_true;
    opts_ = opts;
    var_decay_ = opts.var_decay;
    cla_decay_ = opts.clause_decay;
    random_.reseed(opts.random_seed);
    if (phase_changed)
        for (auto& p : polarity_) p = opts.init_phase_true ? 0 : 1;
}

var solver::new_var() {
    var v = static_cast<var>(assigns_.size());
    assigns_.push_back(lbool::l_undef);
    // Default phase: false (MiniSat convention) unless diversified.
    polarity_.push_back(opts_.init_phase_true ? 0 : 1);
    level_.push_back(0);
    reason_.push_back(cref_undef);
    activity_.push_back(0.0);
    seen_.push_back(0);
    heap_pos_.push_back(-1);
    eliminated_.push_back(0);
    elim_index_.push_back(-1);
    watches_.emplace_back();
    watches_.emplace_back();
    heap_insert(v);
    return v;
}

// ---- clause arena ----------------------------------------------------------

cref solver::alloc_clause(const clause_lits& lits, bool learnt) {
    cref c = static_cast<cref>(arena_.size());
    arena_.push_back((static_cast<std::uint32_t>(lits.size()) << hdr_size_shift) |
                     (learnt ? hdr_extra | hdr_learnt : 0U));
    if (learnt) {
        arena_.push_back(0);  // activity slot
        // LBD slot: the pessimistic size bound until the caller stores the
        // clause's real glue value.
        arena_.push_back(static_cast<std::uint32_t>(lits.size()));
    }
    for (lit l : lits) arena_.push_back(static_cast<std::uint32_t>(l.x));
    return c;
}

float solver::clause_activity(cref c) const {
    float a;
    std::uint32_t bits = arena_[c + 1];
    std::memcpy(&a, &bits, sizeof(a));
    return a;
}

void solver::set_clause_activity(cref c, float a) {
    std::uint32_t bits;
    std::memcpy(&bits, &a, sizeof(a));
    arena_[c + 1] = bits;
}

void solver::shrink_clause(cref c, std::uint32_t new_size) {
    std::uint32_t hdr = arena_[c];
    wasted_ += (hdr >> hdr_size_shift) - new_size;  // tail words become garbage
    arena_[c] = (new_size << hdr_size_shift) | (hdr & ((1U << hdr_size_shift) - 1U));
}

// ---- watches ----------------------------------------------------------------

void solver::attach_clause(cref c) {
    lit l0 = clause_lit(c, 0);
    lit l1 = clause_lit(c, 1);
    watches_[lit_index(~l0)].push_back({c, l1});
    watches_[lit_index(~l1)].push_back({c, l0});
}

void solver::detach_clause(cref c) {
    lit l0 = clause_lit(c, 0);
    lit l1 = clause_lit(c, 1);
    for (lit w : {~l0, ~l1}) {
        auto& ws = watches_[lit_index(w)];
        for (std::size_t i = 0; i < ws.size(); ++i) {
            if (ws[i].clause == c) {
                ws[i] = ws.back();
                ws.pop_back();
                break;
            }
        }
    }
}

// ---- adding clauses ----------------------------------------------------------

bool solver::add_clause(clause_lits lits) {
    // Digest the clause exactly as given, before the early exits and the
    // sort/simplify below: the digest identifies the *input* stream, which
    // is what deterministic builders reproduce run to run.
    for (lit l : lits) {
        const auto v = static_cast<std::uint64_t>(static_cast<std::uint32_t>(l.x));
        digest_.lo ^= v + 0x9e3779b97f4a7c15ULL + (digest_.lo << 6) + (digest_.lo >> 2);
        digest_.hi = (digest_.hi ^ v) * 0x100000001b3ULL;
    }
    digest_.lo ^= 0xa55e7a55e7a55e77ULL + (digest_.lo << 6) + (digest_.lo >> 2);  // boundary
    digest_.hi = (digest_.hi ^ 0x2eULL) * 0x100000001b3ULL;
    ++digest_.clauses;

    if (!ok_) return false;
    if (decision_level() != 0) throw std::logic_error("add_clause: only at decision level 0");

    // A new problem clause over an eliminated variable invalidates the
    // elimination: bring the variable's original clauses back first.
    if (!elim_stack_.empty())
        for (lit l : lits)
            if (var_eliminated(var_of(l))) restore_var(var_of(l));
    if (!ok_) return false;

    std::sort(lits.begin(), lits.end());
    clause_lits out;
    lit prev = lit_undef;
    for (lit l : lits) {
        if (value(l) == lbool::l_true || l == ~prev) return true;  // satisfied or tautology
        if (value(l) == lbool::l_false || l == prev) continue;     // falsified or duplicate
        out.push_back(l);
        prev = l;
    }

    if (out.empty()) {
        ok_ = false;
        return false;
    }
    if (out.size() == 1) {
        enqueue(out[0], cref_undef);
        ok_ = propagate() == cref_undef;
        return ok_;
    }
    cref c = alloc_clause(out, /*learnt=*/false);
    clauses_.push_back(c);
    attach_clause(c);
    return true;
}

// ---- assignment / propagation -------------------------------------------------

void solver::enqueue(lit l, cref from) {
    var v = var_of(l);
    assigns_[static_cast<std::size_t>(v)] = lbool_from(!sign_of(l));
    level_[static_cast<std::size_t>(v)] = decision_level();
    reason_[static_cast<std::size_t>(v)] = from;
    trail_.push_back(l);
}

cref solver::propagate() {
    cref confl = cref_undef;
    while (qhead_ < trail_.size()) {
        lit p = trail_[qhead_++];
        ++stats_.propagations;
        auto& ws = watches_[lit_index(p)];
        std::size_t i = 0;
        std::size_t j = 0;
        while (i < ws.size()) {
            watcher w = ws[i];
            if (value(w.blocker) == lbool::l_true) {
                ws[j++] = ws[i++];
                continue;
            }
            cref c = w.clause;
            // Ensure the false literal (~p) sits at position 1.
            lit false_lit = ~p;
            if (clause_lit(c, 0) == false_lit) {
                set_clause_lit(c, 0, clause_lit(c, 1));
                set_clause_lit(c, 1, false_lit);
            }
            ++i;
            lit first = clause_lit(c, 0);
            if (first != w.blocker && value(first) == lbool::l_true) {
                ws[j++] = {c, first};
                continue;
            }
            // Look for a new literal to watch.
            std::uint32_t sz = clause_size(c);
            bool found = false;
            for (std::uint32_t k = 2; k < sz; ++k) {
                lit lk = clause_lit(c, k);
                if (value(lk) != lbool::l_false) {
                    set_clause_lit(c, 1, lk);
                    set_clause_lit(c, k, false_lit);
                    watches_[lit_index(~lk)].push_back({c, first});
                    found = true;
                    break;
                }
            }
            if (found) continue;
            // Clause is unit or conflicting.
            ws[j++] = {c, first};
            if (value(first) == lbool::l_false) {
                confl = c;
                qhead_ = trail_.size();
                while (i < ws.size()) ws[j++] = ws[i++];
            } else {
                enqueue(first, c);
            }
        }
        ws.resize(j);
        if (confl != cref_undef) break;
    }
    return confl;
}

void solver::backtrack_to(int lvl) {
    if (decision_level() <= lvl) return;
    std::size_t bound = static_cast<std::size_t>(trail_lim_[static_cast<std::size_t>(lvl)]);
    for (std::size_t i = trail_.size(); i-- > bound;) {
        var v = var_of(trail_[i]);
        polarity_[static_cast<std::size_t>(v)] = sign_of(trail_[i]) ? 1 : 0;
        assigns_[static_cast<std::size_t>(v)] = lbool::l_undef;
        reason_[static_cast<std::size_t>(v)] = cref_undef;
        if (!heap_contains(v)) heap_insert(v);
    }
    trail_.resize(bound);
    trail_lim_.resize(static_cast<std::size_t>(lvl));
    qhead_ = trail_.size();
}

// ---- lookahead probing ----------------------------------------------------------

solver::probe_outcome solver::probe_literal(lit l) {
    if (decision_level() != 0) throw std::logic_error("probe_literal: only at decision level 0");
    probe_outcome out;
    if (!ok_) {
        out.conflict = true;
        return out;
    }
    if (value(l) != lbool::l_undef) {
        // Already decided at the top level: a false literal conflicts
        // outright, a true one implies nothing new.
        out.conflict = value(l) == lbool::l_false;
        return out;
    }
    const std::size_t before = trail_.size();
    new_decision_level();
    enqueue(l, cref_undef);
    cref confl = propagate();
    out.conflict = confl != cref_undef;
    out.implied = static_cast<std::uint32_t>(trail_.size() - before);
    backtrack_to(0);
    return out;
}

// ---- literal-block distance -------------------------------------------------------

unsigned solver::compute_lbd(const clause_lits& lits) {
    // Stamp-based distinct-level count; the stamp array is lazily grown and
    // never cleared (a fresh stamp value invalidates old entries).
    ++lbd_stamp_;
    if (lbd_seen_.size() < trail_lim_.size() + 2) lbd_seen_.resize(trail_lim_.size() + 2, 0);
    unsigned lbd = 0;
    for (lit l : lits) {
        auto lvl = static_cast<std::size_t>(level_of(var_of(l)));
        if (lbd_seen_.size() <= lvl) lbd_seen_.resize(lvl + 1, 0);
        if (lbd_seen_[lvl] != lbd_stamp_) {
            lbd_seen_[lvl] = lbd_stamp_;
            ++lbd;
        }
    }
    return lbd;
}

unsigned solver::compute_lbd_clause(cref c) {
    ++lbd_stamp_;
    if (lbd_seen_.size() < trail_lim_.size() + 2) lbd_seen_.resize(trail_lim_.size() + 2, 0);
    unsigned lbd = 0;
    const std::uint32_t sz = clause_size(c);
    for (std::uint32_t k = 0; k < sz; ++k) {
        auto lvl = static_cast<std::size_t>(level_of(var_of(clause_lit(c, k))));
        if (lbd_seen_.size() <= lvl) lbd_seen_.resize(lvl + 1, 0);
        if (lbd_seen_[lvl] != lbd_stamp_) {
            lbd_seen_[lvl] = lbd_stamp_;
            ++lbd;
        }
    }
    return lbd;
}

std::vector<std::uint32_t> solver::occurrence_counts() const {
    std::vector<std::uint32_t> counts(assigns_.size(), 0);
    for (cref c : clauses_) {
        const std::uint32_t sz = clause_size(c);
        for (std::uint32_t k = 0; k < sz; ++k)
            ++counts[static_cast<std::size_t>(var_of(clause_lit(c, k)))];
    }
    return counts;
}

// ---- conflict analysis ----------------------------------------------------------

void solver::analyze(cref confl, clause_lits& out_learnt, int& out_btlevel) {
    int path_count = 0;
    lit p = lit_undef;
    out_learnt.clear();
    out_learnt.push_back(lit_undef);  // slot for the asserting literal
    std::size_t index = trail_.size();

    do {
        cref c = confl;
        if (clause_learnt(c)) {
            cla_bump_activity(c);
            // Dynamic LBD (Glucose): a clause re-used in conflict analysis
            // refreshes its glue downward, protecting it from reduction.
            // Clauses already at the keep threshold can't be demoted by
            // reduction, so skip the O(size) recomputation for them — they
            // are exactly the hottest clauses in analysis.
            if (opts_.reduce_learnts && clause_lbd(c) > opts_.reduce_keep_lbd) {
                unsigned glue = compute_lbd_clause(c);
                if (glue < clause_lbd(c)) set_clause_lbd(c, glue);
            }
        }
        std::uint32_t start = (p == lit_undef) ? 0U : 1U;
        std::uint32_t sz = clause_size(c);
        for (std::uint32_t k = start; k < sz; ++k) {
            lit q = clause_lit(c, k);
            var vq = var_of(q);
            if (seen_[static_cast<std::size_t>(vq)] == 0 && level_of(vq) > 0) {
                var_bump_activity(vq);
                seen_[static_cast<std::size_t>(vq)] = 1;
                if (level_of(vq) >= decision_level()) {
                    ++path_count;
                } else {
                    out_learnt.push_back(q);
                }
            }
        }
        // Select next literal on the trail to expand.
        while (seen_[static_cast<std::size_t>(var_of(trail_[index - 1]))] == 0) --index;
        --index;
        p = trail_[index];
        confl = reason_[static_cast<std::size_t>(var_of(p))];
        seen_[static_cast<std::size_t>(var_of(p))] = 0;
        --path_count;
    } while (path_count > 0);
    out_learnt[0] = ~p;

    // Clause minimization: drop implied literals.
    analyze_toclear_.assign(out_learnt.begin(), out_learnt.end());
    std::uint32_t abstract_levels = 0;
    for (std::size_t k = 1; k < out_learnt.size(); ++k)
        abstract_levels |= 1U << (static_cast<std::uint32_t>(level_of(var_of(out_learnt[k]))) & 31U);
    std::size_t keep = 1;
    for (std::size_t k = 1; k < out_learnt.size(); ++k) {
        var v = var_of(out_learnt[k]);
        if (reason_[static_cast<std::size_t>(v)] == cref_undef ||
            !lit_redundant(out_learnt[k], abstract_levels)) {
            out_learnt[keep++] = out_learnt[k];
        }
    }
    stats_.minimized_literals += out_learnt.size() - keep;
    out_learnt.resize(keep);
    stats_.learnt_literals += out_learnt.size();

    // Compute backtrack level: the second-highest level in the clause.
    if (out_learnt.size() == 1) {
        out_btlevel = 0;
    } else {
        std::size_t max_i = 1;
        for (std::size_t k = 2; k < out_learnt.size(); ++k)
            if (level_of(var_of(out_learnt[k])) > level_of(var_of(out_learnt[max_i]))) max_i = k;
        std::swap(out_learnt[1], out_learnt[max_i]);
        out_btlevel = level_of(var_of(out_learnt[1]));
    }

    for (lit l : analyze_toclear_) seen_[static_cast<std::size_t>(var_of(l))] = 0;
}

bool solver::lit_redundant(lit l, std::uint32_t abstract_levels) {
    analyze_stack_.clear();
    analyze_stack_.push_back(l);
    std::size_t top = analyze_toclear_.size();
    while (!analyze_stack_.empty()) {
        lit cur = analyze_stack_.back();
        analyze_stack_.pop_back();
        cref c = reason_[static_cast<std::size_t>(var_of(cur))];
        std::uint32_t sz = clause_size(c);
        for (std::uint32_t k = 1; k < sz; ++k) {
            lit q = clause_lit(c, k);
            var vq = var_of(q);
            if (seen_[static_cast<std::size_t>(vq)] != 0 || level_of(vq) == 0) continue;
            if (reason_[static_cast<std::size_t>(vq)] != cref_undef &&
                ((1U << (static_cast<std::uint32_t>(level_of(vq)) & 31U)) & abstract_levels) != 0) {
                seen_[static_cast<std::size_t>(vq)] = 1;
                analyze_stack_.push_back(q);
                analyze_toclear_.push_back(q);
            } else {
                // Not removable: undo marks added during this check.
                for (std::size_t j = top; j < analyze_toclear_.size(); ++j)
                    seen_[static_cast<std::size_t>(var_of(analyze_toclear_[j]))] = 0;
                analyze_toclear_.resize(top);
                return false;
            }
        }
    }
    return true;
}

void solver::analyze_final(lit p) {
    conflict_.clear();
    conflict_.push_back(p);
    if (decision_level() == 0) return;
    seen_[static_cast<std::size_t>(var_of(p))] = 1;
    for (std::size_t i = trail_.size();
         i-- > static_cast<std::size_t>(trail_lim_[0]);) {
        var x = var_of(trail_[i]);
        if (seen_[static_cast<std::size_t>(x)] == 0) continue;
        cref r = reason_[static_cast<std::size_t>(x)];
        if (r == cref_undef) {
            conflict_.push_back(~trail_[i]);
        } else {
            std::uint32_t sz = clause_size(r);
            for (std::uint32_t k = 1; k < sz; ++k) {
                var vq = var_of(clause_lit(r, k));
                if (level_of(vq) > 0) seen_[static_cast<std::size_t>(vq)] = 1;
            }
        }
        seen_[static_cast<std::size_t>(x)] = 0;
    }
    seen_[static_cast<std::size_t>(var_of(p))] = 0;
}

// ---- heuristics --------------------------------------------------------------

void solver::var_bump_activity(var v) {
    double& a = activity_[static_cast<std::size_t>(v)];
    a += var_inc_;
    if (a > 1e100) {
        for (auto& x : activity_) x *= 1e-100;
        var_inc_ *= 1e-100;
    }
    if (heap_contains(v)) heap_update(v);
}

void solver::cla_bump_activity(cref c) {
    float a = clause_activity(c) + static_cast<float>(cla_inc_);
    if (a > 1e20F) {
        for (cref lc : learnts_) set_clause_activity(lc, clause_activity(lc) * 1e-20F);
        cla_inc_ *= 1e-20;
        a = clause_activity(c) + static_cast<float>(cla_inc_);
    }
    set_clause_activity(c, a);
}

lit solver::pick_branch_lit() {
    // Occasional random decisions diversify portfolio members; a var already
    // assigned falls through to the activity heap.
    if (opts_.random_branch_freq > 0 && !assigns_.empty() &&
        random_.next_double() < opts_.random_branch_freq) {
        var v = static_cast<var>(random_.next_below(assigns_.size()));
        if (value(v) == lbool::l_undef)
            return mk_lit(v, polarity_[static_cast<std::size_t>(v)] != 0);
    }
    var next = var_undef;
    while (next == var_undef || value(next) != lbool::l_undef) {
        if (heap_.empty()) return lit_undef;
        next = heap_pop();
    }
    return mk_lit(next, polarity_[static_cast<std::size_t>(next)] != 0);
}

// indexed binary max-heap --------------------------------------------------------

void solver::heap_insert(var v) {
    heap_pos_[static_cast<std::size_t>(v)] = static_cast<int>(heap_.size());
    heap_.push_back(v);
    heap_sift_up(static_cast<int>(heap_.size()) - 1);
}

void solver::heap_update(var v) {
    int i = heap_pos_[static_cast<std::size_t>(v)];
    heap_sift_up(i);
    heap_sift_down(heap_pos_[static_cast<std::size_t>(v)]);
}

var solver::heap_pop() {
    var top = heap_[0];
    heap_pos_[static_cast<std::size_t>(top)] = -1;
    heap_[0] = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
        heap_pos_[static_cast<std::size_t>(heap_[0])] = 0;
        heap_sift_down(0);
    }
    return top;
}

void solver::heap_sift_up(int i) {
    var v = heap_[static_cast<std::size_t>(i)];
    while (i > 0) {
        int parent = (i - 1) / 2;
        if (!heap_less(v, heap_[static_cast<std::size_t>(parent)])) break;
        heap_[static_cast<std::size_t>(i)] = heap_[static_cast<std::size_t>(parent)];
        heap_pos_[static_cast<std::size_t>(heap_[static_cast<std::size_t>(i)])] = i;
        i = parent;
    }
    heap_[static_cast<std::size_t>(i)] = v;
    heap_pos_[static_cast<std::size_t>(v)] = i;
}

void solver::heap_sift_down(int i) {
    var v = heap_[static_cast<std::size_t>(i)];
    int n = static_cast<int>(heap_.size());
    for (;;) {
        int child = 2 * i + 1;
        if (child >= n) break;
        if (child + 1 < n &&
            heap_less(heap_[static_cast<std::size_t>(child + 1)],
                      heap_[static_cast<std::size_t>(child)]))
            ++child;
        if (!heap_less(heap_[static_cast<std::size_t>(child)], v)) break;
        heap_[static_cast<std::size_t>(i)] = heap_[static_cast<std::size_t>(child)];
        heap_pos_[static_cast<std::size_t>(heap_[static_cast<std::size_t>(i)])] = i;
        i = child;
    }
    heap_[static_cast<std::size_t>(i)] = v;
    heap_pos_[static_cast<std::size_t>(v)] = i;
}

// ---- learnt DB management ------------------------------------------------------

bool solver::clause_locked(cref c) const {
    lit l0 = clause_lit(c, 0);
    return value(l0) == lbool::l_true && reason_[static_cast<std::size_t>(var_of(l0))] == c;
}

void solver::reduce_db() {
    // Sort by activity ascending and drop the lower half (except locked /
    // binary clauses, which are cheap and valuable).
    std::sort(learnts_.begin(), learnts_.end(), [this](cref a, cref b) {
        bool bin_a = clause_size(a) == 2;
        bool bin_b = clause_size(b) == 2;
        if (bin_a != bin_b) return !bin_a;  // non-binary first (deleted first)
        return clause_activity(a) < clause_activity(b);
    });
    std::size_t keep = 0;
    double extra_lim = cla_inc_ / static_cast<double>(std::max<std::size_t>(learnts_.size(), 1));
    for (std::size_t i = 0; i < learnts_.size(); ++i) {
        cref c = learnts_[i];
        bool removable = clause_size(c) > 2 && !clause_locked(c) &&
                         (i < learnts_.size() / 2 || clause_activity(c) < extra_lim);
        if (removable) {
            detach_clause(c);
            free_clause(c);
            ++stats_.deleted_clauses;
        } else {
            learnts_[keep++] = c;
        }
    }
    learnts_.resize(keep);
}

void solver::reduce_glucose() {
    ++stats_.reduces;
    std::sort(learnts_.begin(), learnts_.end(), [this](cref a, cref b) {
        // Ascending keep-worthiness: worst glue first, activity as the
        // tie-break, cref as the deterministic final tie-break.
        std::uint32_t la = clause_lbd(a);
        std::uint32_t lb = clause_lbd(b);
        if (la != lb) return la > lb;
        float aa = clause_activity(a);
        float ab = clause_activity(b);
        if (aa != ab) return aa < ab;
        return a > b;
    });
    const std::size_t target = learnts_.size() / 2;
    std::size_t keep = 0;
    std::size_t dropped = 0;
    for (cref c : learnts_) {
        const bool keeper = clause_size(c) == 2 || clause_lbd(c) <= opts_.reduce_keep_lbd ||
                            clause_locked(c);
        if (!keeper && dropped < target) {
            detach_clause(c);
            free_clause(c);
            ++dropped;
            ++stats_.deleted_clauses;
        } else {
            learnts_[keep++] = c;
        }
    }
    learnts_.resize(keep);
}

void solver::remove_satisfied(std::vector<cref>& clauses) {
    std::size_t keep = 0;
    for (cref c : clauses) {
        bool satisfied = false;
        std::uint32_t sz = clause_size(c);
        for (std::uint32_t k = 0; k < sz && !satisfied; ++k)
            satisfied = value(clause_lit(c, k)) == lbool::l_true;
        if (satisfied) {
            detach_clause(c);
            free_clause(c);
        } else {
            clauses[keep++] = c;
        }
    }
    clauses.resize(keep);
}

void solver::simplify() {
    if (decision_level() != 0 || !ok_) return;
    if (trail_.size() == simplify_assigns_) return;
    remove_satisfied(learnts_);
    remove_satisfied(clauses_);
    simplify_assigns_ = trail_.size();
}

// ---- inprocessing ---------------------------------------------------------------

void solver::clear_level0_reasons() {
    // Every trail literal at level 0 is a fact; its reason clause is never
    // consulted again (analysis skips level-0 literals), so dropping the
    // crefs here lets deletion and arena GC move clauses freely without
    // leaving dangling reasons behind.
    for (lit l : trail_) reason_[static_cast<std::size_t>(var_of(l))] = cref_undef;
}

void solver::inprocess() {
    if (decision_level() != 0 || !ok_) return;
    ++stats_.inprocessings;
    clear_level0_reasons();
    remove_satisfied(learnts_);
    remove_satisfied(clauses_);
    simplify_assigns_ = trail_.size();
    if (ok_) subsume_pass();
    if (ok_ && opts_.inprocess_elim) eliminate_vars();
    next_inprocess_ = stats_.conflicts + opts_.inprocess_interval;
    maybe_collect_garbage();
}

void solver::subsume_pass() {
    // Occurrence index and 64-bit signatures over the problem clauses,
    // both keyed by position in clauses_ so stale entries are cheap to
    // skip. Backward subsumption: each clause checks the occurrence list
    // of its least-occurring literal, the only place a superset can hide.
    const std::size_t nlits = 2 * assigns_.size();
    std::vector<std::vector<std::uint32_t>> occs(nlits);
    std::vector<std::uint64_t> sig(clauses_.size(), 0);
    std::vector<char> dead(clauses_.size(), 0);

    auto clause_sig = [this](cref c) {
        std::uint64_t s = 0;
        const std::uint32_t sz = clause_size(c);
        for (std::uint32_t k = 0; k < sz; ++k)
            s |= 1ULL << (static_cast<std::uint32_t>(var_of(clause_lit(c, k))) & 63U);
        return s;
    };
    for (std::uint32_t i = 0; i < clauses_.size(); ++i) {
        sig[i] = clause_sig(clauses_[i]);
        const std::uint32_t sz = clause_size(clauses_[i]);
        for (std::uint32_t k = 0; k < sz; ++k)
            occs[lit_index(clause_lit(clauses_[i], k))].push_back(i);
    }

    // 0 = unrelated, 1 = c subsumes d, 2 = self-subsuming resolution: all
    // of c is in d except `out`, whose negation is in d (so resolving on
    // var(out) strengthens d by removing ~out).
    auto relate = [this](cref c, cref d, lit& out) {
        const std::uint32_t cs = clause_size(c);
        const std::uint32_t ds = clause_size(d);
        lit flipped = lit_undef;
        for (std::uint32_t k = 0; k < cs; ++k) {
            const lit lk = clause_lit(c, k);
            bool found = false;
            for (std::uint32_t m = 0; m < ds && !found; ++m) {
                const lit lm = clause_lit(d, m);
                if (lm == lk) {
                    found = true;
                } else if (flipped == lit_undef && lm == ~lk) {
                    flipped = lk;
                    found = true;
                }
            }
            if (!found) return 0;
        }
        if (flipped == lit_undef) return 1;
        out = flipped;
        return 2;
    };

    std::vector<std::uint32_t> queue(clauses_.size());
    for (std::uint32_t i = 0; i < queue.size(); ++i) queue[i] = i;

    // Removes `q` from clauses_[j], rebuilding the clause filtered against
    // the level-0 assignment (a reattached clause must never watch a
    // top-level-false literal). The slot keeps its index, so the
    // occurrence lists need no repair; the shorter clause is requeued.
    auto strengthen = [&](std::uint32_t j, lit q) {
        const cref d = clauses_[j];
        ++stats_.strengthened_literals;
        detach_clause(d);
        free_clause(d);
        clause_lits rest;
        const std::uint32_t sz = clause_size(d);
        bool satisfied = false;
        for (std::uint32_t m = 0; m < sz && !satisfied; ++m) {
            const lit lm = clause_lit(d, m);
            if (lm == q) continue;
            if (value(lm) == lbool::l_true) satisfied = true;
            if (value(lm) == lbool::l_undef) rest.push_back(lm);
        }
        if (satisfied) {
            dead[j] = 1;
            return;
        }
        if (rest.empty()) {
            dead[j] = 1;
            ok_ = false;
            return;
        }
        if (rest.size() == 1) {
            dead[j] = 1;
            enqueue(rest[0], cref_undef);
            ok_ = propagate() == cref_undef;
            return;
        }
        const cref nd = alloc_clause(rest, /*learnt=*/false);
        attach_clause(nd);
        clauses_[j] = nd;
        sig[j] = clause_sig(nd);
        queue.push_back(j);
    };

    for (std::size_t qi = 0; qi < queue.size() && ok_; ++qi) {
        const std::uint32_t i = queue[qi];
        if (dead[i] != 0) continue;
        const cref c = clauses_[i];
        const std::uint32_t sz = clause_size(c);
        std::uint32_t best = lit_index(clause_lit(c, 0));
        for (std::uint32_t k = 1; k < sz; ++k) {
            const std::uint32_t idx = static_cast<std::uint32_t>(lit_index(clause_lit(c, k)));
            if (occs[idx].size() < occs[best].size()) best = idx;
        }
        // Candidates may be stale (strengthened clauses keep their old occ
        // entries); the exact literal-by-literal check below is immune.
        for (const std::uint32_t j : occs[best]) {
            if (dead[i] != 0 || !ok_) break;
            if (j == i || dead[j] != 0) continue;
            const cref d = clauses_[j];
            if (clause_size(d) < clause_size(c)) continue;
            if ((sig[i] & ~sig[j]) != 0) continue;
            lit flip = lit_undef;
            const int rel = relate(c, d, flip);
            if (rel == 1) {
                detach_clause(d);
                free_clause(d);
                dead[j] = 1;
                ++stats_.subsumed_clauses;
            } else if (rel == 2) {
                strengthen(j, ~flip);
            }
        }
    }

    std::size_t keep = 0;
    for (std::uint32_t i = 0; i < clauses_.size(); ++i)
        if (dead[i] == 0) clauses_[keep++] = clauses_[i];
    clauses_.resize(keep);
}

void solver::eliminate_vars() {
    const std::size_t nvars = assigns_.size();
    std::vector<std::vector<std::uint32_t>> occs(2 * nvars);
    std::vector<char> dead(clauses_.size(), 0);
    for (std::uint32_t i = 0; i < clauses_.size(); ++i) {
        const std::uint32_t sz = clause_size(clauses_[i]);
        for (std::uint32_t k = 0; k < sz; ++k)
            occs[lit_index(clause_lit(clauses_[i], k))].push_back(i);
    }
    // Assumption variables are frozen for this solve: eliminating one and
    // then assuming it would answer from the wrong formula.
    std::vector<char> frozen(nvars, 0);
    for (lit a : assumptions_) frozen[static_cast<std::size_t>(var_of(a))] = 1;

    // Resolvent of clauses_[pi] (contains v) and clauses_[ni] (contains
    // ~v); false when tautological.
    auto resolve = [this](cref cp, cref cn, var v, clause_lits& out) {
        out.clear();
        for (cref c : {cp, cn}) {
            const std::uint32_t sz = clause_size(c);
            for (std::uint32_t k = 0; k < sz; ++k) {
                const lit lk = clause_lit(c, k);
                if (var_of(lk) != v) out.push_back(lk);
            }
        }
        std::sort(out.begin(), out.end());
        std::size_t w = 0;
        for (std::size_t k = 0; k < out.size(); ++k) {
            if (w > 0 && out[k] == out[w - 1]) continue;
            if (w > 0 && out[k] == ~out[w - 1]) return false;
            out[w++] = out[k];
        }
        out.resize(w);
        return true;
    };

    // Keeps only live occurrences that still contain the literal.
    auto compact = [&](std::vector<std::uint32_t>& list, lit must) {
        std::size_t w = 0;
        for (const std::uint32_t idx : list) {
            if (dead[idx] != 0) continue;
            const cref c = clauses_[idx];
            const std::uint32_t sz = clause_size(c);
            bool has = false;
            for (std::uint32_t k = 0; k < sz && !has; ++k) has = clause_lit(c, k) == must;
            if (has) list[w++] = idx;
        }
        list.resize(w);
    };

    bool any_elim = false;
    clause_lits scratch;
    for (var v = 0; v < static_cast<var>(nvars) && ok_; ++v) {
        const auto vi = static_cast<std::size_t>(v);
        if (eliminated_[vi] != 0 || frozen[vi] != 0 || value(v) != lbool::l_undef) continue;
        const lit pv = mk_lit(v);
        auto& pos = occs[lit_index(pv)];
        auto& neg = occs[lit_index(~pv)];
        compact(pos, pv);
        compact(neg, ~pv);
        if (pos.size() > opts_.elim_occ_limit || neg.size() > opts_.elim_occ_limit) continue;

        std::vector<clause_lits> resolvents;
        const std::size_t allowed = pos.size() + neg.size() + opts_.elim_grow_limit;
        bool blocked = false;
        for (const std::uint32_t pi : pos) {
            for (const std::uint32_t ni : neg) {
                if (!resolve(clauses_[pi], clauses_[ni], v, scratch)) continue;
                if (scratch.size() > opts_.elim_clause_limit || resolvents.size() >= allowed) {
                    blocked = true;
                    break;
                }
                resolvents.push_back(scratch);
            }
            if (blocked) break;
        }
        if (blocked) continue;

        // Commit: record the original clauses (v's literal first — the
        // reconstruction witness), remove them, add the resolvents.
        any_elim = true;
        eliminated_[vi] = 1;
        ++stats_.eliminated_vars;
        elim_record rec;
        rec.v = v;
        for (const auto* side : {&pos, &neg}) {
            for (const std::uint32_t idx : *side) {
                const cref c = clauses_[idx];
                const std::uint32_t sz = clause_size(c);
                clause_lits cl;
                cl.reserve(sz);
                for (std::uint32_t k = 0; k < sz; ++k) {
                    const lit lk = clause_lit(c, k);
                    if (var_of(lk) == v) {
                        cl.insert(cl.begin(), lk);
                    } else {
                        cl.push_back(lk);
                    }
                }
                rec.clauses.push_back(std::move(cl));
                detach_clause(c);
                free_clause(c);
                dead[idx] = 1;
            }
        }
        elim_index_[vi] = static_cast<std::int32_t>(elim_stack_.size());
        elim_stack_.push_back(std::move(rec));

        for (const clause_lits& r : resolvents) {
            clause_lits out;
            bool satisfied = false;
            for (const lit l : r) {
                if (value(l) == lbool::l_true) {
                    satisfied = true;
                    break;
                }
                if (value(l) == lbool::l_undef) out.push_back(l);
            }
            if (satisfied) continue;
            if (out.empty()) {
                ok_ = false;
                break;
            }
            if (out.size() == 1) {
                enqueue(out[0], cref_undef);
                ok_ = propagate() == cref_undef;
                if (!ok_) break;
                continue;
            }
            const cref c = alloc_clause(out, /*learnt=*/false);
            attach_clause(c);
            const auto idx = static_cast<std::uint32_t>(clauses_.size());
            clauses_.push_back(c);
            dead.push_back(0);
            for (const lit l : out) occs[lit_index(l)].push_back(idx);
        }
    }

    std::size_t keep = 0;
    for (std::uint32_t i = 0; i < clauses_.size(); ++i)
        if (dead[i] == 0) clauses_[keep++] = clauses_[i];
    clauses_.resize(keep);

    if (any_elim) {
        // Learnt clauses over an eliminated variable would keep it alive in
        // the search for no benefit; they are consequences, dropping them
        // is always sound.
        std::size_t lkeep = 0;
        for (const cref c : learnts_) {
            const std::uint32_t sz = clause_size(c);
            bool touches = false;
            for (std::uint32_t k = 0; k < sz && !touches; ++k)
                touches = eliminated_[static_cast<std::size_t>(var_of(clause_lit(c, k)))] != 0;
            if (touches) {
                detach_clause(c);
                free_clause(c);
            } else {
                learnts_[lkeep++] = c;
            }
        }
        learnts_.resize(lkeep);
    }
}

void solver::restore_var(var v0) {
    if (!var_eliminated(v0)) return;
    std::vector<var> work{v0};
    while (!work.empty()) {
        const var v = work.back();
        work.pop_back();
        const auto vi = static_cast<std::size_t>(v);
        if (eliminated_[vi] == 0) continue;
        eliminated_[vi] = 0;
        --stats_.eliminated_vars;
        elim_record& rec = elim_stack_[static_cast<std::size_t>(elim_index_[vi])];
        rec.live = false;
        elim_index_[vi] = -1;
        for (const clause_lits& cl : rec.clauses) {
            // Restored clauses can mention further eliminated variables
            // (eliminated earlier, when this clause was already parked in
            // the record): cascade the restore.
            for (const lit l : cl)
                if (var_eliminated(var_of(l))) work.push_back(var_of(l));
            // Re-add with add_clause's level-0 simplification, but without
            // touching the input digest: these are not new input clauses.
            clause_lits out;
            bool satisfied = false;
            lit prev = lit_undef;
            clause_lits sorted = cl;
            std::sort(sorted.begin(), sorted.end());
            for (const lit l : sorted) {
                if (value(l) == lbool::l_true || l == ~prev) {
                    satisfied = true;
                    break;
                }
                if (value(l) == lbool::l_false || l == prev) continue;
                out.push_back(l);
                prev = l;
            }
            if (satisfied) continue;
            if (out.empty()) {
                ok_ = false;
                return;
            }
            if (out.size() == 1) {
                enqueue(out[0], cref_undef);
                ok_ = propagate() == cref_undef;
                if (!ok_) return;
                continue;
            }
            const cref c = alloc_clause(out, /*learnt=*/false);
            attach_clause(c);
            clauses_.push_back(c);
        }
        rec.clauses.clear();
        rec.clauses.shrink_to_fit();
    }
}

void solver::restore_eliminated(const std::vector<lit>& lits) {
    for (const lit l : lits) restore_var(var_of(l));
}

void solver::extend_model() {
    auto model_sat = [this](lit l) {
        const lbool v = model_[static_cast<std::size_t>(var_of(l))];
        return sign_of(l) ? v == lbool::l_false : v == lbool::l_true;
    };
    // Reverse elimination order: each record sees the model already fixed
    // for every later-eliminated variable, which is exactly the state its
    // resolvent-satisfaction argument needs. If some original clause of v
    // is unsatisfied, the opposite value of v satisfies them all (any
    // still-unsatisfied pair of opposite-polarity clauses would falsify a
    // resolvent the model is known to satisfy).
    for (auto it = elim_stack_.rbegin(); it != elim_stack_.rend(); ++it) {
        if (!it->live) continue;
        bool all_sat = true;
        for (const clause_lits& cl : it->clauses) {
            bool sat = false;
            for (const lit l : cl) {
                if (model_sat(l)) {
                    sat = true;
                    break;
                }
            }
            if (!sat) {
                all_sat = false;
                break;
            }
        }
        if (!all_sat) {
            lbool& mv = model_[static_cast<std::size_t>(it->v)];
            mv = mv == lbool::l_true ? lbool::l_false : lbool::l_true;
        }
    }
}

void solver::maybe_collect_garbage() {
    // Gated on the modern features: legacy-mode clients must keep their
    // historical crefs so the bitwise regression pins stay exact.
    if (!opts_.reduce_learnts && !opts_.inprocess) return;
    if (decision_level() != 0) return;
    if (wasted_ == 0 || wasted_ * 5 < arena_.size()) return;
    clear_level0_reasons();
    std::vector<std::uint32_t> to;
    to.reserve(arena_.size() - std::min<std::uint64_t>(wasted_, arena_.size()));
    for (cref& c : clauses_) c = relocate(c, to);
    for (cref& c : learnts_) c = relocate(c, to);
    // Watch lists are updated in place, preserving both order and blocker
    // literals: propagation behaviour is untouched by a collection.
    for (auto& ws : watches_)
        for (auto& w : ws) w.clause = arena_[w.clause + 1];
    arena_ = std::move(to);
    wasted_ = 0;
}

cref solver::relocate(cref c, std::vector<std::uint32_t>& to) {
    if (clause_reloced(c)) return arena_[c + 1];
    const cref nc = static_cast<cref>(to.size());
    const std::uint32_t n = clause_words(c);
    for (std::uint32_t i = 0; i < n; ++i) to.push_back(arena_[c + i]);
    arena_[c] |= hdr_reloced;
    arena_[c + 1] = nc;
    return nc;
}

// ---- search ---------------------------------------------------------------------

lbool solver::search(std::uint64_t conflicts_before_restart) {
    // Resume mid-interval after a conflict-pause: without this, an interval
    // longer than the pause slice could never complete and the solver would
    // stop restarting. Zero except immediately after a pause.
    std::uint64_t conflicts_here = resume_interval_conflicts_;
    resume_interval_conflicts_ = 0;
    clause_lits learnt;
    for (;;) {
        if (interrupt_ != nullptr && interrupt_->load(std::memory_order_relaxed)) {
            interrupted_ = true;
            backtrack_to(0);
            return lbool::l_undef;
        }
        cref confl = propagate();
        if (confl != cref_undef) {
            ++stats_.conflicts;
            ++conflicts_here;
            if (conflict_budget_ != 0 && stats_.conflicts > conflict_budget_) {
                budget_exhausted_ = true;
                backtrack_to(0);
                return lbool::l_undef;
            }
            if (decision_level() == 0) {
                ok_ = false;
                conflict_.clear();
                return lbool::l_false;
            }
            int btlevel = 0;
            analyze(confl, learnt, btlevel);
            // LBD must be read before backtracking invalidates the levels.
            unsigned lbd = 0;
            if (lbd_active()) {
                lbd = compute_lbd(learnt);
                stats_.lbd_sum += lbd;
            }
            backtrack_to(btlevel);
            if (learnt.size() == 1) {
                enqueue(learnt[0], cref_undef);
            } else {
                cref c = alloc_clause(learnt, /*learnt=*/true);
                if (lbd_active()) set_clause_lbd(c, lbd);
                learnts_.push_back(c);
                attach_clause(c);
                cla_bump_activity(c);
                enqueue(learnt[0], c);
            }
            var_decay_activity();
            cla_decay_activity();
            if (conflict_pause_ != 0 && stats_.conflicts >= conflict_pause_) {
                paused_ = true;
                resume_interval_conflicts_ = conflicts_here;
                backtrack_to(0);
                return lbool::l_undef;
            }
        } else {
            if (conflicts_here >= conflicts_before_restart) {
                backtrack_to(0);
                ++stats_.restarts;
                return lbool::l_undef;
            }
            if (decision_level() == 0) simplify();
            if (opts_.reduce_learnts) {
                // Glucose discipline: reduce on a conflict-count schedule
                // whose interval stretches with every reduction. Conflict
                // counts are scheduling-independent, so the trigger is
                // deterministic across thread counts and pause slices.
                if (next_reduce_ == 0) next_reduce_ = opts_.reduce_first;
                if (stats_.conflicts >= next_reduce_) {
                    reduce_glucose();
                    next_reduce_ = stats_.conflicts + opts_.reduce_first +
                                   static_cast<std::uint64_t>(opts_.reduce_inc) * stats_.reduces;
                }
            } else if (static_cast<double>(learnts_.size()) >= max_learnts_ + trail_.size()) {
                reduce_db();
                max_learnts_ *= learntsize_inc_;
            }

            lit next = lit_undef;
            while (decision_level() < static_cast<int>(assumptions_.size())) {
                lit p = assumptions_[static_cast<std::size_t>(decision_level())];
                if (value(p) == lbool::l_true) {
                    new_decision_level();  // dummy level: assumption already holds
                } else if (value(p) == lbool::l_false) {
                    analyze_final(~p);
                    return lbool::l_false;
                } else {
                    next = p;
                    break;
                }
            }
            if (next == lit_undef) {
                next = pick_branch_lit();
                if (next == lit_undef) return lbool::l_true;  // all variables assigned
                ++stats_.decisions;
            }
            new_decision_level();
            enqueue(next, cref_undef);
        }
    }
}

double solver::luby(double y, std::uint64_t i) {
    // Finite subsequence sizes of the Luby restart sequence.
    std::uint64_t size = 1;
    std::uint64_t seq = 0;
    while (size < i + 1) {
        ++seq;
        size = 2 * size + 1;
    }
    while (size - 1 != i) {
        size = (size - 1) / 2;
        --seq;
        i = i % size;
    }
    return std::pow(y, static_cast<double>(seq));
}

solve_result solver::solve(const std::vector<lit>& assumptions) {
    assumptions_ = assumptions;
    conflict_.clear();
    model_.clear();
    interrupted_ = false;
    paused_ = false;
    budget_exhausted_ = false;
    if (progress_fn_) progress_fn_(stats_);
    if (!ok_) return solve_result::unsat;

    // Assumptions over eliminated variables force their original clauses
    // back first: the eliminated formula alone would answer wrongly there
    // (F = {~v} eliminates v entirely, yet assuming v must yield unsat).
    if (!elim_stack_.empty()) restore_eliminated(assumptions_);
    // The first inprocessing pass fires before search (preprocessing);
    // later passes re-arm on a conflict-count threshold.
    if (opts_.inprocess && ok_ && decision_level() == 0 && stats_.conflicts >= next_inprocess_)
        inprocess();
    if (!ok_) return solve_result::unsat;

    max_learnts_ = std::max(static_cast<double>(clauses_.size()) * learntsize_factor_, 1000.0);

    lbool status = lbool::l_undef;
    // A solve resuming from a conflict-pause continues the Luby sequence
    // where the paused slice left it; plain solves start afresh (the
    // historical behaviour, bit-identical when pausing is unused).
    std::uint64_t restarts = resume_restarts_;
    resume_restarts_ = 0;
    while (status == lbool::l_undef) {
        double budget = opts_.restart_base * luby(opts_.restart_luby_factor, restarts++);
        status = search(static_cast<std::uint64_t>(budget));
        if (progress_fn_) progress_fn_(stats_);
        if (interrupted_ || paused_ || budget_exhausted_) {
            if (paused_) resume_restarts_ = restarts - 1;
            return solve_result::unknown;
        }
        if (status == lbool::l_undef) {
            // Restart boundary (decision level 0): inprocessing fires here,
            // on its deterministic conflict threshold.
            if (opts_.inprocess && stats_.conflicts >= next_inprocess_) {
                inprocess();
                if (!ok_) return solve_result::unsat;
            }
            maybe_collect_garbage();
        }
    }

    if (status == lbool::l_true) {
        model_.assign(assigns_.begin(), assigns_.end());
        // Unassigned vars (eliminated from the heap race) default to false.
        for (auto& v : model_)
            if (v == lbool::l_undef) v = lbool::l_false;
        // Rebuild values for BVE-eliminated variables so every caller's
        // model-verification path keeps passing on the original formula.
        if (!elim_stack_.empty()) extend_model();
    }
    backtrack_to(0);
    return status == lbool::l_true ? solve_result::sat : solve_result::unsat;
}

}  // namespace sciduction::sat
