// CDCL SAT solver.
//
// A MiniSat-lineage conflict-driven clause-learning solver: two-watched
// literals, VSIDS decision heuristic with phase saving, Luby restarts,
// first-UIP learning with clause minimization, activity-driven learnt-clause
// deletion, and solving under assumptions (the hook that makes the SMT layer
// incremental).
//
// The paper (Sec. 2.4.2) discusses CDCL itself as a *deductive* engine whose
// clause learning is resolution-based generalization; here it is the bottom
// deductive layer for the QF_BV solver (Secs. 3-4) and the invariant-
// generation extension (Sec. 2.4.1).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "sat/types.hpp"
#include "util/rng.hpp"

namespace sciduction::sat {

/// Reference to a clause in the arena.
using cref = std::uint32_t;
inline constexpr cref cref_undef = 0xffffffffU;

/// Solver statistics, exposed for benches and tests.
struct solver_stats {
    std::uint64_t decisions = 0;
    std::uint64_t propagations = 0;
    std::uint64_t conflicts = 0;
    std::uint64_t restarts = 0;
    std::uint64_t learnt_literals = 0;
    std::uint64_t minimized_literals = 0;
    std::uint64_t deleted_clauses = 0;
    /// Sum of learnt-clause LBDs (glue); divide by `conflicts` for the
    /// average. Accumulated only when LBD tracking is active (see
    /// solver_options::track_lbd and reduce_learnts).
    std::uint64_t lbd_sum = 0;
    /// Glucose-discipline learnt-DB reductions performed (see
    /// solver_options::reduce_learnts); deleted_clauses counts the drops.
    std::uint64_t reduces = 0;
    /// Inprocessing passes run at restart boundaries.
    std::uint64_t inprocessings = 0;
    /// Problem clauses removed by backward subsumption.
    std::uint64_t subsumed_clauses = 0;
    /// Literals removed by self-subsuming resolution (strengthening).
    std::uint64_t strengthened_literals = 0;
    /// Variables removed by bounded variable elimination (net of later
    /// un-eliminations forced by assumptions or new clauses).
    std::uint64_t eliminated_vars = 0;

    bool operator==(const solver_stats&) const = default;
};

/// `unknown` is only returned when an external interrupt flag (see
/// set_interrupt) aborted the search; plain solve() calls stay binary.
enum class solve_result : std::uint8_t { sat, unsat, unknown };

/// Order-sensitive running digest of the top-level `add_clause` stream
/// (two independent 64-bit lanes plus the call count), mixed from the
/// clause literals exactly as given, before any simplification. Because
/// the substrate's replica contract already requires CNF builders to be
/// deterministic, two builds of the same problem produce identical
/// digests across runs and processes — this is the identity the
/// persistent CNF-level result cache keys on (substrate::cnf_fingerprint).
/// Learnt clauses never enter the digest: they are consequences, not
/// part of the problem.
struct clause_digest {
    std::uint64_t lo = 0x5c1d0c71a2e4b69dULL;  ///< golden-ratio mix lane
    std::uint64_t hi = 0xcbf29ce484222325ULL;  ///< FNV-1a lane
    std::uint64_t clauses = 0;                 ///< add_clause calls digested

    bool operator==(const clause_digest&) const = default;
};

/// Search-strategy knobs. The defaults reproduce the solver's historical
/// behaviour bit-for-bit; the substrate's portfolio backend diversifies
/// them (seed, phase, decay, restarts) to race differently-biased
/// instances of the same problem.
struct solver_options {
    double var_decay = 0.95;           ///< VSIDS activity decay
    double clause_decay = 0.999;       ///< learnt-clause activity decay
    bool init_phase_true = false;      ///< initial saved phase of every var
    double random_branch_freq = 0.0;   ///< probability of a random decision
    std::uint64_t random_seed = 0;     ///< seed for random branching
    double restart_base = 100.0;       ///< conflicts before the first restart
    double restart_luby_factor = 2.0;  ///< geometric factor of the Luby sequence
    /// Compute the literal-block distance (LBD, "glue") of every learnt
    /// clause and accumulate solver_stats::lbd_sum. Off by default so the
    /// plain solver pays nothing.
    bool track_lbd = false;

    // ---- learnt-DB reduction (Glucose discipline) -------------------------
    // Every knob below defaults to the feature being OFF: the historical
    // search must stay bit-for-bit reproducible (the fuzz harness pins it).

    /// Periodically reduce the learnt database keeping low-LBD ("glue")
    /// clauses, with clause activity as the tie-break. Implies LBD
    /// tracking. Replaces the legacy size-triggered activity-only
    /// reduction when set.
    bool reduce_learnts = false;
    /// Conflicts before the first Glucose-discipline reduction.
    std::uint32_t reduce_first = 2000;
    /// Extra conflicts added to the interval after each reduction.
    std::uint32_t reduce_inc = 300;
    /// Learnt clauses with LBD at or below this are never dropped.
    std::uint32_t reduce_keep_lbd = 2;

    // ---- inprocessing ------------------------------------------------------

    /// Run inprocessing (subsumption + self-subsuming resolution, bounded
    /// variable elimination) at restart boundaries.
    /// Fires on deterministic conflict-count thresholds, so answers and
    /// stats stay bit-identical across thread counts. Models for
    /// eliminated variables are reconstructed before solve() returns.
    bool inprocess = false;
    /// Conflicts between inprocessing passes (the first pass runs before
    /// search starts, i.e. acts as preprocessing).
    std::uint32_t inprocess_interval = 4000;
    /// Sub-switch: bounded variable elimination.
    bool inprocess_elim = true;
    /// Skip eliminating a variable occurring more often than this in
    /// either polarity (keeps the resolvent count quadratic-bounded).
    std::uint32_t elim_occ_limit = 10;
    /// Skip eliminating when it would add clauses: at most this many
    /// resolvents beyond the clauses removed.
    std::uint32_t elim_grow_limit = 0;
    /// Resolvents longer than this block the elimination.
    std::uint32_t elim_clause_limit = 20;
};

/// Opt-in toggles for the modern-CDCL extensions, carried through the
/// substrate (strategy -> resolved_strategy -> backend construction) as one
/// unit so a request can flip them without spelling every knob. Overlaid
/// onto possibly-diversified options via apply_features.
struct solver_features {
    bool reduce = false;     ///< Glucose-style learnt-DB reduction
    bool inprocess = false;  ///< restart-boundary inprocessing
    bool operator==(const solver_features&) const = default;
};

/// Overlays feature toggles onto an options struct (OR semantics: a knob
/// already enabled by the options stays enabled).
[[nodiscard]] inline solver_options apply_features(solver_options opts, solver_features f) {
    opts.reduce_learnts = opts.reduce_learnts || f.reduce;
    opts.inprocess = opts.inprocess || f.inprocess;
    return opts;
}

class solver {
public:
    solver();

    /// Applies search-strategy options. Safe to call at any point between
    /// solve() calls: saved phases accumulated by earlier solves are kept
    /// unless the initial-phase option itself changes (in which case every
    /// variable is re-seeded with the new phase, as diversification needs).
    void set_options(const solver_options& opts);
    [[nodiscard]] const solver_options& options() const { return opts_; }

    /// Installs an external interrupt flag checked during search. When the
    /// flag becomes true, the current solve() returns solve_result::unknown.
    /// Pass nullptr to detach. The flag must outlive the solve call.
    void set_interrupt(const std::atomic<bool>* flag) { interrupt_ = flag; }

    /// Progress hook, fired with the cumulative stats() snapshot at the
    /// start of each solve() and at every restart boundary — the live
    /// conflicts/propagations/restarts/LBD feed behind progress_reply. The
    /// hook runs on the solving thread and must only *read* the snapshot
    /// (observation only: installing it must not change the search, which
    /// the determinism tests pin). Zero-cost when unset (one branch per
    /// restart); pass nullptr to detach.
    using progress_fn = std::function<void(const solver_stats&)>;
    void set_progress(progress_fn fn) { progress_fn_ = std::move(fn); }

    /// Pauses the search when stats().conflicts reaches `total_conflicts`
    /// (0 = never): solve() returns solve_result::unknown with all state —
    /// learnt clauses, phases, activities — intact, so a later solve()
    /// resumes deterministically. This is the budgeted-portfolio time slice;
    /// unlike set_conflict_budget it neither throws nor counts as an error.
    void set_conflict_pause(std::uint64_t total_conflicts) { conflict_pause_ = total_conflicts; }

    /// Creates a fresh variable and returns its index.
    var new_var();
    [[nodiscard]] int num_vars() const { return static_cast<int>(assigns_.size()); }

    /// Adds a clause (top-level). Returns false if the solver became
    /// trivially unsatisfiable (empty clause / conflicting units).
    bool add_clause(clause_lits lits);
    bool add_clause(lit a) { return add_clause(clause_lits{a}); }
    bool add_clause(lit a, lit b) { return add_clause(clause_lits{a, b}); }
    bool add_clause(lit a, lit b, lit c) { return add_clause(clause_lits{a, b, c}); }

    [[nodiscard]] bool okay() const { return ok_; }
    [[nodiscard]] std::size_t num_clauses() const { return clauses_.size(); }
    [[nodiscard]] std::size_t num_learnts() const { return learnts_.size(); }

    /// The running digest of every add_clause call so far (see
    /// clause_digest). Combined with num_vars() it identifies the built
    /// problem instance for the substrate's CNF-level result cache.
    [[nodiscard]] const clause_digest& digest() const { return digest_; }

    /// Solves under the given assumptions.
    solve_result solve(const std::vector<lit>& assumptions = {});

    /// Model access after a sat answer.
    [[nodiscard]] lbool model_value(var v) const { return model_[static_cast<std::size_t>(v)]; }
    [[nodiscard]] bool model_bool(var v) const { return model_value(v) == lbool::l_true; }
    [[nodiscard]] bool model_lit(lit l) const {
        lbool v = model_value(var_of(l));
        return sign_of(l) ? v == lbool::l_false : v == lbool::l_true;
    }

    /// After an unsat answer under assumptions: the subset of assumptions
    /// (negated) that formed the final conflict. Empty when the formula is
    /// unsat regardless of the assumptions — the shard layer reads that as
    /// "every sibling cube is refuted too".
    [[nodiscard]] const std::vector<lit>& conflict_core() const { return conflict_; }

    /// Outcome of one bounded-lookahead probe (see probe_literal).
    struct probe_outcome {
        bool conflict = false;      ///< the probe hit a conflict: ~l is entailed
        std::uint32_t implied = 0;  ///< assignments implied by the probe (incl. l)
    };

    /// Bounded lookahead at decision level 0: assume `l`, run unit
    /// propagation, report the outcome, and restore the solver state. The
    /// cube generator scores splitting variables with this — a literal that
    /// implies many assignments splits the search space unevenly but
    /// cheaply, a conflicting one yields a free entailed unit. Only the
    /// saved-phase hints are perturbed (heuristic state, not answers).
    probe_outcome probe_literal(lit l);

    /// Per-variable occurrence counts over the problem (non-learnt)
    /// clauses — the cube generator's static ranking of split candidates.
    [[nodiscard]] std::vector<std::uint32_t> occurrence_counts() const;

    [[nodiscard]] const solver_stats& stats() const { return stats_; }

    /// Hard limit on total conflicts across solve() calls; 0 means
    /// unlimited. Exceeding the budget aborts the search: solve() returns
    /// solve_result::unknown with budget_exhausted() set (it used to throw —
    /// exceptions are reserved for programming errors now, and a budget
    /// running out is an expected outcome the substrate reports as
    /// solve_status::over_budget).
    void set_conflict_budget(std::uint64_t budget) { conflict_budget_ = budget; }

    /// Whether the last solve() was aborted by the interrupt flag. Cleared
    /// at the start of every solve; the substrate reads this to classify an
    /// unknown answer as solve_status::cancelled.
    [[nodiscard]] bool interrupted() const { return interrupted_; }
    /// Whether the last solve() stopped at the conflict-pause threshold
    /// (the budgeted-portfolio slice boundary). Cleared per solve.
    [[nodiscard]] bool paused() const { return paused_; }
    /// Whether the last solve() aborted on the hard conflict budget.
    /// Cleared per solve.
    [[nodiscard]] bool budget_exhausted() const { return budget_exhausted_; }

    /// Whether bounded variable elimination removed `v` (and no later
    /// restore brought it back). Exposed for the BVE reconstruction tests.
    [[nodiscard]] bool var_eliminated(var v) const {
        return eliminated_[static_cast<std::size_t>(v)] != 0;
    }

private:
    // ---- clause arena ----------------------------------------------------
    // Layout per clause: [header][act][lbd] (learnt only) [lit0][lit1]...
    // header = (size << 3) | (reloced << 2) | (has_extra << 1) | learnt
    // `reloced` marks a clause forwarded by arena garbage collection: the
    // word after the header then holds the new cref instead of activity.
    static constexpr std::uint32_t hdr_learnt = 1U;
    static constexpr std::uint32_t hdr_extra = 2U;
    static constexpr std::uint32_t hdr_reloced = 4U;
    static constexpr std::uint32_t hdr_size_shift = 3U;

    [[nodiscard]] std::uint32_t clause_size(cref c) const { return arena_[c] >> hdr_size_shift; }
    [[nodiscard]] bool clause_learnt(cref c) const { return (arena_[c] & hdr_learnt) != 0; }
    [[nodiscard]] bool clause_reloced(cref c) const { return (arena_[c] & hdr_reloced) != 0; }
    [[nodiscard]] lit clause_lit(cref c, std::uint32_t i) const {
        return lit{static_cast<std::int32_t>(arena_[c + lit_offset(c) + i])};
    }
    void set_clause_lit(cref c, std::uint32_t i, lit l) {
        arena_[c + lit_offset(c) + i] = static_cast<std::uint32_t>(l.x);
    }
    [[nodiscard]] std::uint32_t lit_offset(cref c) const {
        return 1U + 2U * ((arena_[c] >> 1) & 1U);
    }
    /// Total arena words occupied by the clause (header + extras + lits).
    [[nodiscard]] std::uint32_t clause_words(cref c) const {
        return lit_offset(c) + clause_size(c);
    }
    [[nodiscard]] float clause_activity(cref c) const;
    void set_clause_activity(cref c, float a);
    [[nodiscard]] std::uint32_t clause_lbd(cref c) const { return arena_[c + 2]; }
    void set_clause_lbd(cref c, std::uint32_t lbd) { arena_[c + 2] = lbd; }
    void shrink_clause(cref c, std::uint32_t new_size);

    cref alloc_clause(const clause_lits& lits, bool learnt);
    /// Bookkeeping for a clause leaving the database: its words stay in the
    /// arena until garbage collection relocates the survivors.
    void free_clause(cref c) { wasted_ += clause_words(c); }

    // ---- literal-block distance -------------------------------------------
    [[nodiscard]] bool lbd_active() const { return opts_.track_lbd || opts_.reduce_learnts; }
    /// Literal-block distance: distinct decision levels among the literals.
    [[nodiscard]] unsigned compute_lbd(const clause_lits& lits);
    /// Same, over a clause in the arena (for the dynamic-LBD update).
    [[nodiscard]] unsigned compute_lbd_clause(cref c);

    // ---- watched literals ------------------------------------------------
    struct watcher {
        cref clause;
        lit blocker;
    };

    void attach_clause(cref c);
    void detach_clause(cref c);

    // ---- assignment / trail ----------------------------------------------
    [[nodiscard]] lbool value(var v) const { return assigns_[static_cast<std::size_t>(v)]; }
    [[nodiscard]] lbool value(lit l) const {
        lbool v = value(var_of(l));
        return sign_of(l) ? negate(v) : v;
    }
    [[nodiscard]] int decision_level() const { return static_cast<int>(trail_lim_.size()); }
    [[nodiscard]] int level_of(var v) const { return level_[static_cast<std::size_t>(v)]; }

    void enqueue(lit l, cref from);
    cref propagate();
    void new_decision_level() { trail_lim_.push_back(static_cast<int>(trail_.size())); }
    void backtrack_to(int level);

    // ---- conflict analysis -----------------------------------------------
    void analyze(cref confl, clause_lits& out_learnt, int& out_btlevel);
    [[nodiscard]] bool lit_redundant(lit l, std::uint32_t abstract_levels);
    void analyze_final(lit p);

    // ---- heuristics -------------------------------------------------------
    void var_bump_activity(var v);
    void var_decay_activity() { var_inc_ /= var_decay_; }
    void cla_bump_activity(cref c);
    void cla_decay_activity() { cla_inc_ /= cla_decay_; }
    lit pick_branch_lit();

    // order heap (max-heap on activity, indexed for decrease/increase key)
    void heap_insert(var v);
    void heap_update(var v);
    var heap_pop();
    [[nodiscard]] bool heap_contains(var v) const {
        return heap_pos_[static_cast<std::size_t>(v)] >= 0;
    }
    void heap_sift_up(int i);
    void heap_sift_down(int i);
    [[nodiscard]] bool heap_less(var a, var b) const {
        return activity_[static_cast<std::size_t>(a)] > activity_[static_cast<std::size_t>(b)];
    }

    // ---- top-level simplification & learnt DB management ------------------
    void remove_satisfied(std::vector<cref>& clauses);
    void reduce_db();
    /// Glucose-discipline reduction: drop half the learnts, worst glue
    /// first, activity as tie-break; glue/binary/locked clauses survive.
    void reduce_glucose();
    [[nodiscard]] bool clause_locked(cref c) const;
    void simplify();

    // ---- inprocessing ------------------------------------------------------
    /// Runs one inprocessing pass at decision level 0 and re-arms the
    /// conflict-count trigger.
    void inprocess();
    /// Backward subsumption + self-subsuming resolution over an occurrence
    /// index of the problem clauses.
    void subsume_pass();
    /// Bounded variable elimination with solution-reconstruction records.
    void eliminate_vars();
    /// Zeroes the reasons of all (level-0) trail literals: they are facts,
    /// never re-derived, and stale crefs must not survive deletion/GC.
    void clear_level0_reasons();
    /// Re-adds the original clauses of any eliminated variable appearing in
    /// `lits` (cascading: restored clauses can mention further eliminated
    /// variables). Required before solving under assumptions that touch an
    /// eliminated variable — answering from the eliminated formula alone
    /// would be unsound there.
    void restore_eliminated(const std::vector<lit>& lits);
    void restore_var(var v0);
    /// Rebuilds model values for eliminated variables from the
    /// reconstruction stack (reverse elimination order).
    void extend_model();
    /// Arena relocation GC: compacts live clauses, fixes watch lists in
    /// place (order preserved). Requires decision level 0 with level-0
    /// reasons cleared.
    void maybe_collect_garbage();
    cref relocate(cref c, std::vector<std::uint32_t>& to);

    // ---- search -----------------------------------------------------------
    lbool search(std::uint64_t conflicts_before_restart);
    static double luby(double y, std::uint64_t i);

    // ---- state ------------------------------------------------------------
    bool ok_ = true;
    std::vector<std::uint32_t> arena_;
    std::vector<cref> clauses_;
    std::vector<cref> learnts_;
    std::vector<std::vector<watcher>> watches_;  // indexed by lit_index
    std::vector<lbool> assigns_;
    std::vector<char> polarity_;  // saved phase, 1 = last assigned false
    std::vector<int> level_;
    std::vector<cref> reason_;
    std::vector<lit> trail_;
    std::vector<int> trail_lim_;
    std::size_t qhead_ = 0;

    std::vector<double> activity_;
    double var_inc_ = 1.0;
    double var_decay_ = 0.95;
    double cla_inc_ = 1.0;
    double cla_decay_ = 0.999;
    std::vector<var> heap_;
    std::vector<int> heap_pos_;

    std::vector<char> seen_;
    std::vector<lit> analyze_stack_;
    std::vector<lit> analyze_toclear_;

    std::vector<lit> assumptions_;
    std::vector<lit> conflict_;
    std::vector<lbool> model_;
    clause_digest digest_;

    double max_learnts_ = 0.0;
    double learntsize_factor_ = 1.0 / 3.0;
    double learntsize_inc_ = 1.1;

    std::uint64_t conflict_budget_ = 0;
    std::uint64_t conflict_pause_ = 0;    // pause threshold on stats_.conflicts (0 = off)
    std::uint64_t resume_restarts_ = 0;   // Luby index to resume at after a pause
    std::uint64_t resume_interval_conflicts_ = 0;  // progress within the paused interval
    std::uint64_t simplify_assigns_ = 0;  // #top-level assigns at last simplify

    // Reduction / inprocessing triggers run on stats_.conflicts thresholds:
    // conflict counts are scheduling-independent, which is what keeps the
    // deterministic portfolio/shard disciplines bit-identical across
    // thread counts with the features on.
    std::uint64_t next_reduce_ = 0;     // 0 = not yet armed
    std::uint64_t next_inprocess_ = 0;  // first pass acts as preprocessing
    std::uint64_t wasted_ = 0;          // arena words freed but not collected

    /// One bounded-variable-elimination step: the eliminated variable and
    /// its original clauses, verbatim. Doubles as the solution-
    /// reconstruction stack (processed in reverse to extend models) and as
    /// the restore source when an assumption or a new clause brings the
    /// variable back.
    struct elim_record {
        var v = var_undef;
        bool live = true;  // false once restored (un-eliminated)
        std::vector<clause_lits> clauses;
    };
    std::vector<elim_record> elim_stack_;
    std::vector<char> eliminated_;          // per-var flag
    std::vector<std::int32_t> elim_index_;  // var -> elim_stack_ index, -1 = none

    solver_options opts_;
    util::rng random_;
    const std::atomic<bool>* interrupt_ = nullptr;
    bool interrupted_ = false;  // search aborted by the interrupt flag
    bool paused_ = false;       // search paused by the conflict-pause threshold
    bool budget_exhausted_ = false;  // search aborted on the hard conflict budget

    progress_fn progress_fn_;
    std::vector<std::uint32_t> lbd_seen_;      // per-level stamp for compute_lbd
    std::uint32_t lbd_stamp_ = 0;

    solver_stats stats_;
};

}  // namespace sciduction::sat
