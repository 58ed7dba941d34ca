/// \file
/// Learnt-clause sharing across solver instances working on the same CNF.
///
/// A CDCL solver's learnt clauses are resolvents of its clause database —
/// assumptions enter the search as decisions, never as clauses — so every
/// learnt clause is a consequence of the formula alone and is sound to add
/// to any other solver over the *identical* CNF (the replica contract the
/// portfolio and shard layers already require for model/cube transfer).
/// ManySAT-style sharing exploits that: members publish their short, low-LBD
/// learnt clauses into a shared pool and import each other's at safe points
/// (restart boundaries / cube boundaries), so a subproblem refuted once is
/// not re-refuted N times.
///
/// The pool is lock-light: one mutex guarding an append-only clause list
/// plus per-member read cursors; publishing copies a few literals, importing
/// drains [cursor, end). A member's own clauses are producer-stamped and
/// skipped on import, so nothing is ever re-imported.
///
/// Two exchange disciplines:
///  * free-running — publishes land in the visible list immediately and
///    members import whenever they restart. Fastest propagation, but *when*
///    a clause arrives depends on thread timing, so run-to-run solver stats
///    vary (answers never do: shared clauses are consequences).
///  * deterministic — publishes are buffered in per-member outboxes and made
///    visible only when the driver calls seal_round() at a conflict
///    checkpoint barrier (see sharing_config::deterministic). Every member
///    then sees exactly the same pool content at the same point of its own
///    deterministic search, making answers *and* stats reproducible across
///    thread counts.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "sat/solver.hpp"
#include "substrate/annotations.hpp"

namespace sciduction::substrate {

/// The round length the deterministic discipline falls back to when
/// sharing_config::slice_conflicts is left at 0.
inline constexpr std::uint64_t default_slice_conflicts = 2000;

/// Clause-exchange knobs shared by the portfolio, shard and engine layers.
/// Default-constructed sharing is off: every consumer then behaves
/// byte-identically to its pre-sharing self.
struct sharing_config {
    /// Master switch. Off = no pool, no hooks, bit-identical legacy paths.
    bool enabled = false;
    /// Reproducible sharing: members run in conflict-budgeted rounds and
    /// exchange only at the round barriers (seal_round), so answers and
    /// per-member stats are identical for 1 and N threads. Costs up to one
    /// round of latency per exchanged clause. A portfolio runs its rounds
    /// whenever this is set; `enabled` then only decides whether clauses
    /// are exchanged at the barriers.
    bool deterministic = false;
    /// Only clauses with at most this many literals are pooled (short
    /// clauses prune the most per byte; ManySAT's classic default is 8).
    unsigned max_clause_size = 8;
    /// Only clauses with LBD (glue) at most this are pooled; low-LBD
    /// clauses are the ones likely to be useful outside their producer.
    unsigned max_lbd = 6;
    /// Conflicts each member runs per round in the deterministic discipline
    /// (exchange happens at the round barriers). A deterministic portfolio
    /// uses this knob even with sharing disabled. 0 picks
    /// default_slice_conflicts.
    std::uint64_t slice_conflicts = default_slice_conflicts;
    /// At most this many foreign clauses are handed to a member per import
    /// point (solve start / restart boundary); the backlog drains over
    /// later imports. Throttling matters: flooding a member's learnt
    /// database with every peer clause costs more in watch/propagation
    /// overhead than the pruning wins back. 0 = unlimited.
    std::size_t max_import_per_checkpoint = 32;
};

/// Aggregated exchange counters summed over a set of member solvers —
/// the exported/imported/useful-import rates the benches report.
struct sharing_counters {
    std::uint64_t exported = 0;        ///< learnt clauses offered to the pool
    std::uint64_t imported = 0;        ///< foreign clauses integrated by members
    std::uint64_t useful_imports = 0;  ///< imported-clause uses in conflict analysis

    /// Field-wise equality (the determinism tests compare snapshots).
    bool operator==(const sharing_counters&) const = default;

    /// Accumulates one member solver's exchange counters.
    void accumulate(const sat::solver_stats& s) {
        exported += s.exported_clauses;
        imported += s.imported_clauses;
        useful_imports += s.useful_imports;
    }
};

/// Pool-side statistics (what the filters let through).
struct exchange_stats {
    std::uint64_t published = 0;  ///< clauses accepted into the pool
    std::uint64_t filtered = 0;   ///< clauses rejected by size/LBD/core-clean filters
    std::uint64_t fetched = 0;    ///< clause copies handed out to importers

    /// Field-wise equality.
    bool operator==(const exchange_stats&) const = default;
};

/// The shared clause pool. One pool per co-operating solver group (a
/// portfolio race or a shard tree); members
/// register once and then publish/fetch concurrently. All public methods
/// are thread-safe.
class clause_pool {
public:
    /// Creates an empty pool with the given filters and discipline.
    explicit clause_pool(sharing_config cfg = {});

    /// The configuration the pool was built with.
    [[nodiscard]] const sharing_config& config() const { return cfg_; }

    /// Registers one member and returns its id (the producer stamp). Call
    /// before any publish/fetch from that member; in deterministic mode,
    /// register all members up front so ids are scheduling-independent.
    unsigned register_member();

    /// Declares variables whose clauses must not be shared — the shard
    /// layer's core-clean filter: a clause mentioning a cube split variable
    /// is only meaningful relative to that cube's branch, so it is kept
    /// private. (Sharing it would still be *sound* — learnt clauses are
    /// formula consequences — but it would pollute siblings with weak,
    /// branch-specific noise.)
    void ban_vars(const std::vector<sat::var>& vars);

    /// Offers one learnt clause from `member`; returns whether the clause
    /// passed the size, LBD and banned-variable filters. Accepted clauses
    /// become visible immediately (free-running) or at the next
    /// seal_round() (deterministic).
    bool publish(unsigned member, const sat::clause_lits& lits, unsigned lbd);

    /// Appends every clause visible to `member` that it has not yet seen
    /// (and did not itself produce) to `out`; returns the number appended.
    /// Advances the member's cursor, so nothing is handed out twice.
    std::size_t fetch(unsigned member, std::vector<sat::clause_lits>& out);

    /// Deterministic mode's exchange barrier: merges all per-member
    /// outboxes (in member order) into the visible list. The caller must
    /// guarantee no member is mid-solve (a round barrier).
    void seal_round();

    /// Installs the export and import hooks on a member's SAT core: learnt
    /// clauses flow into the pool, and the solver pulls foreign clauses at
    /// every restart boundary and solve() start. The pool must outlive the
    /// solver's use of the hooks.
    void attach(sat::solver& s, unsigned member);

    /// Snapshot of the pool-side counters (thread-safe).
    [[nodiscard]] exchange_stats stats() const;
    /// Clauses currently visible to importers (sealed, in deterministic mode).
    [[nodiscard]] std::size_t visible() const;

private:
    struct pooled_clause {
        sat::clause_lits lits;
        unsigned producer;
    };

    [[nodiscard]] bool passes_ban_filter(const sat::clause_lits& lits) const SD_REQUIRES(mutex_);

    sharing_config cfg_;  // immutable after construction: readable lock-free
    mutable sd::mutex mutex_;
    // What importers may fetch.
    std::vector<pooled_clause> visible_ SD_GUARDED_BY(mutex_);
    // Per-member publish buffers, deterministic mode only.
    std::vector<std::vector<pooled_clause>> outbox_ SD_GUARDED_BY(mutex_);
    // Per-member read position into visible_.
    std::vector<std::size_t> cursors_ SD_GUARDED_BY(mutex_);
    // var -> core-clean ban flag.
    std::vector<char> banned_ SD_GUARDED_BY(mutex_);
    exchange_stats stats_ SD_GUARDED_BY(mutex_);
    // Size/LBD rejections are counted outside the mutex (see publish).
    std::atomic<std::uint64_t> filtered_unlocked_{0};
};

}  // namespace sciduction::substrate
