/// \file
/// Structural, cross-manager, optionally persistent memoization of
/// deductive check() results.
///
/// The sciduction loops re-issue structurally identical queries: GameTime
/// re-checks the predicted longest path it already proved feasible during
/// basis extraction; houdini-style refinement re-checks shrinking candidate
/// sets; OGIS re-derives the same well-formedness core every iteration —
/// and CI re-runs whole workloads whose query streams are identical from
/// run to run. The cache keys a query by a *canonical structural form* of
/// its term DAG:
///
///   * variables are numbered de-Bruijn-style by first occurrence in a
///     canonical traversal (names never enter the key, so renamed
///     variables match);
///   * commutative operands are sorted, so `x + y` and `y + x` coincide;
///   * the key is the full flattened DAG, not just a hash — two queries
///     match only when their canonical forms are *identical*, which makes
///     every hit a genuine alpha-equivalence (a bijection between the two
///     queries' variables under which the DAGs are the same). Hash
///     collisions can therefore never produce a wrong answer, and the
///     commutative sort being best-effort (ties between structurally
///     identical subterms keep construction order) can only cost hits,
///     never correctness.
///
/// Because the form is manager-independent, two `term_manager` instances
/// that build the same assertion set hit the same entry. Satisfying models
/// are stored in *structural* coordinates (de Bruijn variable index →
/// value) and every hit — from the same manager, another manager, or disk
/// — takes one path: the model is remapped into the requesting manager's
/// terms and verified by evaluating every assertion and assumption under
/// it before it is returned, and a failed verification is treated as a
/// miss (the caller falls back to a fresh solve, whose insert refreshes
/// the entry in place). Hits carry the answer, the conflicts and the
/// term-level model; the CNF-level `sat_model`/`core` stay empty.
///
/// With a non-empty `path`, entries additionally persist across processes:
/// the cache loads the file on construction and saves on destruction (and
/// on explicit save()), so CI and repeated CLI runs start warm. The file
/// format is versioned and per-record checksummed; a corrupt, truncated or
/// version-mismatched file degrades to a cold start, never to a wrong
/// answer. See docs/CACHING.md for the key semantics, the remapping
/// contract, the file format, and the warm-CI recipe.
///
/// Because the key is the full assertion set, growing a query never
/// aliases a cached entry: "invalidation" is structural, not temporal.
/// All operations are thread-safe so batch workers (and multiple engines
/// sharing one cache) can share one instance.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "substrate/annotations.hpp"
#include "substrate/backend.hpp"

namespace sciduction::substrate {

/// The per-manager identity of a query: its sorted, deduplicated term-id
/// sets. Ids are manager-local, which is what both users want: the cache
/// memoizes prepared queries per (manager, query_key), and the engine's
/// async layer coalesces in-flight duplicates on it (two renamed-variable
/// queries are distinct solves but share cache entries).
struct query_key {
    std::vector<std::uint32_t> assertion_ids;    ///< sorted, deduplicated term ids
    std::vector<std::uint32_t> assumption_ids;   ///< sorted, deduplicated term ids

    /// Equality of both id sets.
    bool operator==(const query_key&) const = default;
};

/// Hash functor over query_key for unordered containers.
struct query_key_hash {
    /// Mixes both id sets.
    std::size_t operator()(const query_key& k) const;
};

/// One node of a canonical query form: a term with its variables replaced
/// by de Bruijn indices (carried in `payload`) and its commutative operand
/// lists sorted. Manager-independent by construction.
struct structural_node {
    smt::kind k = smt::kind::const_bool;  ///< the term's kind
    std::uint32_t width = 0;              ///< bit-vector width (0 = bool)
    std::uint64_t payload = 0;  ///< const value / extract bounds / ext width; de Bruijn index for vars
    std::vector<std::uint32_t> kids;  ///< child node indices (always lower than this node's)

    /// Field-wise equality.
    bool operator==(const structural_node&) const = default;
};

/// The canonical, manager-independent form of one query: a flattened,
/// deduplicated term DAG plus the (sorted) root-node sets of the
/// assertions and assumptions. Two queries with equal forms are
/// alpha-equivalent — identical up to the variable bijection induced by
/// the de Bruijn numbering — so form equality is a sound cache key.
struct structural_form {
    std::vector<structural_node> nodes;      ///< emission (post-) order, deduplicated
    std::vector<std::uint32_t> assertions;   ///< sorted unique root node indices
    std::vector<std::uint32_t> assumptions;  ///< sorted unique root node indices
    std::uint32_t num_vars = 0;              ///< de Bruijn variables numbered [0, num_vars)
    std::uint64_t hash = 0;                  ///< hash over all of the above

    /// Deep equality, cheap-hash first.
    bool operator==(const structural_form& o) const {
        return hash == o.hash && num_vars == o.num_vars && assertions == o.assertions &&
               assumptions == o.assumptions && nodes == o.nodes;
    }
};

/// Hash functor over structural_form for unordered containers.
struct structural_form_hash {
    /// Uses the precomputed form hash.
    std::size_t operator()(const structural_form& f) const {
        return static_cast<std::size_t>(f.hash);
    }
};

/// Identity of one CNF-level problem instance, for workloads that build
/// clauses directly (invgen through `solve_cnf`). Deterministic builders
/// produce the identical clause stream with identical variable numbering
/// on every run (the substrate's replica contract), so the CNF itself is
/// already canonical: the fingerprint is a 128-bit order-sensitive digest
/// of the `add_clause` stream plus the variable/clause counts, and a
/// cached model is verified against the live instance by propagation
/// before it is trusted (see query_cache::lookup_cnf).
struct cnf_fingerprint {
    std::uint64_t digest_lo = 0;  ///< first digest lane (golden-ratio mix)
    std::uint64_t digest_hi = 0;  ///< second digest lane (FNV-1a)
    std::uint64_t clauses = 0;    ///< top-level add_clause calls digested
    std::uint32_t vars = 0;       ///< variables allocated in the instance

    /// Field-wise equality.
    bool operator==(const cnf_fingerprint&) const = default;

    /// Reads the fingerprint off a fully built solver (digest + counts).
    static cnf_fingerprint of(const sat::solver& s);
};

/// Hash functor over cnf_fingerprint for unordered containers.
struct cnf_fingerprint_hash {
    /// Combines both digest lanes.
    std::size_t operator()(const cnf_fingerprint& f) const {
        return static_cast<std::size_t>(f.digest_lo ^ (f.digest_hi * 0x9e3779b97f4a7c15ULL));
    }
};

/// Thread-safe memoization of deductive check() results under the
/// canonical structural key (term level) and the CNF fingerprint (clause
/// level), optionally capacity-bounded with LRU eviction and optionally
/// persisted to disk. See the file comment and docs/CACHING.md.
class query_cache {
public:
    /// Cache effectiveness counters, cumulative over the cache lifetime.
    /// `clear()` resets them along with the entries.
    struct cache_stats {
        std::uint64_t hits = 0;        ///< lookups answered from the cache
        std::uint64_t misses = 0;      ///< lookups that found nothing usable
        std::uint64_t insertions = 0;  ///< definite results memoized
        /// Entries dropped by the LRU capacity bound. The term-level and
        /// CNF-level maps are bounded (and evict) independently, each to
        /// `capacity()` entries; an eviction drops the result *and* its
        /// on-disk persistence (save() writes only current residents).
        std::uint64_t evictions = 0;
        /// Satisfying models translated from structural coordinates into
        /// the requesting manager's terms and verified (subset of the
        /// term-level hits; unsat hits need no model).
        std::uint64_t remapped_models = 0;
        /// Remapped models that failed evaluation-verification and were
        /// treated as misses (the caller re-solves). Nonzero values point
        /// at a corrupt persistence file or a hash-colliding entry.
        std::uint64_t remap_rejects = 0;
        /// Entries loaded from the persistence file at construction.
        std::uint64_t persisted_loads = 0;
        /// Records in the persistence file skipped as corrupt (checksum or
        /// framing failure). The rest of the file still loads.
        std::uint64_t persist_rejects = 0;
    };

    /// A query canonicalized once, reusable for lookup_prepared and
    /// insert_prepared without re-walking the term DAG. Valid only for the
    /// manager it was prepared against.
    struct prepared_query {
        query_key key;                ///< per-manager identity (memo and coalescing key)
        structural_form form;         ///< canonical cross-manager identity
        std::vector<smt::term> vars;  ///< de Bruijn index -> this manager's variable term
    };

    /// A non-empty `path` enables persistence: the file is loaded now and
    /// saved on destruction. `capacity` bounds the number of retained
    /// results per level; 0 = unbounded. Past the bound the
    /// least-recently-used entry is evicted, so long CEGIS runs stop
    /// growing while hot re-checks stay resident. The cache binds no
    /// manager: every term-level call names the one its query lives in.
    explicit query_cache(std::string path, std::size_t capacity = 0);

    /// Saves to `path()` (if set) and drops the cache. Save failures are
    /// swallowed — a cache is an accelerator, never a correctness gate.
    ~query_cache();

    query_cache(const query_cache&) = delete;             ///< non-copyable (share via pointer)
    query_cache& operator=(const query_cache&) = delete;  ///< non-copyable

    /// The configured capacity bound (0 = unbounded).
    [[nodiscard]] std::size_t capacity() const { return capacity_; }
    /// The persistence file path (empty = persistence disabled).
    [[nodiscard]] const std::string& path() const { return path_; }

    /// Canonicalizes one query against `tm`: computes the coalescing key,
    /// the structural form and the variable table in one DAG walk. The
    /// engine prepares once per submit and passes the result to
    /// lookup_prepared/insert_prepared. Prepared queries are memoized per
    /// (manager uid, query_key) — sound because terms are immutable and
    /// manager identity is exact — so a loop re-issuing the same query
    /// pays the DAG walk once.
    std::shared_ptr<const prepared_query> prepare(smt::term_manager& tm,
                                                  const std::vector<smt::term>& assertions,
                                                  const std::vector<smt::term>& assumptions = {});

    /// Returns the memoized result for a prepared query (`prep` must have
    /// been prepared against `tm`), or nullopt. A sat hit arrives with its
    /// model remapped into `tm`'s terms and verified by evaluation; a
    /// verification failure reads as a miss. Counted in stats().
    std::optional<backend_result> lookup_prepared(smt::term_manager& tm,
                                                  const prepared_query& prep);

    /// Memoizes a definite result for a prepared query, refreshing a
    /// resident entry in place. answer::unknown (interrupted) results are
    /// ignored — they say nothing about the query.
    void insert_prepared(const prepared_query& prep, const backend_result& result);

    /// Returns the memoized CNF-level result for `fp`, or nullopt. The
    /// returned result carries the answer, conflicts, and (for sat) the
    /// stored `sat_model`; callers must verify a sat model against their
    /// live instance by propagation before trusting it (solve_cnf does).
    std::optional<backend_result> lookup_cnf(const cnf_fingerprint& fp);
    /// Memoizes a definite CNF-level result (answer, conflicts, sat_model).
    void insert_cnf(const cnf_fingerprint& fp, const backend_result& result);

    /// Drops every entry and resets the counters. The persistence file is
    /// untouched until the next save().
    void clear();

    /// Snapshot of the counters (thread-safe).
    [[nodiscard]] cache_stats stats() const;
    /// Number of term-level results currently retained.
    [[nodiscard]] std::size_t size() const;
    /// Number of CNF-level results currently retained.
    [[nodiscard]] std::size_t cnf_size() const;

    /// Writes every resident entry to `path()` (atomically, via a temp
    /// file + rename), least-recently-used first so a later load restores
    /// the recency order. Returns false when no path is set or the write
    /// failed.
    bool save();

private:
    // A retained term-level result in structural coordinates; every hit
    // remaps and verifies the model.
    struct entry {
        answer ans = answer::unknown;
        std::uint64_t conflicts = 0;
        std::vector<std::pair<std::uint32_t, std::uint64_t>> model;  // de Bruijn idx -> value
        std::list<structural_form>::iterator lru_pos;  // position in lru_ (MRU at front)
    };

    struct cnf_entry {
        answer ans = answer::unknown;
        std::uint64_t conflicts = 0;
        std::vector<sat::lbool> sat_model;  // sat answers only
        std::list<cnf_fingerprint>::iterator lru_pos;
    };

    // Per-manager canonicalization scratch, keyed by term_manager::uid()
    // (process-unique, so a new manager reusing a dead one's address can
    // never see its predecessor's state): memoized shape hashes (the
    // name-free bottom-up hash that orders roots and commutative
    // operands) and fully prepared queries per query_key — terms are
    // immutable, so both memos stay valid for the manager's lifetime.
    struct manager_state {
        std::unordered_map<std::uint32_t, std::uint64_t> shape;  // term id -> shape hash
        std::unordered_map<query_key, std::shared_ptr<const prepared_query>, query_key_hash>
            forms;
        std::uint64_t last_used = 0;  // manager_clock_ stamp for LRU eviction
    };

    manager_state& state_for(smt::term_manager& tm) SD_REQUIRES(mutex_);
    std::uint64_t shape_hash(manager_state& ms, smt::term_manager& tm, smt::term t)
        SD_REQUIRES(mutex_);
    void touch(entry& e) SD_REQUIRES(mutex_);
    void touch_cnf(cnf_entry& e) SD_REQUIRES(mutex_);
    // Merges the file at path_ into the maps (existing entries win);
    // corrupt records are skipped and counted in persist_rejects.
    bool load_locked() SD_REQUIRES(mutex_);
    bool save_locked() const SD_REQUIRES(mutex_);

    std::size_t capacity_;
    std::string path_;
    mutable sd::mutex mutex_;
    std::unordered_map<structural_form, entry, structural_form_hash> entries_
        SD_GUARDED_BY(mutex_);
    // Most-recently-used first.
    std::list<structural_form> lru_ SD_GUARDED_BY(mutex_);
    std::unordered_map<cnf_fingerprint, cnf_entry, cnf_fingerprint_hash> cnf_entries_
        SD_GUARDED_BY(mutex_);
    // Most-recently-used first.
    std::list<cnf_fingerprint> cnf_lru_ SD_GUARDED_BY(mutex_);
    // Canonicalization scratch keyed by manager uid (see manager_state).
    std::unordered_map<std::uint64_t, manager_state> managers_ SD_GUARDED_BY(mutex_);
    // Recency ticks for managers_ eviction.
    std::uint64_t manager_clock_ SD_GUARDED_BY(mutex_) = 0;
    cache_stats stats_ SD_GUARDED_BY(mutex_);
};

}  // namespace sciduction::substrate
