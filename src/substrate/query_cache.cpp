#include "substrate/query_cache.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace sciduction::substrate {

namespace {

inline std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h;
}

/// Kinds whose operand order is semantically irrelevant: canonicalization
/// sorts their children, so commuted constructions coincide.
bool commutative(smt::kind k) {
    switch (k) {
        case smt::kind::and_op:
        case smt::kind::or_op:
        case smt::kind::xor_op:
        case smt::kind::iff_op:
        case smt::kind::eq_op:
        case smt::kind::bvand:
        case smt::kind::bvor:
        case smt::kind::bvxor:
        case smt::kind::bvadd:
        case smt::kind::bvmul: return true;
        default: return false;
    }
}

std::uint64_t node_hash(const structural_node& n) {
    std::uint64_t h = mix(static_cast<std::uint64_t>(n.k), n.width);
    h = mix(h, n.payload);
    for (std::uint32_t kid : n.kids) h = mix(h, kid);
    return h;
}

struct structural_node_hash {
    std::size_t operator()(const structural_node& n) const {
        return static_cast<std::size_t>(node_hash(n));
    }
};

std::uint64_t form_hash(const structural_form& f) {
    std::uint64_t h = 0x5c1d0c71a2e4b69dULL;
    h = mix(h, f.nodes.size());
    for (const structural_node& n : f.nodes) h = mix(h, node_hash(n));
    h = mix(h, 0xa55e7a55e7a55e77ULL);  // separator: nodes vs roots
    for (std::uint32_t r : f.assertions) h = mix(h, r);
    h = mix(h, 0xa55e7a55e7a55e77ULL);  // separator: assertions vs assumptions
    for (std::uint32_t r : f.assumptions) h = mix(h, r);
    h = mix(h, f.num_vars);
    return h;
}

std::vector<std::uint32_t> sorted_unique_ids(const std::vector<smt::term>& ts) {
    std::vector<std::uint32_t> ids;
    ids.reserve(ts.size());
    for (smt::term t : ts) ids.push_back(t.id);
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    return ids;
}

// ---- persistence byte plumbing ----------------------------------------------
// Host-endian fixed-width fields; the magic+version header rejects a file
// written by an incompatible build, and every record carries an FNV-1a
// checksum so flipped bytes degrade to a skipped record, never to a wrong
// cached answer.

constexpr char file_magic[4] = {'S', 'D', 'Q', 'C'};
constexpr std::uint32_t file_version = 1;
constexpr std::uint8_t record_term = 0;
constexpr std::uint8_t record_cnf = 1;

template <typename T>
void put(std::string& b, T v) {
    char raw[sizeof(T)];
    std::memcpy(raw, &v, sizeof(T));
    b.append(raw, sizeof(T));
}

template <typename T>
bool get(const std::string& b, std::size_t& off, T& out) {
    if (off + sizeof(T) > b.size()) return false;
    std::memcpy(&out, b.data() + off, sizeof(T));
    off += sizeof(T);
    return true;
}

std::uint64_t fnv64(const std::string& s) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/// A parse helper for bounded vector lengths: a corrupt count must not
/// trigger a huge allocation, so lengths are sanity-checked against the
/// bytes that could possibly back them.
bool plausible_count(const std::string& b, std::size_t off, std::uint32_t count,
                     std::size_t min_elem_bytes) {
    return off + static_cast<std::size_t>(count) * min_elem_bytes <= b.size();
}

/// The one LRU eviction rule, shared by both entry maps and by both the
/// insert and load paths: past the bound, drop the least-recently-used
/// entry and count it.
template <typename Map, typename List>
void evict_over_capacity(Map& map, List& lru, std::size_t capacity, std::uint64_t& evictions) {
    if (capacity != 0 && map.size() > capacity) {
        map.erase(lru.back());
        lru.pop_back();
        ++evictions;
    }
}

}  // namespace

// ---- cnf_fingerprint --------------------------------------------------------

cnf_fingerprint cnf_fingerprint::of(const sat::solver& s) {
    const sat::clause_digest& d = s.digest();
    cnf_fingerprint fp;
    fp.digest_lo = d.lo;
    fp.digest_hi = d.hi;
    fp.clauses = d.clauses;
    fp.vars = static_cast<std::uint32_t>(s.num_vars());
    return fp;
}

// ---- construction / destruction ---------------------------------------------

query_cache::query_cache(std::string path, std::size_t capacity)
    : capacity_(capacity), path_(std::move(path)) {
    if (!path_.empty()) {
        sd::lock_guard lock(mutex_);
        load_locked();
    }
}

query_cache::~query_cache() {
    if (path_.empty()) return;
    sd::lock_guard lock(mutex_);
    save_locked();
}

// ---- canonicalization -------------------------------------------------------

std::size_t query_key_hash::operator()(const query_key& k) const {
    std::uint64_t h = 0x243f6a8885a308d3ULL;
    for (std::uint32_t id : k.assertion_ids) h = mix(h, id);
    h = mix(h, 0xa55e7a55e7a55e77ULL);
    for (std::uint32_t id : k.assumption_ids) h = mix(h, id);
    return static_cast<std::size_t>(h);
}

query_cache::manager_state& query_cache::state_for(smt::term_manager& tm) {
    // Bound the per-manager scratch: workloads churning through transient
    // managers must not grow the map without limit. Keyed by the
    // process-unique manager uid, so a dead manager's state can never be
    // mistaken for a live one's. Eviction is least-recently-used, one
    // entry at a time — a long-lived manager sharing the cache with
    // transient churn keeps its memos.
    if (managers_.size() > 32 && managers_.count(tm.uid()) == 0) {
        auto lru = managers_.begin();
        for (auto it = managers_.begin(); it != managers_.end(); ++it)
            if (it->second.last_used < lru->second.last_used) lru = it;
        managers_.erase(lru);
    }
    manager_state& ms = managers_[tm.uid()];
    ms.last_used = ++manager_clock_;
    return ms;
}

std::uint64_t query_cache::shape_hash(manager_state& ms, smt::term_manager& tm, smt::term t) {
    // Iterative post-order: children first, memoized per node. Variables
    // hash by sort only (never by name), so renamed variables share a
    // shape; commutative operand hashes are combined order-insensitively.
    std::vector<smt::term> stack{t};
    while (!stack.empty()) {
        smt::term x = stack.back();
        if (ms.shape.count(x.id) != 0) {
            stack.pop_back();
            continue;
        }
        const auto& kids = tm.children_of(x);
        bool ready = true;
        for (smt::term kid : kids) {
            if (ms.shape.count(kid.id) == 0) {
                stack.push_back(kid);
                ready = false;
            }
        }
        if (!ready) continue;
        stack.pop_back();

        const smt::kind k = tm.kind_of(x);
        std::uint64_t h = mix(static_cast<std::uint64_t>(k), tm.width_of(x));
        switch (k) {
            case smt::kind::var_bool:
            case smt::kind::var_bv: h = mix(h, 0x7a77ULL); break;
            case smt::kind::const_bool: h = mix(h, tm.const_bool_value(x) ? 1 : 0); break;
            case smt::kind::const_bv: h = mix(h, tm.const_bv_value(x)); break;
            default: h = mix(h, tm.payload_of(x)); break;
        }
        if (commutative(k)) {
            std::vector<std::uint64_t> child_hashes;
            child_hashes.reserve(kids.size());
            for (smt::term kid : kids) child_hashes.push_back(ms.shape.at(kid.id));
            std::sort(child_hashes.begin(), child_hashes.end());
            for (std::uint64_t ch : child_hashes) h = mix(h, ch);
        } else {
            for (smt::term kid : kids) h = mix(h, ms.shape.at(kid.id));
        }
        ms.shape.emplace(x.id, h);
    }
    return ms.shape.at(t.id);
}

std::shared_ptr<const query_cache::prepared_query> query_cache::prepare(
    smt::term_manager& tm, const std::vector<smt::term>& assertions,
    const std::vector<smt::term>& assumptions) {
    sd::lock_guard lock(mutex_);
    manager_state& ms = state_for(tm);
    query_key key{sorted_unique_ids(assertions), sorted_unique_ids(assumptions)};
    if (auto it = ms.forms.find(key); it != ms.forms.end()) return it->second;

    prepared_query out;
    out.key = key;

    // Canonical root order: shape hash first, construction (id) order on
    // ties. The tie-break is per-manager and therefore best-effort for
    // cross-manager matching — it can cost a hit between pathologically
    // symmetric queries, never produce a wrong one (form equality is a
    // full alpha-equivalence check either way).
    auto canonical_roots = [&](const std::vector<std::uint32_t>& ids) {
        std::vector<smt::term> roots;
        roots.reserve(ids.size());
        for (std::uint32_t id : ids) roots.push_back(smt::term{id});
        for (smt::term r : roots) shape_hash(ms, tm, r);
        std::stable_sort(roots.begin(), roots.end(), [&](smt::term a, smt::term b) {
            return ms.shape.at(a.id) < ms.shape.at(b.id);
        });
        return roots;
    };
    std::vector<smt::term> assertion_roots = canonical_roots(out.key.assertion_ids);
    std::vector<smt::term> assumption_roots = canonical_roots(out.key.assumption_ids);

    // Emission: canonical-order DFS over the DAG. Each term emits one
    // node; variables take the next de Bruijn index at first emission;
    // commutative kid lists are sorted by (already canonical) node index,
    // and content-identical nodes (e.g. `and(x,y)` next to `and(y,x)`)
    // intern to one index.
    std::unordered_map<std::uint32_t, std::uint32_t> emitted;              // term id -> node
    std::unordered_map<structural_node, std::uint32_t, structural_node_hash> interned;
    structural_form& form = out.form;
    auto emit = [&](smt::term root) {
        std::vector<smt::term> stack{root};
        while (!stack.empty()) {
            smt::term x = stack.back();
            if (emitted.count(x.id) != 0) {
                stack.pop_back();
                continue;
            }
            const auto& kids = tm.children_of(x);
            const smt::kind k = tm.kind_of(x);
            std::vector<smt::term> order(kids.begin(), kids.end());
            if (commutative(k))
                std::stable_sort(order.begin(), order.end(), [&](smt::term a, smt::term b) {
                    return ms.shape.at(a.id) < ms.shape.at(b.id);
                });
            bool ready = true;
            for (auto it = order.rbegin(); it != order.rend(); ++it)
                if (emitted.count(it->id) == 0) {
                    stack.push_back(*it);
                    ready = false;
                }
            if (!ready) continue;
            stack.pop_back();

            structural_node n;
            n.k = k;
            n.width = tm.width_of(x);
            switch (k) {
                case smt::kind::var_bool:
                case smt::kind::var_bv:
                    n.payload = out.vars.size();
                    out.vars.push_back(x);
                    break;
                case smt::kind::const_bool: n.payload = tm.const_bool_value(x) ? 1 : 0; break;
                case smt::kind::const_bv: n.payload = tm.const_bv_value(x); break;
                default: n.payload = tm.payload_of(x); break;
            }
            n.kids.reserve(order.size());
            for (smt::term kid : order) n.kids.push_back(emitted.at(kid.id));
            if (commutative(k)) std::sort(n.kids.begin(), n.kids.end());
            auto it = interned.find(n);
            if (it != interned.end()) {
                emitted.emplace(x.id, it->second);
            } else {
                std::uint32_t idx = static_cast<std::uint32_t>(form.nodes.size());
                interned.emplace(n, idx);
                emitted.emplace(x.id, idx);
                form.nodes.push_back(std::move(n));
            }
        }
    };
    for (smt::term r : assertion_roots) emit(r);
    for (smt::term r : assumption_roots) emit(r);

    auto root_indices = [&](const std::vector<smt::term>& roots) {
        std::vector<std::uint32_t> idx;
        idx.reserve(roots.size());
        for (smt::term r : roots) idx.push_back(emitted.at(r.id));
        std::sort(idx.begin(), idx.end());
        idx.erase(std::unique(idx.begin(), idx.end()), idx.end());
        return idx;
    };
    form.assertions = root_indices(assertion_roots);
    form.assumptions = root_indices(assumption_roots);
    form.num_vars = static_cast<std::uint32_t>(out.vars.size());
    form.hash = form_hash(form);

    auto prepared = std::make_shared<const prepared_query>(std::move(out));
    if (ms.forms.size() >= 4096) ms.forms.clear();  // bound the memo
    ms.forms.emplace(std::move(key), prepared);
    return prepared;
}

// ---- lookup / insert --------------------------------------------------------

void query_cache::touch(entry& e) {
    lru_.splice(lru_.begin(), lru_, e.lru_pos);
    e.lru_pos = lru_.begin();
}

void query_cache::touch_cnf(cnf_entry& e) {
    cnf_lru_.splice(cnf_lru_.begin(), cnf_lru_, e.lru_pos);
    e.lru_pos = cnf_lru_.begin();
}

std::optional<backend_result> query_cache::lookup_prepared(smt::term_manager& tm,
                                                           const prepared_query& prep) {
    sd::lock_guard lock(mutex_);
    auto it = entries_.find(prep.form);
    if (it == entries_.end()) {
        ++stats_.misses;
        return std::nullopt;
    }
    // Translate the entry into this manager's coordinates. Unsat transfers
    // as-is (satisfiability is invariant under the variable bijection); a
    // sat model is remapped and then verified by evaluating every assertion
    // and assumption — a failure reads as a miss and the caller re-solves.
    entry& e = it->second;
    backend_result r;
    r.ans = e.ans;
    r.conflicts = e.conflicts;
    if (e.ans == answer::sat) {
        smt::env env;
        bool ok = true;
        for (const auto& [idx, value] : e.model) {
            if (idx >= prep.vars.size()) {
                ok = false;
                break;
            }
            env.emplace(prep.vars[idx].id, value);
        }
        if (ok) {
            model_evaluator ev(tm, env);
            for (std::uint32_t id : prep.key.assertion_ids)
                if (ev.value(smt::term{id}) == 0) {
                    ok = false;
                    break;
                }
            if (ok)
                for (std::uint32_t id : prep.key.assumption_ids)
                    if (ev.value(smt::term{id}) == 0) {
                        ok = false;
                        break;
                    }
        }
        if (!ok) {
            ++stats_.remap_rejects;
            ++stats_.misses;
            return std::nullopt;
        }
        r.model = std::move(env);
        ++stats_.remapped_models;
    }
    ++stats_.hits;
    touch(e);
    return r;
}

void query_cache::insert_prepared(const prepared_query& prep, const backend_result& result) {
    if (result.ans == answer::unknown) return;
    std::vector<std::pair<std::uint32_t, std::uint64_t>> model;
    if (result.ans == answer::sat) {
        model.reserve(result.model.size());
        for (std::uint32_t idx = 0; idx < prep.vars.size(); ++idx) {
            auto it = result.model.find(prep.vars[idx].id);
            if (it != result.model.end()) model.emplace_back(idx, it->second);
        }
    }

    sd::lock_guard lock(mutex_);
    auto it = entries_.find(prep.form);
    if (it != entries_.end()) {
        // Refresh in place: the caller just solved this query, so its result
        // is authoritative — in particular, an entry whose model failed
        // verification on lookup must be overwritten here, not kept (and
        // re-persisted) to fail verification on every future lookup.
        entry& e = it->second;
        e.ans = result.ans;
        e.conflicts = result.conflicts;
        e.model = std::move(model);
        touch(e);
        return;
    }
    entry e;
    e.ans = result.ans;
    e.conflicts = result.conflicts;
    e.model = std::move(model);
    lru_.push_front(prep.form);
    e.lru_pos = lru_.begin();
    entries_.emplace(prep.form, std::move(e));
    ++stats_.insertions;
    evict_over_capacity(entries_, lru_, capacity_, stats_.evictions);
}

// ---- CNF level --------------------------------------------------------------

std::optional<backend_result> query_cache::lookup_cnf(const cnf_fingerprint& fp) {
    sd::lock_guard lock(mutex_);
    auto it = cnf_entries_.find(fp);
    if (it == cnf_entries_.end()) {
        ++stats_.misses;
        return std::nullopt;
    }
    ++stats_.hits;
    touch_cnf(it->second);
    backend_result r;
    r.ans = it->second.ans;
    r.conflicts = it->second.conflicts;
    r.sat_model = it->second.sat_model;
    return r;
}

void query_cache::insert_cnf(const cnf_fingerprint& fp, const backend_result& result) {
    if (result.ans == answer::unknown) return;
    sd::lock_guard lock(mutex_);
    auto it = cnf_entries_.find(fp);
    if (it != cnf_entries_.end()) {
        // Refresh in place: the caller just solved this instance, so its
        // result is authoritative — in particular, a stale entry whose
        // cached model failed re-validation must be overwritten here, not
        // kept (and re-persisted) to fail validation on every future run.
        it->second.ans = result.ans;
        it->second.conflicts = result.conflicts;
        it->second.sat_model = result.ans == answer::sat ? result.sat_model
                                                         : std::vector<sat::lbool>{};
        touch_cnf(it->second);
        return;
    }
    cnf_entry e;
    e.ans = result.ans;
    e.conflicts = result.conflicts;
    if (result.ans == answer::sat) e.sat_model = result.sat_model;
    cnf_lru_.push_front(fp);
    e.lru_pos = cnf_lru_.begin();
    cnf_entries_.emplace(fp, std::move(e));
    ++stats_.insertions;
    evict_over_capacity(cnf_entries_, cnf_lru_, capacity_, stats_.evictions);
}

// ---- bookkeeping ------------------------------------------------------------

void query_cache::clear() {
    sd::lock_guard lock(mutex_);
    entries_.clear();
    lru_.clear();
    cnf_entries_.clear();
    cnf_lru_.clear();
    managers_.clear();
    stats_ = {};
}

query_cache::cache_stats query_cache::stats() const {
    sd::lock_guard lock(mutex_);
    return stats_;
}

std::size_t query_cache::size() const {
    sd::lock_guard lock(mutex_);
    return entries_.size();
}

std::size_t query_cache::cnf_size() const {
    sd::lock_guard lock(mutex_);
    return cnf_entries_.size();
}

// ---- persistence ------------------------------------------------------------

bool query_cache::save() {
    sd::lock_guard lock(mutex_);
    return save_locked();
}

bool query_cache::save_locked() const {
    if (path_.empty()) return false;
    std::string body;
    body.append(file_magic, sizeof(file_magic));
    put<std::uint32_t>(body, file_version);
    put<std::uint64_t>(body, entries_.size() + cnf_entries_.size());

    auto append_record = [&body](std::uint8_t tag, const std::string& payload) {
        put<std::uint8_t>(body, tag);
        put<std::uint32_t>(body, static_cast<std::uint32_t>(payload.size()));
        put<std::uint64_t>(body, fnv64(payload));
        body.append(payload);
    };

    // Least-recently-used first, so sequential load restores the recency
    // order (the last record loaded becomes the most recent entry).
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
        const structural_form& form = *it;
        const entry& e = entries_.at(form);
        std::string p;
        put<std::uint64_t>(p, form.hash);
        put<std::uint32_t>(p, form.num_vars);
        put<std::uint32_t>(p, static_cast<std::uint32_t>(form.nodes.size()));
        for (const structural_node& n : form.nodes) {
            put<std::uint8_t>(p, static_cast<std::uint8_t>(n.k));
            put<std::uint32_t>(p, n.width);
            put<std::uint64_t>(p, n.payload);
            put<std::uint32_t>(p, static_cast<std::uint32_t>(n.kids.size()));
            for (std::uint32_t kid : n.kids) put<std::uint32_t>(p, kid);
        }
        auto put_roots = [&p](const std::vector<std::uint32_t>& roots) {
            put<std::uint32_t>(p, static_cast<std::uint32_t>(roots.size()));
            for (std::uint32_t r : roots) put<std::uint32_t>(p, r);
        };
        put_roots(form.assertions);
        put_roots(form.assumptions);
        put<std::uint8_t>(p, e.ans == answer::sat ? 0 : 1);
        put<std::uint64_t>(p, e.conflicts);
        put<std::uint32_t>(p, static_cast<std::uint32_t>(e.model.size()));
        for (const auto& [idx, value] : e.model) {
            put<std::uint32_t>(p, idx);
            put<std::uint64_t>(p, value);
        }
        append_record(record_term, p);
    }

    for (auto it = cnf_lru_.rbegin(); it != cnf_lru_.rend(); ++it) {
        const cnf_fingerprint& fp = *it;
        const cnf_entry& e = cnf_entries_.at(fp);
        std::string p;
        put<std::uint64_t>(p, fp.digest_lo);
        put<std::uint64_t>(p, fp.digest_hi);
        put<std::uint64_t>(p, fp.clauses);
        put<std::uint32_t>(p, fp.vars);
        put<std::uint8_t>(p, e.ans == answer::sat ? 0 : 1);
        put<std::uint64_t>(p, e.conflicts);
        put<std::uint32_t>(p, static_cast<std::uint32_t>(e.sat_model.size()));
        for (sat::lbool v : e.sat_model) put<std::uint8_t>(p, static_cast<std::uint8_t>(v));
        append_record(record_cnf, p);
    }

    const std::string tmp = path_ + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) return false;
        out.write(body.data(), static_cast<std::streamsize>(body.size()));
        if (!out) return false;
    }
    return std::rename(tmp.c_str(), path_.c_str()) == 0;
}

bool query_cache::load_locked() {
    if (path_.empty()) return false;
    std::string body;
    {
        std::ifstream in(path_, std::ios::binary);
        if (!in) return false;
        body.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }
    std::size_t off = 0;
    char magic[4];
    if (body.size() < sizeof(magic)) return false;
    std::memcpy(magic, body.data(), sizeof(magic));
    off = sizeof(magic);
    if (std::memcmp(magic, file_magic, sizeof(magic)) != 0) return false;
    std::uint32_t version = 0;
    std::uint64_t count = 0;
    if (!get(body, off, version) || version != file_version) return false;
    if (!get(body, off, count)) return false;

    auto parse_term = [&](const std::string& p) -> bool {
        std::size_t o = 0;
        structural_form form;
        std::uint32_t node_count = 0;
        if (!get(p, o, form.hash) || !get(p, o, form.num_vars)) return false;
        if (!get(p, o, node_count) || !plausible_count(p, o, node_count, 17)) return false;
        form.nodes.reserve(node_count);
        for (std::uint32_t i = 0; i < node_count; ++i) {
            structural_node n;
            std::uint8_t k = 0;
            std::uint32_t kid_count = 0;
            if (!get(p, o, k) || !get(p, o, n.width) || !get(p, o, n.payload)) return false;
            if (k > static_cast<std::uint8_t>(smt::kind::sle)) return false;
            n.k = static_cast<smt::kind>(k);
            if (!get(p, o, kid_count) || !plausible_count(p, o, kid_count, 4)) return false;
            n.kids.reserve(kid_count);
            for (std::uint32_t j = 0; j < kid_count; ++j) {
                std::uint32_t kid = 0;
                if (!get(p, o, kid)) return false;
                n.kids.push_back(kid);
            }
            form.nodes.push_back(std::move(n));
        }
        auto get_roots = [&](std::vector<std::uint32_t>& roots) {
            std::uint32_t root_count = 0;
            if (!get(p, o, root_count) || !plausible_count(p, o, root_count, 4)) return false;
            roots.reserve(root_count);
            for (std::uint32_t i = 0; i < root_count; ++i) {
                std::uint32_t r = 0;
                if (!get(p, o, r)) return false;
                roots.push_back(r);
            }
            return true;
        };
        if (!get_roots(form.assertions) || !get_roots(form.assumptions)) return false;
        std::uint8_t ans = 0;
        entry e;
        std::uint32_t model_count = 0;
        if (!get(p, o, ans) || ans > 1 || !get(p, o, e.conflicts)) return false;
        e.ans = ans == 0 ? answer::sat : answer::unsat;
        if (!get(p, o, model_count) || !plausible_count(p, o, model_count, 12)) return false;
        e.model.reserve(model_count);
        for (std::uint32_t i = 0; i < model_count; ++i) {
            std::uint32_t idx = 0;
            std::uint64_t value = 0;
            if (!get(p, o, idx) || !get(p, o, value)) return false;
            e.model.emplace_back(idx, value);
        }
        if (o != p.size()) return false;
        if (entries_.count(form) != 0) return true;  // existing entries win
        lru_.push_front(form);
        e.lru_pos = lru_.begin();
        entries_.emplace(std::move(form), std::move(e));
        ++stats_.persisted_loads;
        evict_over_capacity(entries_, lru_, capacity_, stats_.evictions);
        return true;
    };

    auto parse_cnf = [&](const std::string& p) -> bool {
        std::size_t o = 0;
        cnf_fingerprint fp;
        if (!get(p, o, fp.digest_lo) || !get(p, o, fp.digest_hi) || !get(p, o, fp.clauses) ||
            !get(p, o, fp.vars))
            return false;
        std::uint8_t ans = 0;
        cnf_entry e;
        std::uint32_t model_count = 0;
        if (!get(p, o, ans) || ans > 1 || !get(p, o, e.conflicts)) return false;
        e.ans = ans == 0 ? answer::sat : answer::unsat;
        if (!get(p, o, model_count) || !plausible_count(p, o, model_count, 1)) return false;
        e.sat_model.reserve(model_count);
        for (std::uint32_t i = 0; i < model_count; ++i) {
            std::uint8_t v = 0;
            if (!get(p, o, v) || v > 2) return false;
            e.sat_model.push_back(static_cast<sat::lbool>(v));
        }
        if (o != p.size()) return false;
        if (cnf_entries_.count(fp) != 0) return true;
        cnf_lru_.push_front(fp);
        e.lru_pos = cnf_lru_.begin();
        cnf_entries_.emplace(fp, std::move(e));
        ++stats_.persisted_loads;
        evict_over_capacity(cnf_entries_, cnf_lru_, capacity_, stats_.evictions);
        return true;
    };

    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint8_t tag = 0;
        std::uint32_t length = 0;
        std::uint64_t checksum = 0;
        if (!get(body, off, tag) || !get(body, off, length) || !get(body, off, checksum)) break;
        if (off + length > body.size()) break;  // truncated: keep what loaded
        std::string payload = body.substr(off, length);
        off += length;
        if (fnv64(payload) != checksum) {
            ++stats_.persist_rejects;
            continue;
        }
        bool ok = false;
        if (tag == record_term) ok = parse_term(payload);
        else if (tag == record_cnf) ok = parse_cnf(payload);
        if (!ok) ++stats_.persist_rejects;
    }
    return true;
}

}  // namespace sciduction::substrate
