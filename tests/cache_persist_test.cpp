// The structural / cross-manager / persistent query cache (ISSUE 5):
// canonical-form equality across independently built managers, model
// remapping with evaluation verification, the on-disk format's
// version/corruption tolerance, LRU interaction with persisted entries,
// the CNF-level fingerprint cache, and the cold-vs-warm smt_engine
// integration the acceptance criteria name.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <string>

#include "aig/aig.hpp"
#include "invgen/invgen.hpp"
#include "sat/pigeonhole.hpp"
#include "engine_test_util.hpp"
#include "substrate/engine.hpp"
#include "substrate/query_cache.hpp"

namespace sciduction::substrate {
namespace {

/// A per-test scratch file that is removed on scope exit.
struct scratch_file {
    std::string path;
    explicit scratch_file(const std::string& name) : path(testing::TempDir() + name) {
        std::remove(path.c_str());
    }
    ~scratch_file() { std::remove(path.c_str()); }
};

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& body) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
}

std::string to_hex(const std::string& bytes) {
    static constexpr char digits[] = "0123456789abcdef";
    std::string out;
    for (char c : bytes) {
        const auto b = static_cast<unsigned char>(c);
        out += digits[b >> 4];
        out += digits[b & 0xf];
    }
    return out;
}

// The term-level round trip through the cache's one path: prepare the
// query in `tm`, then insert or look up the prepared form.
void insert(query_cache& cache, smt::term_manager& tm, const std::vector<smt::term>& assertions,
            const backend_result& result) {
    cache.insert_prepared(*cache.prepare(tm, assertions), result);
}

std::optional<backend_result> lookup(query_cache& cache, smt::term_manager& tm,
                                     const std::vector<smt::term>& assertions) {
    return cache.lookup_prepared(tm, *cache.prepare(tm, assertions));
}

// ---- canonical structural form ----------------------------------------------

TEST(structural_form, independently_built_managers_agree) {
    smt::term_manager tm1;
    smt::term x1 = tm1.mk_bv_var("x", 8);
    smt::term y1 = tm1.mk_bv_var("y", 8);
    smt::term f1 = tm1.mk_ult(tm1.mk_bvadd(x1, y1), tm1.mk_bv_const(8, 10));

    smt::term_manager tm2;  // interleaved junk shifts every term id
    tm2.mk_bv_var("unrelated", 32);
    tm2.mk_bool_var("noise");
    smt::term x2 = tm2.mk_bv_var("x", 8);
    smt::term y2 = tm2.mk_bv_var("y", 8);
    smt::term f2 = tm2.mk_ult(tm2.mk_bvadd(x2, y2), tm2.mk_bv_const(8, 10));

    query_cache c{std::string{}};
    const structural_form form1 = c.prepare(tm1, {f1})->form;
    const structural_form form2 = c.prepare(tm2, {f2})->form;
    EXPECT_EQ(form1, form2);
    EXPECT_EQ(form1.hash, form2.hash);
    // And a genuinely different formula hashes differently.
    smt::term g2 = tm2.mk_ult(tm2.mk_bvadd(x2, y2), tm2.mk_bv_const(8, 11));
    EXPECT_NE(form2.hash, c.prepare(tm2, {g2})->form.hash);
}

TEST(structural_form, commuted_operands_coincide) {
    smt::term_manager tm1;
    smt::term f1 = tm1.mk_ult(tm1.mk_bvadd(tm1.mk_bv_var("x", 8), tm1.mk_bv_var("y", 8)),
                              tm1.mk_bv_const(8, 10));
    smt::term_manager tm2;
    smt::term f2 = tm2.mk_ult(tm2.mk_bvadd(tm2.mk_bv_var("y", 8), tm2.mk_bv_var("x", 8)),
                              tm2.mk_bv_const(8, 10));
    query_cache c{std::string{}};
    auto form = [&c](smt::term_manager& tm, smt::term f) { return c.prepare(tm, {f})->form; };
    EXPECT_EQ(form(tm1, f1), form(tm2, f2));

    // Boolean connectives commute too.
    smt::term a1 = tm1.mk_bool_var("a");
    smt::term b1 = tm1.mk_bool_var("b");
    smt::term a2 = tm2.mk_bool_var("a");
    smt::term b2 = tm2.mk_bool_var("b");
    EXPECT_EQ(form(tm1, tm1.mk_and(a1, b1)), form(tm2, tm2.mk_and(b2, a2)));
    // A standalone `x - y < 10` IS alpha-equivalent to `y - x < 10` (swap
    // the variables), so those forms rightly coincide. Pinning one
    // variable's role elsewhere breaks the symmetry, and then the
    // non-commutative operand order must keep the queries apart.
    smt::term sub1 = tm1.mk_ult(tm1.mk_bvsub(tm1.mk_bv_var("x", 8), tm1.mk_bv_var("y", 8)),
                                tm1.mk_bv_const(8, 10));
    smt::term pin1 = tm1.mk_ult(tm1.mk_bv_var("x", 8), tm1.mk_bv_const(8, 3));
    smt::term sub2 = tm2.mk_ult(tm2.mk_bvsub(tm2.mk_bv_var("y", 8), tm2.mk_bv_var("x", 8)),
                                tm2.mk_bv_const(8, 10));
    smt::term pin2 = tm2.mk_ult(tm2.mk_bv_var("x", 8), tm2.mk_bv_const(8, 3));
    EXPECT_FALSE(c.prepare(tm1, {sub1, pin1})->form == c.prepare(tm2, {sub2, pin2})->form);
}

TEST(structural_form, renamed_variables_coincide) {
    smt::term_manager tm1;
    smt::term f1 = tm1.mk_ult(tm1.mk_bv_var("x", 8), tm1.mk_bv_const(8, 50));
    smt::term_manager tm2;
    smt::term f2 = tm2.mk_ult(tm2.mk_bv_var("totally_different_name", 8),
                              tm2.mk_bv_const(8, 50));
    query_cache c{std::string{}};
    const structural_form form1 = c.prepare(tm1, {f1})->form;
    const structural_form form2 = c.prepare(tm2, {f2})->form;
    EXPECT_EQ(form1, form2);
    EXPECT_EQ(form1.hash, form2.hash);
    // A different width is a different shape, name notwithstanding.
    smt::term wide = tm2.mk_ult(tm2.mk_bv_var("x", 16), tm2.mk_bv_const(16, 50));
    EXPECT_FALSE(form1 == c.prepare(tm2, {wide})->form);
}

TEST(structural_form, distinct_queries_differ) {
    smt::term_manager tm;
    smt::term x = tm.mk_bv_var("x", 8);
    smt::term f10 = tm.mk_ult(x, tm.mk_bv_const(8, 10));
    smt::term f11 = tm.mk_ult(x, tm.mk_bv_const(8, 11));
    query_cache c{std::string{}};
    auto form = [&](const std::vector<smt::term>& assertions,
                    const std::vector<smt::term>& assumptions) {
        return c.prepare(tm, assertions, assumptions)->form;
    };
    EXPECT_FALSE(form({f10}, {}) == form({f11}, {}));
    // Assertion vs assumption position is part of the identity.
    EXPECT_FALSE(form({f10}, {}) == form({}, {f10}));
    // Order and duplicates are not.
    EXPECT_EQ(form({f10, f11, f10}, {}), form({f11, f10}, {}));
}

// ---- cross-manager reuse ----------------------------------------------------

TEST(cross_manager, shared_cache_solves_once_and_remaps_verified_model) {
    // The acceptance shape: two independently constructed term_managers,
    // structurally identical SAT query (different variable names even),
    // one solver call total, second answer via a remapped model that
    // evaluation-verifies.
    auto cache = std::make_shared<query_cache>(std::string{});

    smt::term_manager tm_a;
    smt_engine engine_a(tm_a, {.shared_cache = cache});
    smt::term x = tm_a.mk_bv_var("x", 8);
    smt::term f_a = tm_a.mk_and(tm_a.mk_ult(x, tm_a.mk_bv_const(8, 50)),
                                tm_a.mk_ult(tm_a.mk_bv_const(8, 40), x));
    auto r_a = solve_single(engine_a, {f_a});
    ASSERT_EQ(r_a.ans, answer::sat);
    EXPECT_EQ(engine_a.stats().solver_runs, 1u);

    smt::term_manager tm_b;
    smt_engine engine_b(tm_b, {.shared_cache = cache});
    // Junk terms shift every id, so the remap is a real translation.
    tm_b.mk_bv_var("junk", 32);
    tm_b.mk_bool_var("more_junk");
    smt::term y = tm_b.mk_bv_var("y", 8);  // renamed variable
    smt::term f_b = tm_b.mk_and(tm_b.mk_ult(y, tm_b.mk_bv_const(8, 50)),
                                tm_b.mk_ult(tm_b.mk_bv_const(8, 40), y));
    auto r_b = solve_single(engine_b, {f_b});
    ASSERT_EQ(r_b.ans, answer::sat);
    EXPECT_EQ(engine_b.stats().solver_runs, 0u);
    EXPECT_EQ(engine_b.stats().cache_hits, 1u);
    EXPECT_EQ(cache->stats().remapped_models, 1u);
    // The remapped model satisfies the requester's formula in the
    // requester's coordinates.
    EXPECT_EQ(eval_model(tm_b, f_b, r_b.model), 1u);
    EXPECT_EQ(eval_model(tm_b, y, r_b.model), eval_model(tm_a, x, r_a.model));
}

TEST(cross_manager, unsat_results_transfer) {
    auto cache = std::make_shared<query_cache>(std::string{});
    smt::term_manager tm_a;
    smt_engine engine_a(tm_a, {.shared_cache = cache});
    smt::term x = tm_a.mk_bv_var("x", 8);
    auto r_a = solve_single(engine_a, {tm_a.mk_ult(x, tm_a.mk_bv_const(8, 4)),
                               tm_a.mk_ult(tm_a.mk_bv_const(8, 9), x)});
    ASSERT_EQ(r_a.ans, answer::unsat);

    smt::term_manager tm_b;
    smt_engine engine_b(tm_b, {.shared_cache = cache});
    tm_b.mk_bv_var("junk", 32);  // shift ids off manager A's
    smt::term z = tm_b.mk_bv_var("z", 8);
    auto r_b = solve_single(engine_b, {tm_b.mk_ult(tm_b.mk_bv_const(8, 9), z),
                               tm_b.mk_ult(z, tm_b.mk_bv_const(8, 4))});
    EXPECT_EQ(r_b.ans, answer::unsat);
    EXPECT_EQ(engine_b.stats().solver_runs, 0u);
    EXPECT_EQ(engine_b.stats().cache_hits, 1u);
    EXPECT_EQ(cache->stats().remapped_models, 0u);  // no model to remap
}

TEST(cross_manager, same_manager_hit_returns_the_first_solves_model) {
    auto cache = std::make_shared<query_cache>(std::string{});
    smt::term_manager tm;
    smt_engine engine(tm, {.shared_cache = cache});
    smt::term f = tm.mk_ult(tm.mk_bv_var("x", 16), tm.mk_bv_const(16, 7));
    auto r1 = solve_single(engine, {f});
    auto r2 = solve_single(engine, {f});
    EXPECT_EQ(engine.stats().solver_runs, 1u);
    EXPECT_EQ(engine.stats().cache_hits, 1u);
    EXPECT_EQ(cache->stats().remapped_models, 1u);  // verified like every sat hit
    EXPECT_EQ(r1.model, r2.model);
}

TEST(cross_manager, unverifiable_model_reads_as_miss) {
    // A poisoned sat entry (as a corrupt persistence file could produce)
    // must fail evaluation-verification and fall back to a miss — never
    // surface an invalid model.
    query_cache cache{std::string{}};
    smt::term_manager tm_a;
    smt::term x = tm_a.mk_bv_var("x", 8);
    smt::term f_a = tm_a.mk_ult(x, tm_a.mk_bv_const(8, 50));
    backend_result poisoned;
    poisoned.ans = answer::sat;
    poisoned.model = {{x.id, 200}};  // 200 < 50 is false
    insert(cache, tm_a, {f_a}, poisoned);

    smt::term_manager tm_b;
    tm_b.mk_bv_var("junk", 32);  // shift ids: a genuine cross-manager remap
    smt::term y = tm_b.mk_bv_var("y", 8);
    smt::term f_b = tm_b.mk_ult(y, tm_b.mk_bv_const(8, 50));
    EXPECT_FALSE(lookup(cache, tm_b, {f_b}).has_value());
    EXPECT_EQ(cache.stats().remap_rejects, 1u);
    EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(cross_manager, poisoned_entry_reads_as_miss_for_its_own_manager) {
    // The manager that inserted an entry gets no unchecked replay either:
    // its own lookup verifies the model and rejects the poisoned one.
    query_cache cache{std::string{}};
    smt::term_manager tm;
    smt::term x = tm.mk_bv_var("x", 8);
    smt::term f = tm.mk_ult(x, tm.mk_bv_const(8, 50));
    backend_result poisoned;
    poisoned.ans = answer::sat;
    poisoned.model = {{x.id, 200}};  // 200 < 50 is false
    insert(cache, tm, {f}, poisoned);
    EXPECT_FALSE(lookup(cache, tm, {f}).has_value());
    EXPECT_EQ(cache.stats().remap_rejects, 1u);
    EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(cross_manager, fresh_solve_after_a_reject_refreshes_the_entry) {
    // Reject -> fresh solve -> its insert refreshes the resident entry in
    // place, so the next lookup hits with the solved model instead of
    // rejecting the poisoned one forever.
    smt::term_manager tm;
    smt_engine engine(tm);
    smt::term x = tm.mk_bv_var("x", 8);
    smt::term f = tm.mk_ult(x, tm.mk_bv_const(8, 50));
    backend_result poisoned;
    poisoned.ans = answer::sat;
    poisoned.model = {{x.id, 200}};
    insert(engine.cache(), tm, {f}, poisoned);

    backend_result first = engine.solve({{f}, {}, strategy::single()});
    ASSERT_EQ(first.ans, answer::sat);
    EXPECT_EQ(eval_model(tm, f, first.model), 1u);
    EXPECT_EQ(engine.stats().solver_runs, 1u);
    // The submit's optimistic lookup and its locked re-check both reject.
    const std::uint64_t rejects = engine.cache().stats().remap_rejects;
    EXPECT_GE(rejects, 1u);

    backend_result second = engine.solve({{f}, {}, strategy::single()});
    ASSERT_EQ(second.ans, answer::sat);
    EXPECT_EQ(engine.stats().solver_runs, 1u);
    EXPECT_EQ(engine.stats().cache_hits, 1u);
    EXPECT_EQ(engine.cache().stats().remap_rejects, rejects);
    EXPECT_EQ(engine.cache().size(), 1u);
    EXPECT_EQ(second.model, first.model);
}

TEST(manager_memo, lru_eviction_survives_manager_churn) {
    // Pins the per-manager memo bound's LRU eviction (state_for in
    // query_cache.cpp, a lock-juggling hot spot whose lock contract is now
    // explicit via SD_REQUIRES): churning through well over 32 transient
    // managers evicts memo states one at a time, every transient manager
    // still hits the structurally identical entry, and the long-lived
    // manager keeps answering correctly after its memo is rebuilt.
    query_cache cache{std::string{}};

    auto build = [](smt::term_manager& tm) {
        smt::term x = tm.mk_bv_var("x", 8);
        return std::vector<smt::term>{
            tm.mk_ult(x, tm.mk_bv_const(8, 50)),
            tm.mk_ult(tm.mk_bv_const(8, 60), x),  // x > 60 && x < 50: unsat
        };
    };

    smt::term_manager live;
    std::vector<smt::term> live_q = build(live);
    auto prep = cache.prepare(live, live_q, {});
    backend_result unsat_res;
    unsat_res.ans = answer::unsat;
    cache.insert_prepared(*prep, unsat_res);

    for (int i = 0; i < 40; ++i) {
        smt::term_manager tm;
        std::vector<smt::term> q = build(tm);
        auto p = cache.prepare(tm, q, {});
        auto hit = cache.lookup_prepared(tm, *p);
        ASSERT_TRUE(hit.has_value()) << "churn iteration " << i;
        EXPECT_EQ(hit->ans, answer::unsat) << "churn iteration " << i;
    }

    // The long-lived manager's memo state may or may not have been
    // evicted along the way; either way a fresh prepare must rebuild the
    // same key and keep hitting.
    auto prep_again = cache.prepare(live, live_q, {});
    EXPECT_EQ(prep_again->key, prep->key);
    auto live_hit = cache.lookup_prepared(live, *prep_again);
    ASSERT_TRUE(live_hit.has_value());
    EXPECT_EQ(live_hit->ans, answer::unsat);
}

// ---- persistence ------------------------------------------------------------

TEST(persistence, engine_warm_starts_from_saved_cache) {
    // The acceptance shape: a second engine instance (fresh term_manager,
    // as a second process would have) pointed at the same cache_path
    // answers with zero solver calls.
    scratch_file file("sciduction_warm_engine.bin");
    smt::env model_a;
    {
        smt::term_manager tm;
        smt_engine engine(tm, {.cache_path = file.path});
        smt::term x = tm.mk_bv_var("x", 8);
        auto r = solve_single(engine, {tm.mk_ult(x, tm.mk_bv_const(8, 50)),
                               tm.mk_ult(tm.mk_bv_const(8, 40), x)});
        ASSERT_EQ(r.ans, answer::sat);
        EXPECT_EQ(engine.stats().solver_runs, 1u);
        EXPECT_EQ(engine.cache().stats().persisted_loads, 0u);  // cold start
        model_a = r.model;
    }  // ~smt_engine -> ~query_cache saves
    {
        smt::term_manager tm;
        smt_engine engine(tm, {.cache_path = file.path});
        EXPECT_GE(engine.cache().stats().persisted_loads, 1u);
        smt::term renamed = tm.mk_bv_var("warm", 8);
        smt::term f = tm.mk_and(tm.mk_ult(renamed, tm.mk_bv_const(8, 50)),
                                tm.mk_ult(tm.mk_bv_const(8, 40), renamed));
        // Same structure modulo renaming and and-folding differences?
        // Build it exactly like run 1 to be structurally identical.
        auto r = solve_single(engine, {tm.mk_ult(renamed, tm.mk_bv_const(8, 50)),
                               tm.mk_ult(tm.mk_bv_const(8, 40), renamed)});
        ASSERT_EQ(r.ans, answer::sat);
        EXPECT_EQ(engine.stats().solver_runs, 0u);
        EXPECT_EQ(engine.stats().cache_hits, 1u);
        EXPECT_EQ(engine.cache().stats().remapped_models, 1u);
        EXPECT_EQ(eval_model(tm, f, r.model), 1u);
    }
}

TEST(persistence, garbage_file_degrades_to_cold_start) {
    scratch_file file("sciduction_garbage.bin");
    write_file(file.path, "this is definitely not a cache file");
    smt::term_manager tm;
    query_cache cache(file.path);
    EXPECT_EQ(cache.stats().persisted_loads, 0u);
    // The cache still works, and save() replaces the garbage.
    smt::term x = tm.mk_bv_var("x", 8);
    backend_result unsat_r;
    unsat_r.ans = answer::unsat;
    insert(cache, tm, {tm.mk_ult(x, tm.mk_bv_const(8, 3))}, unsat_r);
    EXPECT_TRUE(cache.save());
    query_cache reread(file.path);
    EXPECT_EQ(reread.stats().persisted_loads, 1u);
}

TEST(persistence, version_bump_is_ignored) {
    scratch_file file("sciduction_version.bin");
    smt::term_manager tm;
    {
        query_cache cache(file.path);
        backend_result r;
        r.ans = answer::unsat;
        insert(cache, tm, {tm.mk_bool_var("p")}, r);
        EXPECT_TRUE(cache.save());
    }
    std::string body = read_file(file.path);
    ASSERT_GT(body.size(), 8u);
    body[4] = 99;  // version field follows the 4-byte magic
    write_file(file.path, body);
    query_cache cache(file.path);
    EXPECT_EQ(cache.stats().persisted_loads, 0u);
}

TEST(persistence, corrupt_record_is_skipped_rest_loads) {
    scratch_file file("sciduction_corrupt.bin");
    smt::term_manager tm;
    smt::term x = tm.mk_bv_var("x", 8);
    {
        query_cache cache(file.path);
        backend_result r;
        r.ans = answer::unsat;
        insert(cache, tm, {tm.mk_ult(x, tm.mk_bv_const(8, 3))}, r);
        insert(cache, tm, {tm.mk_ult(x, tm.mk_bv_const(8, 5))}, r);
        EXPECT_TRUE(cache.save());
    }
    std::string body = read_file(file.path);
    ASSERT_GT(body.size(), 4u);
    body.back() = static_cast<char>(body.back() ^ 0x5a);  // flip inside last record
    write_file(file.path, body);
    query_cache cache(file.path);
    EXPECT_EQ(cache.stats().persisted_loads, 1u);
    EXPECT_EQ(cache.stats().persist_rejects, 1u);
}

TEST(persistence, truncated_file_keeps_loadable_prefix) {
    scratch_file file("sciduction_truncated.bin");
    smt::term_manager tm;
    smt::term x = tm.mk_bv_var("x", 8);
    {
        query_cache cache(file.path);
        backend_result r;
        r.ans = answer::unsat;
        insert(cache, tm, {tm.mk_ult(x, tm.mk_bv_const(8, 3))}, r);
        insert(cache, tm, {tm.mk_ult(x, tm.mk_bv_const(8, 5))}, r);
        EXPECT_TRUE(cache.save());
    }
    std::string body = read_file(file.path);
    write_file(file.path, body.substr(0, body.size() - 7));  // cut into the last record
    query_cache cache(file.path);
    EXPECT_EQ(cache.stats().persisted_loads, 1u);
}

TEST(persistence, file_layout_is_pinned) {
    // Every other persistence test writes and reads with one build, so
    // only this one pins the bytes a cache file written today must keep:
    // a change here makes every persisted cache file read cold, so it must
    // come with a version bump. Fields are host-endian; the pinned bytes
    // are the little-endian ones.
    if constexpr (std::endian::native != std::endian::little)
        GTEST_SKIP() << "the pinned SDQC bytes are little-endian";
    scratch_file file("sciduction_layout.bin");
    {
        query_cache cache(file.path);
        backend_result unsat_r;
        unsat_r.ans = answer::unsat;
        unsat_r.conflicts = 2;
        // Term level: x < 3 asserted, 5 < x assumed.
        smt::term_manager tm;
        smt::term x = tm.mk_bv_var("x", 8);
        cache.insert_prepared(*cache.prepare(tm, {tm.mk_ult(x, tm.mk_bv_const(8, 3))},
                                             {tm.mk_ult(tm.mk_bv_const(8, 5), x)}),
                              unsat_r);
        // CNF level: all four clauses over two variables.
        sat::solver s;
        const sat::lit a = sat::mk_lit(s.new_var());
        const sat::lit b = sat::mk_lit(s.new_var());
        s.add_clause(a, b);
        s.add_clause(~a, b);
        s.add_clause(a, ~b);
        s.add_clause(~a, ~b);
        cache.insert_cnf(cnf_fingerprint::of(s), unsat_r);
        ASSERT_TRUE(cache.save());
    }
    // Little-endian fields; a node is kind, width, payload, kid count, kids.
    const std::string expected =
        "53445143"          // magic "SDQC"
        "01000000"          // version 1
        "0200000000000000"  // 2 records
        // Record 1, term level.
        "00"                // tag 0
        "92000000"          // payload length 146
        "23ab21e8cce02290"  // FNV-1a checksum of the payload
        "738b1de2ce4030c7"  // structural-form hash
        "01000000"          // 1 variable
        "05000000"          // 5 nodes
        "03" "08000000" "0000000000000000" "00000000"                        // x: var_bv, index 0
        "01" "08000000" "0300000000000000" "00000000"                        // 3: const_bv
        "1d" "00000000" "0000000000000000" "02000000" "00000000" "01000000"  // ult(x, 3)
        "01" "08000000" "0500000000000000" "00000000"                        // 5: const_bv
        "1d" "00000000" "0000000000000000" "02000000" "03000000" "00000000"  // ult(5, x)
        "01000000" "02000000"  // assertion roots {2}
        "01000000" "04000000"  // assumption roots {4}
        "01"                   // unsat
        "0200000000000000"     // 2 conflicts
        "00000000"             // no model
        // Record 2, CNF level.
        "01"                // tag 1
        "29000000"          // payload length 41
        "d91c9ab390263dc4"  // FNV-1a checksum of the payload
        "f0279671026d7027"  // digest_lo
        "0f3793052891dbdb"  // digest_hi
        "0400000000000000"  // 4 clauses
        "02000000"          // 2 variables
        "01"                // unsat
        "0200000000000000"  // 2 conflicts
        "00000000";         // no model
    EXPECT_EQ(to_hex(read_file(file.path)), expected);
}

TEST(persistence, lru_eviction_composes_with_persisted_entries) {
    scratch_file file("sciduction_lru.bin");
    smt::term_manager tm;
    smt::term x = tm.mk_bv_var("x", 8);
    auto query = [&](std::uint64_t bound) {
        return std::vector<smt::term>{tm.mk_ult(x, tm.mk_bv_const(8, bound))};
    };
    backend_result r;
    r.ans = answer::unsat;
    {
        query_cache cache(file.path, 2);
        insert(cache, tm, query(1), r);
        insert(cache, tm, query(2), r);
        insert(cache, tm, query(3), r);  // evicts query(1)
        EXPECT_EQ(cache.stats().evictions, 1u);
        EXPECT_EQ(cache.size(), 2u);
        EXPECT_TRUE(cache.save());
    }
    {
        // save() wrote only the residents, in recency order.
        query_cache cache(file.path);
        EXPECT_EQ(cache.stats().persisted_loads, 2u);
        EXPECT_FALSE(lookup(cache, tm, query(1)).has_value());
        EXPECT_TRUE(lookup(cache, tm, query(2)).has_value());
        EXPECT_TRUE(lookup(cache, tm, query(3)).has_value());
    }
    {
        // Loaded entries keep their recency: a capacity-2 cache that loads
        // {2, 3} and inserts a fresh query evicts 2 (the older), not 3.
        query_cache cache(file.path, 2);
        EXPECT_EQ(cache.stats().persisted_loads, 2u);
        insert(cache, tm, query(4), r);
        EXPECT_FALSE(lookup(cache, tm, query(2)).has_value());
        EXPECT_TRUE(lookup(cache, tm, query(3)).has_value());
        EXPECT_TRUE(lookup(cache, tm, query(4)).has_value());
    }
}

// ---- CNF-level fingerprint cache --------------------------------------------

TEST(cnf_cache, fingerprint_identifies_the_clause_stream) {
    sat::solver a;
    sat::solver b;
    encode_pigeonhole(a, 4);
    encode_pigeonhole(b, 4);
    EXPECT_EQ(cnf_fingerprint::of(a), cnf_fingerprint::of(b));
    sat::solver c;
    encode_pigeonhole(c, 5);
    EXPECT_FALSE(cnf_fingerprint::of(a) == cnf_fingerprint::of(c));
    // The digest is order-sensitive on purpose: deterministic builders
    // replay the same order, and order-sensitivity keeps it O(1) per
    // clause.
    b.add_clause(sat::mk_lit(b.new_var()));
    EXPECT_FALSE(cnf_fingerprint::of(a) == cnf_fingerprint::of(b));
}

TEST(cnf_cache, solve_cnf_memoizes_unsat_and_validates_sat) {
    query_cache cache{std::string{}};
    auto build_unsat = [](unsigned, sat::solver& s) { encode_pigeonhole(s, 5); };
    auto first = solve_cnf(build_unsat, strategy::single(), 1, {}, &cache);
    EXPECT_TRUE(first.result.is_unsat());
    EXPECT_FALSE(first.cache_hit);
    auto second = solve_cnf(build_unsat, strategy::single(), 1, {}, &cache);
    EXPECT_TRUE(second.result.is_unsat());
    EXPECT_TRUE(second.cache_hit);
    EXPECT_EQ(second.result.conflicts, first.result.conflicts);

    // Satisfiable chain: the cached model is re-validated by propagation
    // on the fresh instance and returned.
    auto build_sat = [](unsigned, sat::solver& s) {
        std::vector<sat::var> v;
        for (int i = 0; i < 12; ++i) v.push_back(s.new_var());
        s.add_clause(sat::mk_lit(v[0]));
        for (int i = 0; i + 1 < 12; ++i)
            s.add_clause(~sat::mk_lit(v[static_cast<std::size_t>(i)]),
                         sat::mk_lit(v[static_cast<std::size_t>(i + 1)]));
    };
    auto sat_first = solve_cnf(build_sat, strategy::single(), 1, {}, &cache);
    ASSERT_TRUE(sat_first.result.is_sat());
    auto sat_second = solve_cnf(build_sat, strategy::single(), 1, {}, &cache);
    ASSERT_TRUE(sat_second.result.is_sat());
    EXPECT_TRUE(sat_second.cache_hit);
    for (std::size_t v = 0; v < 12; ++v)
        EXPECT_EQ(sat_second.result.sat_model[v], sat::lbool::l_true) << v;
}

TEST(cnf_cache, refuted_cached_model_is_replaced_by_the_fresh_solve) {
    query_cache cache{std::string{}};
    auto build = [](unsigned, sat::solver& s) {
        std::vector<sat::var> v;
        for (int i = 0; i < 6; ++i) v.push_back(s.new_var());
        s.add_clause(sat::mk_lit(v[0]));
        for (int i = 0; i + 1 < 6; ++i)
            s.add_clause(~sat::mk_lit(v[static_cast<std::size_t>(i)]),
                         sat::mk_lit(v[static_cast<std::size_t>(i + 1)]));
    };
    // Fabricate a poisoned entry under the real fingerprint: the all-false
    // model contradicts the forced v0, so re-validation refutes it.
    sat::solver probe;
    build(0, probe);
    cnf_fingerprint fp = cnf_fingerprint::of(probe);
    backend_result poisoned;
    poisoned.ans = answer::sat;
    poisoned.sat_model.assign(6, sat::lbool::l_false);
    cache.insert_cnf(fp, poisoned);

    // The refuted model falls through to a fresh solve, whose result must
    // REPLACE the poisoned entry (not be dropped on the floor)...
    auto first = solve_cnf(build, strategy::single(), 1, {}, &cache);
    ASSERT_TRUE(first.result.is_sat());
    EXPECT_FALSE(first.cache_hit);
    // ...so the next run is a clean validated hit instead of paying the
    // failed validation forever.
    auto second = solve_cnf(build, strategy::single(), 1, {}, &cache);
    EXPECT_TRUE(second.cache_hit);
    ASSERT_TRUE(second.result.is_sat());
    EXPECT_EQ(second.result.sat_model[0], sat::lbool::l_true);
}

TEST(cnf_cache, per_request_cache_bypass_is_honoured) {
    query_cache cache{std::string{}};
    auto build = [](unsigned, sat::solver& s) { encode_pigeonhole(s, 4); };
    strategy no_cache = strategy::single();
    no_cache.use_cache = false;
    (void)solve_cnf(build, no_cache, 1, {}, &cache);
    EXPECT_EQ(cache.cnf_size(), 0u);
    (void)solve_cnf(build, strategy::single(), 1, {}, &cache);
    EXPECT_EQ(cache.cnf_size(), 1u);
}

TEST(cnf_cache, persists_across_cache_instances) {
    scratch_file file("sciduction_cnf.bin");
    auto build = [](unsigned, sat::solver& s) { encode_pigeonhole(s, 5); };
    std::uint64_t cold_conflicts = 0;
    {
        query_cache cache(file.path);
        auto out = solve_cnf(build, strategy::single(), 1, {}, &cache);
        EXPECT_TRUE(out.result.is_unsat());
        cold_conflicts = out.result.conflicts;
        EXPECT_GT(cold_conflicts, 0u);
    }
    {
        query_cache cache(file.path);
        EXPECT_GE(cache.stats().persisted_loads, 1u);
        auto out = solve_cnf(build, strategy::single(), 1, {}, &cache);
        EXPECT_TRUE(out.result.is_unsat());
        EXPECT_TRUE(out.cache_hit);
        EXPECT_EQ(out.result.conflicts, cold_conflicts);
    }
}

// ---- application warm starts ------------------------------------------------

TEST(application_warm_start, invgen_warm_run_matches_cold_run) {
    aig::aig circuit;
    aig::literal in = circuit.add_input();
    aig::literal stuck = circuit.add_latch(false);
    aig::literal l1 = circuit.add_latch(false);
    aig::literal l2 = circuit.add_latch(false);
    circuit.set_latch_next(stuck, stuck);
    circuit.set_latch_next(l1, in);
    circuit.set_latch_next(l2, in);

    auto to_strings = [](const std::vector<invgen::candidate>& cs) {
        std::multiset<std::string> out;
        for (const auto& c : cs) out.insert(c.to_string());
        return out;
    };
    auto cold = invgen::generate_invariants(circuit, {});

    scratch_file file("sciduction_invgen.bin");
    invgen::invgen_config cached_cfg;
    cached_cfg.cache_path = file.path;
    auto first = invgen::generate_invariants(circuit, cached_cfg);
    EXPECT_EQ(to_strings(cold.proven), to_strings(first.proven));
    // The second run is warm (same seed => identical query stream) and
    // must reach the identical fixpoint.
    auto warm = invgen::generate_invariants(circuit, cached_cfg);
    EXPECT_EQ(to_strings(cold.proven), to_strings(warm.proven));
    EXPECT_EQ(cold.induction_iterations, warm.induction_iterations);

    // The proof entry point persists its base/step queries the same way.
    invgen::proof_config proof_cfg;
    proof_cfg.cache_path = file.path;
    bool plain = invgen::prove_with_invariants(circuit, aig::negate(stuck), cold.proven);
    bool cached1 = invgen::prove_with_invariants(circuit, aig::negate(stuck), cold.proven,
                                                 proof_cfg);
    bool cached2 = invgen::prove_with_invariants(circuit, aig::negate(stuck), cold.proven,
                                                 proof_cfg);
    EXPECT_EQ(plain, cached1);
    EXPECT_EQ(plain, cached2);
}

TEST(application_warm_start, per_request_use_cache_false_skips_persisted_entries) {
    scratch_file file("sciduction_bypass.bin");
    {
        smt::term_manager tm;
        smt_engine engine(tm, {.cache_path = file.path});
        smt::term x = tm.mk_bv_var("x", 8);
        (void)solve_single(engine, {tm.mk_ult(x, tm.mk_bv_const(8, 50))});
    }
    smt::term_manager tm;
    smt_engine engine(tm, {.cache_path = file.path});
    smt::term x = tm.mk_bv_var("x", 8);
    solve_request req;
    req.assertions = {tm.mk_ult(x, tm.mk_bv_const(8, 50))};
    req.strategy = strategy::single();
    req.strategy.use_cache = false;
    auto r = engine.submit(std::move(req)).get();
    EXPECT_EQ(r.ans, answer::sat);
    EXPECT_EQ(engine.stats().cache_hits, 0u);
    EXPECT_EQ(engine.stats().solver_runs, 1u);
}

}  // namespace
}  // namespace sciduction::substrate
