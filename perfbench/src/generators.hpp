// Seeded input generators. Each is a pure function of its seed: the same
// seed gives byte-identical SMT-LIB2 text, a different seed gives
// different text, and every instance's status is known by construction.
//
// The seed varies what does not change the amount of solver work —
// variable names, instance order, the constants of the tiny queries — and
// keeps fixed what does (the family, width and perturbation mix), so runs
// with different seeds measure the same work on different bytes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One QF_BV equivalence miter: `(distinct lhs rhs)` over fresh variables.
struct miter {
    std::string family;   ///< distrib | assoc | square | shiftmul
    unsigned width = 0;   ///< bit-vector width of the operands
    bool expect_sat = false;  ///< sat mutant (one constant perturbed) vs identity
    std::string smt2;     ///< the script the program parses
};

/// The bv_miters workload's instance set for `seed` (`reduced` = the small
/// probe set a traced run of another workload uses).
std::vector<miter> generate_bv_miters(std::uint64_t seed, bool reduced = false);

/// One miter of a family; a nonzero `tag` adds a fresh 16-bit variable
/// pinned to that constant (the status is unchanged), which makes otherwise
/// equal miters structurally distinct for the query cache.
miter make_miter(const std::string& family, unsigned width, bool mutant, std::uint64_t seed,
                 std::uint64_t tag = 0);

/// One request of the daemon mix.
struct mix_request {
    enum class klass { tiny, repeat, medium } kind = klass::tiny;
    unsigned tenant = 0;      ///< which client connection sends it
    bool expect_sat = false;  ///< known by construction
    /// For a repeat: the index of the earlier request (of the other tenant)
    /// it renames; -1 otherwise.
    int repeat_of = -1;
    std::string smt2;
};

/// The daemon_mix request stream of `count` requests for `seed`: 70% tiny
/// unique queries, 20% renamed repeats of an earlier tiny query of the other
/// tenant, 10% medium miters (submitted as strategy::shard(1)), in a fixed
/// pattern; the seed picks names, constants and which queries repeat.
std::vector<mix_request> generate_daemon_mix(std::uint64_t seed, std::size_t count);

}  // namespace perfbench
