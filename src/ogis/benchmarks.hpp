// Deobfuscation benchmarks of paper Fig. 8, plus extra bit-twiddling
// specifications in the same style (Hacker's-Delight flavour, as in the
// underlying oracle-guided synthesis paper).
//
// Each benchmark bundles: the obfuscated mini-C source (the only available
// "specification" — paper Sec. 4.1), an I/O-oracle adapter executing it
// with the interpreter, the component library (structure hypothesis), and
// the expected clean semantics for validation.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>

#include "ir/interp.hpp"
#include "ir/parser.hpp"
#include "ogis/synthesis.hpp"

namespace sciduction::ogis {

/// I/O oracle backed by the mini-C interpreter: the obfuscated program is a
/// black box mapping inputs to outputs (paper Sec. 4.1).
class minic_oracle final : public spec_oracle {
public:
    /// Outputs are read from `output_globals` after the call when given;
    /// otherwise the output is the function's return value.
    minic_oracle(ir::program prog, std::string function_name,
                 std::vector<std::string> output_globals = {});

    /// Thread-safe: the interpreter only reads the program, and the query
    /// counter is atomic.
    io_vector query(const io_vector& input) override;

    [[nodiscard]] const ir::program& program() const { return program_; }
    [[nodiscard]] std::uint64_t queries() const { return queries_; }

private:
    ir::program program_;
    std::string function_;
    std::vector<std::string> output_globals_;
    std::atomic<std::uint64_t> queries_ = 0;
};

struct deobfuscation_benchmark {
    std::string name;
    std::string obfuscated_source;  ///< mini-C
    std::string function_name;
    std::vector<std::string> output_globals;
    synthesis_config config;
    /// Ground truth for validation (not available to the synthesizer).
    std::function<io_vector(const io_vector&)> reference;
};

/// P1 of Fig. 8: interchange the two values (XOR-swap obfuscation with
/// decoy aliasing checks). Library: three xor components, two outputs.
deobfuscation_benchmark benchmark_p1_interchange();

/// P2 of Fig. 8: multiply by 45 via an obfuscated flag-driven loop.
/// Library: shl2, add, shl3, add. (The paper's listing toggles the flags
/// with '~'; read as logical negation on the 0/1 flags, which is the only
/// reading under which the loop terminates.)
deobfuscation_benchmark benchmark_p2_multiply45();

/// Extra: turn off the rightmost set bit (x & (x-1)).
deobfuscation_benchmark benchmark_rightmost_off();

/// Extra: isolate the rightmost set bit (x & -x).
deobfuscation_benchmark benchmark_isolate_rightmost();

/// Extra: average of two values without overflow ((x & y) + ((x ^ y) >> 1)).
deobfuscation_benchmark benchmark_average();

/// All benchmarks above, for sweeps.
std::vector<deobfuscation_benchmark> all_benchmarks();

/// Convenience: build the oracle and run synthesis for a benchmark.
synthesis_outcome run_benchmark(const deobfuscation_benchmark& bench);

}  // namespace sciduction::ogis
