// bv_miters: seed-generated QF_BV equivalence miters (multiplier
// distributivity / associativity, square expansion, shift-mul identities at
// widths 4-6), emitted as SMT-LIB2 text and decided through frontend ->
// smt_engine::solve (strategy single, cache off). The identities are unsat
// by construction; the sat mutants (one constant perturbed) must come back
// with a model that re-evaluates true. This is where the bit-blaster's
// clause count drives the search.
#include "generators.hpp"
#include "instances.hpp"

namespace perfbench {

namespace {

class bv_miters_workload final : public workload {
public:
    bv_miters_workload(const options& opt, ledger& led) : opt_(opt), ledger_(led) {}

    void setup() override { miters_ = generate_bv_miters(opt_.seed, opt_.reduced); }

    pass_outcome run_pass(std::uint64_t, tracer* tr) override {
        pass_outcome out;
        layer_sample* layers = tr != nullptr ? &out.layers : nullptr;
        double replay_s = 0;
        const auto start = bench_clock::now();
        for (std::size_t i = 0; i < miters_.size(); ++i) {
            const miter& m = miters_[i];
            const auto t0 = bench_clock::now();
            obs::span op = maybe_span(tr, "workload", m.family + "/w" + std::to_string(m.width));
            const double before = layers != nullptr ? layer_value(*layers, "bench.replay_ms") : 0;
            const verdict v = decide_smt2(m.smt2, tr, layers);
            op.end();
            const double replay =
                layers != nullptr ? (layer_value(*layers, "bench.replay_ms") - before) / 1e3 : 0;
            replay_s += replay;
            out.op_ms.push_back(ms_since(t0) - 1e3 * replay);
            const std::string name =
                "miter " + std::to_string(i) + " (" + m.family + " w" + std::to_string(m.width) + ")";
            const auto want = m.expect_sat ? sciduction::substrate::answer::sat
                                           : sciduction::substrate::answer::unsat;
            if (!v.error.empty())
                ledger_.fail(name + ": " + v.error);
            else
                ledger_.check(v.ans == want, name + ": got " + verdict_name(v.ans));
        }
        out.wall_s = seconds_between(start, bench_clock::now()) - replay_s;
        return out;
    }

    [[nodiscard]] std::set<std::string> layers() const override {
        return {"frontend", "smt", "sat", "substrate.solve", "substrate.overhead",
                "substrate.cache_hit_ratio", "substrate.solver_runs"};
    }

private:
    const options& opt_;
    ledger& ledger_;
    std::vector<miter> miters_;
};

}  // namespace

std::unique_ptr<workload> make_bv_miters(const options& opt, ledger& led) {
    return std::make_unique<bv_miters_workload>(opt, led);
}

}  // namespace perfbench
