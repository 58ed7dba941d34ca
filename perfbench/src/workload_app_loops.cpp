// app_loops: the paper's inductive/deductive loops at fixed sizes — the
// OGIS Fig. 8 suite (P1@32, P2@8, the three bit tricks @16), GameTime on
// modexp (basis extraction -> timing model -> WCET), invariant generation
// on counter circuits, and switching-logic synthesis for the transmission
// (5 s dwell), then the Fig. 10 closed-loop trace of the synthesized logic.
// Every result is validated. `hybrid` is pure simulation: the solver-free
// control of the workload.
//
// A pass is seven ops, each one application run: OGIS P1, OGIS P2, the
// three OGIS bit tricks together, GameTime, invgen over the twelve
// counters, the switching-logic synthesis and the Fig. 10 trace. The median
// op is P2 (~105 ms); the next faster op (the trace) takes under half of
// that and the next slower one (the synthesis) four times it, so the median
// stays on P2 from run to run. Twelve separate invgen ops (~1 ms each) would
// put the median on an invgen call, and those calls slow down up to twice
// as much as the rest of the pass when a shared host is busy.
#include <thread>

#include "aig/aig.hpp"
#include "bench.hpp"
#include "gametime/gametime.hpp"
#include "hybrid/transmission.hpp"
#include "invgen/invgen.hpp"
#include "ir/parser.hpp"
#include "ir/transform.hpp"
#include "ogis/benchmarks.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace sciduction;

const char* modexp_src = R"(
int modexp(int base, int exponent) {
  int result = 1;
  int b = base;
  int i = 0;
  while (i < 8) bound 8 {
    if (exponent & 1) { result = (result * b) % 1000003; }
    b = (b * b) % 1000003;
    exponent = exponent >> 1;
    i = i + 1;
  }
  return result;
}
)";

/// Engine threads for the loops: at most four.
unsigned engine_threads() {
    return std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
}

/// A `bits`-bit counter wrapping from modulus-1 to 0, with the property
/// "the state never reaches 2^bits - 1" (unreachable, and not 1-inductive
/// on its own when modulus < 2^bits - 1).
aig::aig counter(unsigned bits, std::uint64_t modulus) {
    aig::aig g;
    std::vector<aig::literal> b;
    for (unsigned i = 0; i < bits; ++i) b.push_back(g.add_latch(false));
    aig::literal at_last = aig::lit_true;
    aig::literal all_ones = aig::lit_true;
    for (unsigned i = 0; i < bits; ++i) {
        at_last = g.add_and(at_last, ((modulus - 1) >> i) & 1 ? b[i] : aig::negate(b[i]));
        all_ones = g.add_and(all_ones, b[i]);
    }
    aig::literal carry = aig::lit_true;
    for (unsigned i = 0; i < bits; ++i) {
        const aig::literal sum = g.add_xor(b[i], carry);
        carry = g.add_and(b[i], carry);
        g.set_latch_next(b[i], g.add_and(aig::negate(at_last), sum));
    }
    g.add_output(aig::negate(all_ones));
    return g;
}

struct counter_case {
    unsigned bits;
    std::uint64_t modulus;
    std::size_t proven;  // invariants generate_invariants proves (fixed by the design)
};
const counter_case counter_cases[] = {{3, 5, 6},   {3, 6, 1},   {3, 7, 3},   {4, 9, 7},
                                      {4, 10, 2},  {4, 12, 2},  {4, 13, 1},  {5, 17, 6},
                                      {5, 20, 3},  {5, 24, 3},  {5, 30, 1},  {6, 40, 3}};

class app_loops_workload final : public workload {
public:
    app_loops_workload(const options& opt, ledger& led) : opt_(opt), ledger_(led) {}

    void setup() override {
        program_ = ir::parse_program(modexp_src);
        function_ = ir::resolve_static_branches(
            ir::unroll_loops(*program_.find_function("modexp")), program_.width);
        cfg_ = std::make_unique<ir::cfg>(ir::cfg::build(program_, function_));

        benches_ = ogis::all_benchmarks();
        const unsigned widths[] = {32, 8, 16, 16, 16};  // P1, P2, three bit tricks
        // The OGIS loop runs one query at a time (no overlap), so one
        // engine worker serves it; more would only be spawned and idle.
        for (std::size_t i = 0; i < benches_.size(); ++i) {
            benches_[i].config.width = widths[i];
            benches_[i].config.engine.threads = 1;
        }
        counters_.clear();
        for (const counter_case& c : counter_cases) counters_.push_back(counter(c.bits, c.modulus));

        util::rng r(opt_.seed);
        samples_.clear();
        for (int i = 0; i < 64; ++i) samples_.push_back({r.next_u64(), r.next_u64()});
        samples_.push_back({0, 0});
        samples_.push_back({~0ULL, 1});
    }

    pass_outcome run_pass(std::uint64_t, tracer* tr) override {
        pass_outcome out;
        auto timed = [&](auto&& run_op) {
            const auto t0 = bench_clock::now();
            run_op();
            out.op_ms.push_back(ms_since(t0));
        };
        const auto start = bench_clock::now();
        timed([&] { run_ogis(benches_[0], tr, out.layers); });  // P1
        timed([&] { run_ogis(benches_[1], tr, out.layers); });  // P2
        timed([&] {
            for (std::size_t i = 2; i < benches_.size(); ++i) run_ogis(benches_[i], tr, out.layers);
        });
        timed([&] { run_gametime(tr, out.layers); });
        timed([&] { run_invgen(tr, out.layers); });
        const hybrid::transmission_params params;
        hybrid::mds sys = hybrid::build_transmission(params);
        timed([&] { run_hybrid(sys, tr, out.layers); });
        timed([&] { run_fig10(sys, params, tr); });
        out.wall_s = seconds_between(start, bench_clock::now());
        if (tr == nullptr) out.layers.clear();
        return out;
    }

    [[nodiscard]] std::set<std::string> layers() const override {
        return {"ogis", "gametime", "invgen", "hybrid", "substrate.cache_hit_ratio",
                "substrate.solver_runs"};
    }

private:
    void run_ogis(const ogis::deobfuscation_benchmark& bench, tracer* tr, layer_sample& l) {
        const auto t0 = bench_clock::now();
        obs::span s = maybe_span(tr, "ogis", "ogis.run_benchmark " + bench.name);
        const ogis::synthesis_outcome outcome = ogis::run_benchmark(bench);
        s.end();
        l["ogis.s"] += seconds_between(t0, bench_clock::now());
        l["ogis.iterations"] += outcome.stats.iterations;
        l["ogis.oracle_queries"] += static_cast<double>(outcome.stats.oracle_queries);
        l["substrate.cache_hits"] += static_cast<double>(outcome.stats.substrate_cache_hits);
        l["substrate.solver_runs"] += static_cast<double>(outcome.stats.solver_runs);

        const std::string name = "ogis " + bench.name;
        if (outcome.status != core::loop_status::success || !outcome.program) {
            ledger_.fail(name + ": synthesis did not succeed");
            return;
        }
        const unsigned w = bench.config.width;
        const std::uint64_t mask = w >= 64 ? ~0ULL : (1ULL << w) - 1;
        for (const auto& sample : samples_) {
            ogis::io_vector in(sample.begin(), sample.begin() + bench.config.num_inputs);
            for (auto& x : in) x &= mask;
            ogis::io_vector want = bench.reference(in);
            for (auto& x : want) x &= mask;
            if (outcome.program->eval(bench.config.library, in) != want) {
                ledger_.fail(name + ": program differs from the reference on a sampled input");
                return;
            }
        }
        ledger_.ok();
    }

    void run_gametime(tracer* tr, layer_sample& l) {
        smt::term_manager tm;
        substrate::engine_config ecfg;
        ecfg.threads = engine_threads();
        substrate::smt_engine engine(tm, ecfg);
        auto t0 = bench_clock::now();
        obs::span s = maybe_span(tr, "gametime", "gametime.extract_basis_paths");
        const gametime::basis_info basis = gametime::extract_basis_paths(*cfg_, engine);
        s.end();
        l["gametime.basis_s"] += seconds_between(t0, bench_clock::now());

        gametime::sarm_platform platform(program_, function_);
        t0 = bench_clock::now();
        s = maybe_span(tr, "gametime", "gametime.learn_timing_model");
        const gametime::timing_model model = gametime::learn_timing_model(basis, platform);
        s.end();
        l["gametime.learn_s"] += seconds_between(t0, bench_clock::now());

        t0 = bench_clock::now();
        s = maybe_span(tr, "gametime", "gametime.predict_wcet");
        const auto wcet = gametime::predict_wcet(*cfg_, model, engine);
        s.end();
        l["gametime.wcet_s"] += seconds_between(t0, bench_clock::now());

        const substrate::engine_stats st = engine.stats();
        l["substrate.cache_hits"] += static_cast<double>(st.cache_hits);
        l["substrate.solver_runs"] += static_cast<double>(st.solver_runs);
        // The worst case of modexp runs every multiply: exponent 0xff.
        ledger_.check(wcet.has_value() && wcet->test_args.size() > 1 &&
                          (wcet->test_args[1] & 0xff) == 255,
                      "gametime: WCET test case does not set every exponent bit");
    }

    void run_invgen(tracer* tr, layer_sample& l) {
        for (std::size_t i = 0; i < counters_.size(); ++i) {
            const counter_case& c = counter_cases[i];
            const auto t0 = bench_clock::now();
            obs::span s = maybe_span(tr, "invgen", "invgen.generate_invariants mod" +
                                                       std::to_string(c.modulus));
            const invgen::invgen_result r = invgen::generate_invariants(counters_[i]);
            s.end();
            l["invgen.s"] += seconds_between(t0, bench_clock::now());
            l["invgen.induction_rounds"] += r.induction_iterations;
            ledger_.check(r.proven.size() == c.proven,
                          "invgen mod" + std::to_string(c.modulus) + ": proved " +
                              std::to_string(r.proven.size()) + " invariants, expected " +
                              std::to_string(c.proven));
        }
    }

    /// Synthesizes the switching logic into `sys`.
    void run_hybrid(hybrid::mds& sys, tracer* tr, layer_sample& l) {
        hybrid::synthesis_config cfg;
        cfg.sim.dt = 2e-3;
        cfg.sim.t_max = 200;
        cfg.sim.min_dwell = dwell_s;
        cfg.learner.grid = {50.0, 0.01};
        cfg.learner.coarse_step = {1000.0, 1.0};
        const auto t0 = bench_clock::now();
        obs::span s = maybe_span(tr, "hybrid", "hybrid.synthesize_switching_logic");
        const hybrid::synthesis_result r = hybrid::synthesize_switching_logic(sys, cfg);
        s.end();
        l["hybrid.s"] += seconds_between(t0, bench_clock::now());
        l["hybrid.simulator_queries"] += static_cast<double>(r.simulator_queries);
        ledger_.check(r.converged, "hybrid: switching-logic synthesis did not converge");
    }

    /// Drives the synthesized logic through the Fig. 10 gear sequence.
    void run_fig10(const hybrid::mds& sys, const hybrid::transmission_params& params, tracer* tr) {
        obs::span s = maybe_span(tr, "hybrid", "hybrid.run_fig10_trace");
        const hybrid::fig10_result trace = hybrid::run_fig10_trace(sys, params, dwell_s);
        s.end();
        ledger_.check(trace.safety_held && trace.reached_goal,
                      "hybrid: synthesized switching logic is not safe");
    }

    static constexpr double dwell_s = 5.0;

    const options& opt_;
    ledger& ledger_;
    ir::program program_;
    ir::function function_;
    std::unique_ptr<ir::cfg> cfg_;
    std::vector<ogis::deobfuscation_benchmark> benches_;
    std::vector<aig::aig> counters_;
    std::vector<std::vector<std::uint64_t>> samples_;
};

}  // namespace

std::unique_ptr<workload> make_app_loops(const options& opt, ledger& led) {
    return std::make_unique<app_loops_workload>(opt, led);
}

}  // namespace perfbench
