// corpus: every checked-in scenario of corpus/, decided in-process the way
// sciduction_run decides it (strategy single, cache off, one instance at a
// time) and diffed against its .expected golden. The seed shuffles the
// order only. CDCL does almost all the work here.
#include <filesystem>
#include <fstream>
#include <sstream>

#include "instances.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

struct scenario {
    std::string name;
    bool cnf = false;
    std::string text;
    std::string expected;  // the golden's `s ` lines, newline-joined
};

std::string slurp(const std::filesystem::path& p) {
    std::ifstream in(p, std::ios::binary);
    if (!in) throw std::runtime_error("cannot read " + p.string());
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

std::string s_lines(const std::string& text) {
    std::istringstream in(text);
    std::string line;
    std::string out;
    while (std::getline(in, line))
        if (line.rfind("s ", 0) == 0) out += line + "\n";
    return out;
}

class corpus_workload final : public workload {
public:
    corpus_workload(const options& opt, ledger& led) : opt_(opt), ledger_(led) {}

    void setup() override {
        std::vector<scenario> found;
        for (const auto& entry : std::filesystem::directory_iterator(opt_.corpus_dir)) {
            const std::filesystem::path p = entry.path();
            const std::string ext = p.extension().string();
            if (ext != ".cnf" && ext != ".smt2") continue;
            scenario s;
            s.name = p.filename().string();
            s.cnf = ext == ".cnf";
            s.text = slurp(p);
            s.expected = s_lines(slurp(p.string() + ".expected"));
            found.push_back(std::move(s));
        }
        if (found.empty()) throw std::runtime_error("no scenarios in " + opt_.corpus_dir);
        std::sort(found.begin(), found.end(),
                  [](const scenario& a, const scenario& b) { return a.name < b.name; });
        sciduction::util::rng r(opt_.seed);
        for (std::size_t i = found.size(); i > 1; --i)
            std::swap(found[i - 1], found[r.next_below(i)]);
        scenarios_ = std::move(found);
    }

    pass_outcome run_pass(std::uint64_t, tracer* tr) override {
        pass_outcome out;
        layer_sample* layers = tr != nullptr ? &out.layers : nullptr;
        double replay_s = 0;
        const auto start = bench_clock::now();
        for (const scenario& s : scenarios_) {
            const auto t0 = bench_clock::now();
            obs::span op = maybe_span(tr, "workload", s.name);
            const double before = layers != nullptr ? layer_value(*layers, "bench.replay_ms") : 0;
            const verdict v = s.cnf ? decide_cnf(s.text, tr, layers) : decide_smt2(s.text, tr, layers);
            op.end();
            const double replay =
                layers != nullptr ? (layer_value(*layers, "bench.replay_ms") - before) / 1e3 : 0;
            replay_s += replay;
            out.op_ms.push_back(ms_since(t0) - 1e3 * replay);
            std::string got = std::string("s ") + verdict_name(v.ans) + "\n";
            if (v.ans == sciduction::substrate::answer::sat && v.error.empty())
                got += "s MODEL-VERIFIED\n";
            if (!v.error.empty())
                ledger_.fail(s.name + ": " + v.error);
            else
                ledger_.check(got == s.expected, s.name + ": got " + got + " expected " + s.expected);
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
    std::vector<scenario> scenarios_;
};

}  // namespace

std::unique_ptr<workload> make_corpus(const options& opt, ledger& led) {
    return std::make_unique<corpus_workload>(opt, led);
}

}  // namespace perfbench
