#include "hybrid/learner.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "substrate/oracle_cache.hpp"

namespace sciduction::hybrid {

namespace {

double snap(double v, double grid) { return std::round(v / grid) * grid; }

}  // namespace

std::optional<state> find_seed(const box& over, const label_fn& label,
                               const learner_config& cfg, learner_stats& stats) {
    if (over.empty()) return std::nullopt;
    const std::size_t n = over.dim();
    state center = over.center();
    for (std::size_t d = 0; d < n; ++d) {
        // Unconstrained dimensions: anchor the seed at a finite point.
        if (!std::isfinite(center[d])) {
            if (std::isfinite(over.lo[d])) center[d] = over.lo[d];
            else if (std::isfinite(over.hi[d])) center[d] = over.hi[d];
            else center[d] = 0.0;
        }
        center[d] = snap(center[d], cfg.grid[d]);
    }

    // Candidate probe points in scan order — the centre, then the star
    // pattern walking outward along each axis with geometrically-refined
    // strides. Pure geometry (oracle-free), so the sequence is enumerated
    // up front.
    std::vector<state> points{center};
    const std::size_t point_cap = static_cast<std::size_t>(std::max(cfg.max_seed_probes, 0)) + 1;
    for (int pass = 1; pass <= 4 && points.size() < point_cap; ++pass) {
        for (std::size_t d = 0; d < n && points.size() < point_cap; ++d) {
            double span = over.hi[d] - over.lo[d];
            if (!std::isfinite(span)) continue;  // unconstrained: centre anchor suffices
            if (span <= 0) continue;
            double stride = span / std::pow(2.0, pass + 1);
            if (stride < cfg.grid[d]) stride = cfg.grid[d];
            for (double off = stride; off <= span / 2 + 1e-12 && points.size() < point_cap;
                 off += stride) {
                for (double sign : {+1.0, -1.0}) {
                    if (points.size() >= point_cap) break;
                    state x = center;
                    x[d] = snap(center[d] + sign * off, cfg.grid[d]);
                    if (x[d] < over.lo[d] - 1e-12 || x[d] > over.hi[d] + 1e-12) continue;
                    points.push_back(std::move(x));
                }
            }
        }
    }

    // The scan consumes the sequence in order and stops at the first
    // positive.
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (i > 0 && static_cast<int>(stats.seed_probes) >= cfg.max_seed_probes)
            return std::nullopt;
        ++stats.seed_probes;
        ++stats.queries;
        if (label(points[i])) return points[i];
    }
    return std::nullopt;
}

box learn_box(const box& over, const state& seed, const label_fn& label,
              const learner_config& cfg, learner_stats& stats) {
    const std::size_t n = over.dim();
    box result;
    result.lo.resize(n);
    result.hi.resize(n);

    auto query = [&](state x, std::size_t d, double v) {
        x[d] = v;
        ++stats.queries;
        return label(x);
    };

    // Per dimension and direction: walk outward from the seed at the coarse
    // stride until the label flips to negative (or the box edge is reached),
    // then bisect the positive/negative boundary down to the grid. This
    // finds the corner of the positive box containing the seed.
    for (std::size_t d = 0; d < n; ++d) {
        const double g = cfg.grid[d];
        const double stride =
            d < cfg.coarse_step.size() && cfg.coarse_step[d] > 0 ? cfg.coarse_step[d] : 100 * g;
        // Dimensions the guard does not constrain are left untouched: the
        // structure hypothesis only restricts the constrained coordinates.
        if (!std::isfinite(over.lo[d]) && !std::isfinite(over.hi[d])) {
            result.lo[d] = over.lo[d];
            result.hi[d] = over.hi[d];
            continue;
        }
        for (int dir : {-1, +1}) {
            const double edge = snap(dir < 0 ? over.lo[d] : over.hi[d], g);
            double pos = seed[d];
            double neg = 0;
            bool found_neg = false;
            int scan_guard = 0;
            for (double v = seed[d] + dir * stride;; v += dir * stride) {
                bool at_edge = dir < 0 ? v <= edge : v >= edge;  // never for infinite edges
                double probe = at_edge ? edge : snap(v, g);
                if (query(seed, d, probe)) {
                    pos = probe;
                    if (at_edge) break;
                } else {
                    neg = probe;
                    found_neg = true;
                    break;
                }
                if (++scan_guard > 100000)
                    throw std::runtime_error("learn_box: unbounded positive scan "
                                             "(one-sided unconstrained dimension?)");
            }
            double corner = pos;
            if (found_neg) {
                while (std::abs(neg - pos) > g * 1.5) {
                    double mid = snap(pos + (neg - pos) / 2, g);
                    if (mid == pos || mid == neg) break;
                    if (query(seed, d, mid)) pos = mid;
                    else neg = mid;
                }
                corner = pos;
            }
            (dir < 0 ? result.lo[d] : result.hi[d]) = corner;
        }
    }
    return result;
}

box learn_guard(const box& over, const label_fn& label, const learner_config& cfg,
                learner_stats& stats) {
    if (cfg.grid.size() != over.dim())
        throw std::invalid_argument("learn_guard: grid/box dimension mismatch");
    // Route membership queries through a substrate oracle cache scoped to
    // this call (the oracle's semantics are fixed within one learn_guard).
    substrate::oracle_cache<state, bool, substrate::byte_vector_hash> cache;
    label_fn cached = [&](const state& x) {
        return cache.get_or_compute(x, [&](const state& key) {
            ++stats.oracle_calls;
            return label(key);
        });
    };
    box result;
    auto seed = find_seed(over, cached, cfg, stats);
    if (!seed) result = box::empty_box(over.dim());
    else result = learn_box(over, *seed, cached, cfg, stats);
    stats.cache_hits += cache.stats().hits;
    return result;
}

}  // namespace sciduction::hybrid
