/// \file
/// Shared helpers for tests exercising the engine through the request
/// surface: the recurring call shapes (single solve, submit-many then
/// await-all, cube-and-conquer with a stats out-param) over
/// smt_engine::solve / smt_engine::submit, so the per-test expectations
/// about counters and strategies stay explicit at the call sites.
#pragma once

#include "substrate/engine.hpp"

namespace sciduction::substrate {

/// Synchronous single-strategy solve. Runs inline on the calling thread.
inline backend_result solve_single(smt_engine& engine, std::vector<smt::term> assertions,
                                   std::vector<smt::term> assumptions = {}) {
    return engine.solve({std::move(assertions), std::move(assumptions), strategy::single()});
}

/// Submit-many then await-all, results in request order.
inline std::vector<backend_result> solve_batch(smt_engine& engine,
                                               const std::vector<solve_request>& requests) {
    std::vector<query_handle> handles;
    handles.reserve(requests.size());
    for (const solve_request& req : requests) handles.push_back(engine.submit(req));
    std::vector<backend_result> results;
    results.reserve(handles.size());
    for (query_handle& h : handles) results.push_back(h.get());
    return results;
}

/// Solve with a shard strategy of the given explicit `depth` (depth 0
/// normalizes to a single solve), optionally reporting the shard work
/// breakdown.
inline backend_result solve_sharded(smt_engine& engine, std::vector<smt::term> assertions,
                                    unsigned depth, shard_stats* stats = nullptr) {
    strategy s = strategy::shard();
    s.depth = depth;
    query_handle handle = engine.submit({std::move(assertions), {}, s});
    backend_result result = handle.get();
    if (stats != nullptr) *stats = handle.stats().shard;
    return result;
}

/// Submit with the single strategy; await the handle.
inline query_handle submit_single(smt_engine& engine, std::vector<smt::term> assertions) {
    return engine.submit({std::move(assertions), {}, strategy::single()});
}

}  // namespace sciduction::substrate
