/// \file
/// Lock-light span tracer recording the full life of a request — submit,
/// strategy resolve, cache lookup, queue wait, dispatch, per-member /
/// per-cube-pair solve slices, result — exported as Chrome trace-event
/// JSON (load it at https://ui.perfetto.dev).
///
/// Design contract: tracing only *observes*. Spans read the wall clock and
/// append to a bounded buffer; they never gate, delay, or reorder solver
/// work, so the deterministic disciplines (budgeted portfolio and shard
/// rounds) stay bit-identical with tracing enabled (pinned by
/// tests/obs_test.cpp). Events carry both wall-clock timestamps and
/// *logical* annotations (request id, finish_seq, member /
/// pair / round numbers) as args, so traces from deterministic runs can be
/// compared on logical time even though wall time differs.
///
/// The collector is sharded by thread to keep the record path to one
/// short-held mutex with no contention in the common case, and bounded:
/// past `capacity` events it counts drops instead of growing (a daemon
/// must be able to leave tracing on forever). See docs/OBSERVABILITY.md.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "substrate/annotations.hpp"

namespace sciduction::obs {

/// One completed span: a named interval on a track, with u64 args.
struct trace_event {
    std::string name;           ///< span name ("solve", "member#2", ...)
    std::uint32_t track = 0;    ///< track id from register_track (tid in the JSON)
    std::uint64_t start_us = 0; ///< start, microseconds since the collector epoch
    std::uint64_t dur_us = 0;   ///< duration in microseconds
    /// Logical annotations (request id, finish_seq, member/pair/round).
    std::vector<std::pair<std::string, std::uint64_t>> args;
};

/// Bounded, sharded collector of trace events. All methods are
/// thread-safe; record() takes one uncontended mutex (per-thread shard)
/// and never allocates past the capacity bound.
class trace_collector {
public:
    /// `capacity` bounds the events retained (further records are counted
    /// in dropped(), never stored).
    explicit trace_collector(std::size_t capacity = 16384);

    /// Registers a named track (one horizontal lane in the viewer; the
    /// daemon opens one per tenant) and returns its id. Track 0 always
    /// exists as "main".
    std::uint32_t register_track(const std::string& name);

    /// Microseconds elapsed since the collector was constructed — the
    /// timebase of every recorded span.
    [[nodiscard]] std::uint64_t now_us() const;

    /// Records one completed span (dropped silently past capacity).
    void record(trace_event ev);

    /// Events recorded but not retained (capacity exceeded).
    [[nodiscard]] std::uint64_t dropped() const {
        return dropped_.load(std::memory_order_relaxed);
    }

    /// Snapshot of every retained event, sorted by (start, duration desc)
    /// so enclosing spans precede their children — the order tests assert
    /// balance on.
    [[nodiscard]] std::vector<trace_event> events() const;

    /// Snapshot of the registered track names, indexed by track id.
    [[nodiscard]] std::vector<std::string> track_names() const;

    /// Renders the retained events as Chrome trace-event JSON ("X"
    /// complete events plus "M" thread_name metadata per track), loadable
    /// in Perfetto / chrome://tracing.
    [[nodiscard]] std::string to_json() const;

private:
    static constexpr std::size_t shard_count = 8;
    struct shard {
        mutable sd::mutex mutex;
        std::vector<trace_event> events SD_GUARDED_BY(mutex);
    };
    shard& shard_for_this_thread();

    std::chrono::steady_clock::time_point epoch_;
    std::size_t shard_capacity_;
    std::array<shard, shard_count> shards_;
    std::atomic<std::uint64_t> dropped_{0};
    // Tracks are read on every to_json/track_names but only written by the
    // (rare) register_track — a reader-writer split.
    mutable sd::shared_mutex tracks_mutex_;
    std::vector<std::string> tracks_ SD_GUARDED_BY(tracks_mutex_);
};

/// RAII span: construct at the start of the interval, end() (or destroy)
/// at the end; args added in between ride along. A null collector makes
/// every operation a no-op — the zero-cost-when-disabled path callers rely
/// on. Movable, not copyable.
class span {
public:
    /// An inert span (no collector).
    span() = default;
    /// Starts a span named `name` on `track` of `c` (nullptr = inert).
    span(trace_collector* c, std::uint32_t track, std::string name);
    /// Ends the span if still open.
    ~span() { end(); }

    span(const span&) = delete;             ///< non-copyable (single owner)
    span& operator=(const span&) = delete;  ///< non-copyable
    /// Transfers the open interval; `other` becomes inert.
    span(span&& other) noexcept;
    /// Ends any open interval, then transfers from `other`.
    span& operator=(span&& other) noexcept;

    /// Attaches a logical annotation (no-op when inert).
    void arg(std::string key, std::uint64_t value);
    /// Closes the interval and records the event (idempotent).
    void end();

private:
    trace_collector* collector_ = nullptr;
    trace_event event_{};
};

}  // namespace sciduction::obs
