/// \file
/// Wire protocol of sciductiond: length-prefixed binary frames over a
/// unix-domain socket, mapping 1:1 onto the substrate's
/// solve_request/query_handle surface (submit / cancel / progress / stats
/// / drain). See docs/SERVING.md for the frame table and the session
/// lifecycle.
///
/// Framing: every message is `[u32 length LE][u8 opcode][payload]` where
/// `length` counts opcode + payload. Payload integers are little-endian;
/// strings are `u32 length + bytes`. Frames above `max_frame_bytes` are a
/// protocol error (the daemon replies `error` and closes the connection —
/// an unbounded length prefix would let one client balloon the daemon).
///
/// Queries travel as their term DAG in postorder: each node is
/// `(kind u8, width u32, kid count + kid indices, payload)` with kid
/// indices referring to earlier nodes, so the receiver rebuilds the DAG in
/// one forward pass through its own term_manager (hash-consing and
/// constant folding re-apply on the receiving side; semantics, not node
/// identity, is what travels). Satisfying models come back as
/// `(variable name, width, value)` bindings — names, not ids, because the
/// two managers number terms independently.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "smt/term.hpp"
#include "substrate/solve_request.hpp"

namespace sciduction::service {

/// Protocol revision carried in hello/hello_ok; bumped on breaking change.
/// v2: progress_reply carries live conflicts + the resolved strategy, and
/// the trace opcode exports the daemon's span trace as JSON. v3: strategy
/// kinds end at shard, and the strategy block's presence bit 1 (the
/// sequential-portfolio flag) is gone; unknown presence bits are rejected.
/// v4: the strategy block's sharing field (presence bit 4) is gone, and
/// `slice_conflicts` travels as a plain u64 after the conflict budget.
inline constexpr std::uint32_t protocol_version = 4;
/// Hard ceiling on one frame (opcode + payload), requests and replies.
inline constexpr std::uint32_t max_frame_bytes = 4u << 20;

/// Frame opcodes. Requests are < 0x80, replies have the high bit set.
enum class op : std::uint8_t {
    hello = 0x01,     ///< open a tenant session: version, tenant name, weight
    submit = 0x02,    ///< submit one solve_request under a client request id
    cancel = 0x03,    ///< cooperatively cancel an in-flight request
    progress = 0x04,  ///< query_progress snapshot of an in-flight request
    stats = 0x05,     ///< daemon-wide counters as key/value pairs
    drain = 0x06,     ///< drain the daemon (policy: finish or cancel)
    trace = 0x07,     ///< export the daemon's span trace (Chrome JSON)

    hello_ok = 0x81,        ///< session open; payload echoes the version
    submit_ack = 0x82,      ///< request admitted; queue position
    reject = 0x83,          ///< request refused (queue_full / draining)
    result = 0x84,          ///< terminal answer for one request id
    cancel_ack = 0x85,      ///< cancel processed; whether the id was live
    progress_reply = 0x86,  ///< the snapshot
    stats_reply = 0x87,     ///< the counters
    drain_ack = 0x88,       ///< drain complete (daemon exits after sending)
    trace_reply = 0x89,     ///< the trace: one string of trace-event JSON
    error = 0xff,           ///< protocol error; the connection closes
};

/// Why a submit was refused at admission (reject frames).
enum class reject_reason : std::uint8_t {
    queue_full = 1,  ///< the tenant's bounded queue is at capacity
    draining = 2,    ///< the daemon no longer admits work
    protocol = 3,    ///< the submit payload failed to decode
};

/// Drain discipline requested by a drain frame (and by SIGTERM, which
/// drains with `finish`).
enum class drain_policy : std::uint8_t {
    finish = 0,  ///< stop admitting, let in-flight solves complete
    cancel = 1,  ///< stop admitting, cooperatively cancel in-flight solves
};

/// Raised by the decoding layer on malformed bytes (truncated payload,
/// out-of-range index, unknown enum value). The daemon catches it at the
/// frame boundary and answers with an `error` frame; it never crashes on
/// client bytes.
struct wire_error : std::runtime_error {
    using std::runtime_error::runtime_error;
};

/// One parsed frame.
struct frame {
    op opcode{};                        ///< what the frame means
    std::vector<std::uint8_t> payload;  ///< opcode-specific body
};

// ---- primitive codec --------------------------------------------------------

/// Append-only little-endian encoder over a byte vector.
class wire_writer {
public:
    void u8(std::uint8_t v) { bytes_.push_back(v); }  ///< one byte
    void u32(std::uint32_t v);                        ///< 4 bytes LE
    void u64(std::uint64_t v);                        ///< 8 bytes LE
    void str(const std::string& s);                   ///< u32 length + bytes

    /// The bytes written so far.
    [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return bytes_; }
    /// Moves the bytes out (the writer is then empty).
    [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(bytes_); }

private:
    std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked little-endian decoder; throws wire_error on underrun.
class wire_reader {
public:
    /// Reads from `bytes`, which must outlive the reader.
    explicit wire_reader(const std::vector<std::uint8_t>& bytes) : bytes_(bytes) {}

    std::uint8_t u8();    ///< one byte
    std::uint32_t u32();  ///< 4 bytes LE
    std::uint64_t u64();  ///< 8 bytes LE
    std::string str();    ///< u32 length + bytes
    /// All payload bytes consumed (trailing garbage is a protocol error).
    [[nodiscard]] bool exhausted() const { return pos_ == bytes_.size(); }

private:
    void need(std::size_t n) const;
    const std::vector<std::uint8_t>& bytes_;
    std::size_t pos_ = 0;
};

/// Serializes `f` as one length-prefixed frame ready for write().
std::vector<std::uint8_t> pack_frame(const frame& f);

// ---- message payloads -------------------------------------------------------

/// A decoded submit frame: the client-chosen id plus the request rebuilt
/// against the *receiving* term_manager.
struct submit_message {
    std::uint64_t request_id = 0;      ///< client-chosen, unique per session
    substrate::solve_request request;  ///< terms live in the decoder's manager
};

/// A decoded result frame — the daemon-side view of one completed
/// request: the verdict plus the serving metadata (deterministic global
/// completion order and queue/service timings) the fairness tests and
/// dashboards consume.
struct result_message {
    std::uint64_t request_id = 0;                                 ///< echoes the submit's id
    substrate::answer ans = substrate::answer::unknown;           ///< sat / unsat / unknown
    substrate::solve_status status = substrate::solve_status::ok; ///< why unknown, if unknown
    std::string status_detail;                                    ///< human-readable status note
    std::uint64_t conflicts = 0;                                  ///< solver conflicts spent
    bool cache_hit = false;  ///< answered from the daemon's shared cache
    /// Global monotone completion index assigned by the daemon's reaper —
    /// request A observed to finish before B iff A.finish_seq < B.finish_seq.
    std::uint64_t finish_seq = 0;
    std::uint64_t queue_wait_ms = 0;  ///< admission -> dispatch
    std::uint64_t service_ms = 0;     ///< dispatch -> completion
    /// Satisfying model as (variable name, width, value); width 0 = bool.
    struct binding {
        std::string name;         ///< variable name in the submitting manager
        std::uint32_t width = 0;  ///< bit-vector width; 0 = boolean
        std::uint64_t value = 0;  ///< assigned value (bool: 0/1)
    };
    std::vector<binding> model;  ///< empty unless ans == sat
};

/// A decoded progress_reply frame.
struct progress_message {
    std::uint64_t request_id = 0;  ///< echoes the progress request's id
    bool known = false;  ///< the id names a live (not yet reaped) request
    bool started = false;           ///< a worker has begun solving
    bool finished = false;          ///< the result is ready to reap
    bool cancel_requested = false;  ///< a cooperative cancel is pending
    std::uint64_t cubes_total = 0;  ///< shard cubes planned (0 = not sharded)
    std::uint64_t cubes_done = 0;   ///< shard cubes settled so far
    /// Live solver conflicts spent so far (restart-boundary sampled) — the
    /// effort gauge that tells a client *why* a request is slow.
    std::uint64_t conflicts = 0;
    /// The resolved strategy kind driving the solve (`automatic` until
    /// classification has run).
    substrate::strategy_kind strategy = substrate::strategy_kind::automatic;
};

// ---- term / request codec ---------------------------------------------------

/// Encodes a submit frame payload: request id, the union term DAG of
/// assertions and assumptions (postorder), root index lists, and the
/// strategy block.
std::vector<std::uint8_t> encode_submit(const smt::term_manager& tm, std::uint64_t request_id,
                                        const substrate::solve_request& req);

/// Decodes a submit payload, materializing the terms in `tm`. Throws
/// wire_error on malformed bytes. Term *creation* happens here — the
/// daemon only calls this for a tenant with no in-flight solves (the
/// decode barrier; see server.hpp).
submit_message decode_submit(smt::term_manager& tm, const std::vector<std::uint8_t>& payload);

/// Encodes a result frame payload; model bindings are rendered through
/// the manager the solve ran against.
std::vector<std::uint8_t> encode_result(const smt::term_manager& tm, const result_message& msg,
                                        const smt::env& model);

/// Decodes a result payload (bindings arrive in `result_message::model`).
result_message decode_result(const std::vector<std::uint8_t>& payload);

/// Encodes / decodes a progress_reply payload.
std::vector<std::uint8_t> encode_progress(const progress_message& msg);
progress_message decode_progress(const std::vector<std::uint8_t>& payload);

/// Encodes / decodes a stats_reply payload (sorted key -> counter).
std::vector<std::uint8_t> encode_stats(const std::map<std::string, std::uint64_t>& counters);
std::map<std::string, std::uint64_t> decode_stats(const std::vector<std::uint8_t>& payload);

}  // namespace sciduction::service
