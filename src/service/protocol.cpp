#include "service/protocol.hpp"

#include <algorithm>
#include <unordered_map>

namespace sciduction::service {

// ---- primitives -------------------------------------------------------------

void wire_writer::u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void wire_writer::u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void wire_writer::str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes_.insert(bytes_.end(), s.begin(), s.end());
}

void wire_reader::need(std::size_t n) const {
    if (bytes_.size() - pos_ < n) throw wire_error("truncated payload");
}

std::uint8_t wire_reader::u8() {
    need(1);
    return bytes_[pos_++];
}

std::uint32_t wire_reader::u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(bytes_[pos_++]) << (8 * i);
    return v;
}

std::uint64_t wire_reader::u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(bytes_[pos_++]) << (8 * i);
    return v;
}

std::string wire_reader::str() {
    const std::uint32_t len = u32();
    if (len > max_frame_bytes) throw wire_error("string length exceeds frame bound");
    need(len);
    std::string s(reinterpret_cast<const char*>(bytes_.data()) + pos_, len);
    pos_ += len;
    return s;
}

std::vector<std::uint8_t> pack_frame(const frame& f) {
    std::vector<std::uint8_t> out;
    const std::uint32_t len = static_cast<std::uint32_t>(f.payload.size()) + 1;
    out.reserve(4 + len);
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
    out.push_back(static_cast<std::uint8_t>(f.opcode));
    out.insert(out.end(), f.payload.begin(), f.payload.end());
    return out;
}

// ---- term DAG codec ---------------------------------------------------------

namespace {

/// Whether a serialized node of kind `k` carries a u64 payload word
/// (constants, extract bounds, extension widths).
bool has_u64_payload(smt::kind k) {
    switch (k) {
        case smt::kind::const_bool:
        case smt::kind::const_bv:
        case smt::kind::extract:
        case smt::kind::zext:
        case smt::kind::sext: return true;
        default: return false;
    }
}

bool is_var(smt::kind k) { return k == smt::kind::var_bool || k == smt::kind::var_bv; }

/// Postorder over the union DAG of `roots`, assigning dense wire indices.
void encode_dag(const smt::term_manager& tm, const std::vector<smt::term>& roots,
                std::unordered_map<std::uint32_t, std::uint32_t>& index, wire_writer& w) {
    wire_writer nodes;
    std::uint32_t count = 0;
    // Iterative postorder: (term, children-expanded?) pairs.
    std::vector<std::pair<smt::term, bool>> stack;
    for (smt::term r : roots) stack.push_back({r, false});
    while (!stack.empty()) {
        auto [t, expanded] = stack.back();
        stack.pop_back();
        if (index.count(t.id) != 0) continue;
        if (!expanded) {
            stack.push_back({t, true});
            for (smt::term kid : tm.children_of(t)) stack.push_back({kid, false});
            continue;
        }
        const smt::kind k = tm.kind_of(t);
        nodes.u8(static_cast<std::uint8_t>(k));
        nodes.u32(tm.width_of(t));
        const auto& kids = tm.children_of(t);
        nodes.u32(static_cast<std::uint32_t>(kids.size()));
        for (smt::term kid : kids) nodes.u32(index.at(kid.id));
        if (is_var(k))
            nodes.str(tm.var_name(t));
        else if (has_u64_payload(k))
            nodes.u64(tm.payload_of(t));
        index.emplace(t.id, count++);
    }
    w.u32(count);
    for (std::uint8_t b : nodes.bytes()) w.u8(b);
}

/// Rebuilds one serialized node in `tm` from already-decoded children.
smt::term decode_node(smt::term_manager& tm, smt::kind k, unsigned width,
                      const std::vector<smt::term>& kids, bool has_name, const std::string& name,
                      std::uint64_t payload) {
    using smt::kind;
    auto arity = [&](std::size_t n) {
        if (kids.size() != n) throw wire_error("node arity mismatch");
    };
    switch (k) {
        case kind::const_bool: arity(0); return tm.mk_bool_const(payload != 0);
        case kind::const_bv: arity(0); return tm.mk_bv_const(width, payload);
        case kind::var_bool:
            arity(0);
            if (!has_name) throw wire_error("variable without a name");
            return tm.mk_bool_var(name);
        case kind::var_bv:
            arity(0);
            if (!has_name) throw wire_error("variable without a name");
            if (width == 0 || width > 64) throw wire_error("variable width out of range");
            return tm.mk_bv_var(name, width);
        case kind::not_op: arity(1); return tm.mk_not(kids[0]);
        case kind::and_op:
            if (kids.size() < 2) throw wire_error("node arity mismatch");
            return tm.mk_and(kids);
        case kind::or_op:
            if (kids.size() < 2) throw wire_error("node arity mismatch");
            return tm.mk_or(kids);
        case kind::xor_op: arity(2); return tm.mk_xor(kids[0], kids[1]);
        case kind::implies_op: arity(2); return tm.mk_implies(kids[0], kids[1]);
        case kind::iff_op: arity(2); return tm.mk_iff(kids[0], kids[1]);
        case kind::ite_op: arity(3); return tm.mk_ite(kids[0], kids[1], kids[2]);
        case kind::eq_op: arity(2); return tm.mk_eq(kids[0], kids[1]);
        case kind::bvnot: arity(1); return tm.mk_bvnot(kids[0]);
        case kind::bvneg: arity(1); return tm.mk_bvneg(kids[0]);
        case kind::bvand: arity(2); return tm.mk_bvand(kids[0], kids[1]);
        case kind::bvor: arity(2); return tm.mk_bvor(kids[0], kids[1]);
        case kind::bvxor: arity(2); return tm.mk_bvxor(kids[0], kids[1]);
        case kind::bvadd: arity(2); return tm.mk_bvadd(kids[0], kids[1]);
        case kind::bvsub: arity(2); return tm.mk_bvsub(kids[0], kids[1]);
        case kind::bvmul: arity(2); return tm.mk_bvmul(kids[0], kids[1]);
        case kind::bvudiv: arity(2); return tm.mk_bvudiv(kids[0], kids[1]);
        case kind::bvurem: arity(2); return tm.mk_bvurem(kids[0], kids[1]);
        case kind::bvshl: arity(2); return tm.mk_bvshl(kids[0], kids[1]);
        case kind::bvlshr: arity(2); return tm.mk_bvlshr(kids[0], kids[1]);
        case kind::bvashr: arity(2); return tm.mk_bvashr(kids[0], kids[1]);
        case kind::concat: arity(2); return tm.mk_concat(kids[0], kids[1]);
        case kind::extract: {
            arity(1);
            const unsigned hi = static_cast<unsigned>(payload >> 32);
            const unsigned lo = static_cast<unsigned>(payload & 0xffffffffU);
            return tm.mk_extract(kids[0], hi, lo);
        }
        case kind::zext: arity(1); return tm.mk_zext(kids[0], static_cast<unsigned>(payload));
        case kind::sext: arity(1); return tm.mk_sext(kids[0], static_cast<unsigned>(payload));
        case kind::ult: arity(2); return tm.mk_ult(kids[0], kids[1]);
        case kind::ule: arity(2); return tm.mk_ule(kids[0], kids[1]);
        case kind::slt: arity(2); return tm.mk_slt(kids[0], kids[1]);
        case kind::sle: arity(2); return tm.mk_sle(kids[0], kids[1]);
    }
    throw wire_error("unknown term kind");
}

/// Decodes the term block: node list then two root index lists.
void decode_dag(smt::term_manager& tm, wire_reader& r, std::vector<smt::term>& assertions,
                std::vector<smt::term>& assumptions) {
    const std::uint32_t count = r.u32();
    if (count > max_frame_bytes / 8) throw wire_error("node count exceeds frame bound");
    std::vector<smt::term> decoded;
    decoded.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        const auto k = static_cast<smt::kind>(r.u8());
        if (k > smt::kind::sle) throw wire_error("unknown term kind");
        const unsigned width = r.u32();
        if (width > 64) throw wire_error("term width out of range");
        const std::uint32_t n_kids = r.u32();
        if (n_kids > count) throw wire_error("node arity exceeds node count");
        std::vector<smt::term> kids;
        kids.reserve(n_kids);
        for (std::uint32_t j = 0; j < n_kids; ++j) {
            const std::uint32_t idx = r.u32();
            if (idx >= i) throw wire_error("forward child reference");
            kids.push_back(decoded[idx]);
        }
        std::string name;
        std::uint64_t payload = 0;
        const bool named = is_var(k);
        if (named)
            name = r.str();
        else if (has_u64_payload(k))
            payload = r.u64();
        decoded.push_back(decode_node(tm, k, width, kids, named, name, payload));
    }
    auto roots = [&](std::vector<smt::term>& out) {
        const std::uint32_t n = r.u32();
        if (n > count) throw wire_error("root count exceeds node count");
        out.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i) {
            const std::uint32_t idx = r.u32();
            if (idx >= count) throw wire_error("root index out of range");
            out.push_back(decoded[idx]);
        }
    };
    roots(assertions);
    roots(assumptions);
}

// ---- strategy codec ---------------------------------------------------------

// Presence bits of the strategy block's optional fields. Bits 1 (the
// removed sequential-portfolio flag), 4 (the removed sharing block) and 7
// are unassigned: decode rejects them.
constexpr std::uint8_t has_members = 1u << 0;
constexpr std::uint8_t has_depth = 1u << 2;
constexpr std::uint8_t has_probes = 1u << 3;
constexpr std::uint8_t has_use_cache = 1u << 5;
constexpr std::uint8_t has_features = 1u << 6;
constexpr std::uint8_t known_fields =
    has_members | has_depth | has_probes | has_use_cache | has_features;

void encode_strategy(const substrate::strategy& s, wire_writer& w) {
    w.u8(static_cast<std::uint8_t>(s.kind));
    std::uint8_t mask = 0;
    if (s.members) mask |= has_members;
    if (s.depth) mask |= has_depth;
    if (s.probe_candidates) mask |= has_probes;
    if (s.use_cache) mask |= has_use_cache;
    if (s.features) mask |= has_features;
    w.u8(mask);
    if (s.members) w.u32(*s.members);
    if (s.depth) w.u32(*s.depth);
    if (s.probe_candidates) w.u32(*s.probe_candidates);
    if (s.use_cache) w.u8(*s.use_cache ? 1 : 0);
    if (s.features) {
        // One flag byte: bit 0 = reduce, bit 1 = inprocess (room to grow).
        std::uint8_t flags = 0;
        if (s.features->reduce) flags |= 1u;
        if (s.features->inprocess) flags |= 2u;
        w.u8(flags);
    }
    w.u64(s.conflict_budget);
    w.u64(s.slice_conflicts);
    w.u64(s.time_budget_ms);
}

substrate::strategy decode_strategy(wire_reader& r) {
    substrate::strategy s;
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(substrate::strategy_kind::shard))
        throw wire_error("unknown strategy kind");
    s.kind = static_cast<substrate::strategy_kind>(kind);
    const std::uint8_t mask = r.u8();
    if ((mask & ~known_fields) != 0) throw wire_error("unknown strategy field");
    if ((mask & has_members) != 0) s.members = r.u32();
    if ((mask & has_depth) != 0) s.depth = r.u32();
    if ((mask & has_probes) != 0) s.probe_candidates = r.u32();
    if ((mask & has_use_cache) != 0) s.use_cache = r.u8() != 0;
    if ((mask & has_features) != 0) {
        const std::uint8_t flags = r.u8();
        sat::solver_features f;
        f.reduce = (flags & 1u) != 0;
        f.inprocess = (flags & 2u) != 0;
        s.features = f;
    }
    s.conflict_budget = r.u64();
    s.slice_conflicts = r.u64();
    s.time_budget_ms = r.u64();
    return s;
}

}  // namespace

// ---- message codecs ---------------------------------------------------------

std::vector<std::uint8_t> encode_submit(const smt::term_manager& tm, std::uint64_t request_id,
                                        const substrate::solve_request& req) {
    wire_writer w;
    w.u64(request_id);
    std::vector<smt::term> roots;
    roots.reserve(req.assertions.size() + req.assumptions.size());
    roots.insert(roots.end(), req.assertions.begin(), req.assertions.end());
    roots.insert(roots.end(), req.assumptions.begin(), req.assumptions.end());
    std::unordered_map<std::uint32_t, std::uint32_t> index;
    encode_dag(tm, roots, index, w);
    auto emit_roots = [&](const std::vector<smt::term>& ts) {
        w.u32(static_cast<std::uint32_t>(ts.size()));
        for (smt::term t : ts) w.u32(index.at(t.id));
    };
    emit_roots(req.assertions);
    emit_roots(req.assumptions);
    encode_strategy(req.strategy, w);
    return w.take();
}

submit_message decode_submit(smt::term_manager& tm, const std::vector<std::uint8_t>& payload) {
    wire_reader r(payload);
    submit_message msg;
    msg.request_id = r.u64();
    decode_dag(tm, r, msg.request.assertions, msg.request.assumptions);
    msg.request.strategy = decode_strategy(r);
    if (!r.exhausted()) throw wire_error("trailing bytes after submit payload");
    return msg;
}

std::vector<std::uint8_t> encode_result(const smt::term_manager& tm, const result_message& msg,
                                        const smt::env& model) {
    wire_writer w;
    w.u64(msg.request_id);
    w.u8(static_cast<std::uint8_t>(msg.ans));
    w.u8(static_cast<std::uint8_t>(msg.status));
    w.str(msg.status_detail);
    w.u64(msg.conflicts);
    w.u8(msg.cache_hit ? 1 : 0);
    w.u64(msg.finish_seq);
    w.u64(msg.queue_wait_ms);
    w.u64(msg.service_ms);
    // Deterministic binding order: sorted by variable name.
    std::vector<std::pair<smt::term, std::uint64_t>> vars;
    vars.reserve(model.size());
    for (const auto& [id, value] : model) vars.push_back({smt::term{id}, value});
    std::sort(vars.begin(), vars.end(), [&](const auto& a, const auto& b) {
        return tm.var_name(a.first) < tm.var_name(b.first);
    });
    w.u32(static_cast<std::uint32_t>(vars.size()));
    for (const auto& [t, value] : vars) {
        w.str(tm.var_name(t));
        w.u32(tm.width_of(t));
        w.u64(value);
    }
    return w.take();
}

result_message decode_result(const std::vector<std::uint8_t>& payload) {
    wire_reader r(payload);
    result_message msg;
    msg.request_id = r.u64();
    const std::uint8_t ans = r.u8();
    if (ans > static_cast<std::uint8_t>(substrate::answer::unknown))
        throw wire_error("unknown answer value");
    msg.ans = static_cast<substrate::answer>(ans);
    const std::uint8_t status = r.u8();
    if (status > static_cast<std::uint8_t>(substrate::solve_status::internal))
        throw wire_error("unknown status value");
    msg.status = static_cast<substrate::solve_status>(status);
    msg.status_detail = r.str();
    msg.conflicts = r.u64();
    msg.cache_hit = r.u8() != 0;
    msg.finish_seq = r.u64();
    msg.queue_wait_ms = r.u64();
    msg.service_ms = r.u64();
    const std::uint32_t n = r.u32();
    if (n > max_frame_bytes / 16) throw wire_error("binding count exceeds frame bound");
    msg.model.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        result_message::binding b;
        b.name = r.str();
        b.width = r.u32();
        b.value = r.u64();
        msg.model.push_back(std::move(b));
    }
    if (!r.exhausted()) throw wire_error("trailing bytes after result payload");
    return msg;
}

std::vector<std::uint8_t> encode_progress(const progress_message& msg) {
    wire_writer w;
    w.u64(msg.request_id);
    w.u8(msg.known ? 1 : 0);
    w.u8(msg.started ? 1 : 0);
    w.u8(msg.finished ? 1 : 0);
    w.u8(msg.cancel_requested ? 1 : 0);
    w.u64(msg.cubes_total);
    w.u64(msg.cubes_done);
    w.u64(msg.conflicts);
    w.u8(static_cast<std::uint8_t>(msg.strategy));
    return w.take();
}

progress_message decode_progress(const std::vector<std::uint8_t>& payload) {
    wire_reader r(payload);
    progress_message msg;
    msg.request_id = r.u64();
    msg.known = r.u8() != 0;
    msg.started = r.u8() != 0;
    msg.finished = r.u8() != 0;
    msg.cancel_requested = r.u8() != 0;
    msg.cubes_total = r.u64();
    msg.cubes_done = r.u64();
    msg.conflicts = r.u64();
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(substrate::strategy_kind::shard))
        throw wire_error("strategy kind out of range in progress payload");
    msg.strategy = static_cast<substrate::strategy_kind>(kind);
    if (!r.exhausted()) throw wire_error("trailing bytes after progress payload");
    return msg;
}

std::vector<std::uint8_t> encode_stats(const std::map<std::string, std::uint64_t>& counters) {
    wire_writer w;
    w.u32(static_cast<std::uint32_t>(counters.size()));
    for (const auto& [key, value] : counters) {
        w.str(key);
        w.u64(value);
    }
    return w.take();
}

std::map<std::string, std::uint64_t> decode_stats(const std::vector<std::uint8_t>& payload) {
    wire_reader r(payload);
    std::map<std::string, std::uint64_t> counters;
    const std::uint32_t n = r.u32();
    if (n > max_frame_bytes / 12) throw wire_error("counter count exceeds frame bound");
    for (std::uint32_t i = 0; i < n; ++i) {
        std::string key = r.str();
        counters[std::move(key)] = r.u64();
    }
    if (!r.exhausted()) throw wire_error("trailing bytes after stats payload");
    return counters;
}

}  // namespace sciduction::service
