// Structured event tracing for simulation runs.
//
// Every interesting protocol action — RPC send/reply/retransmit/timeout,
// cache hit/miss/write-back, delegation grant/recall/release/expiry,
// invalidation-buffer append/poll/wrap/force-invalidate, node crash and
// recovery — is recorded as a fixed-size typed event (tagged-union payload)
// in a bounded per-run ring buffer, stamped with the simulation clock.
//
// The producer side is a nullable `Tracer` value handle threaded through
// net::Network, rpc::RpcNode and the gvfs proxy layers; when no buffer is
// attached every record call is a no-op (benches default to tracing off).
// Consumers replay the buffer: exporters (export.h) render Chrome
// trace-event JSON and a human-readable timeline; the TraceChecker
// (checker.h) asserts protocol invariants over the stream.
//
// This header is also the one owner of the event schema. FamilyOf maps each
// type to its payload family, and VisitPayload lists each family's fields:
// name, order and kind. The .gvfsdump codec, the Chrome `args` object and
// the doctor's Chrome reader are all built from those two (export.h), so a
// new event type takes an enum row, an EventTypeName case and a FamilyOf
// case, and a new payload field takes one VisitPayload line.
//
// This library is a leaf: it depends only on gvfs_common, so any layer
// (net, rpc, gvfs) can record events without include cycles. File handles
// are therefore carried as raw (fsid, ino) pairs rather than nfs3::Fh.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"

namespace gvfs::trace {

enum class EventType : std::uint8_t {
  // RPC layer (rpc::RpcNode).
  kRpcSend,        // first transmission of a call
  kRpcRetransmit,  // timeout-driven retransmission of the same xid
  kRpcReply,       // caller matched a reply to a pending call
  kRpcTimeout,     // caller gave up after all retransmissions
  kRpcExec,         // server began executing a handler (post-DRC)
  kRpcHandlerDone,  // server handler produced its reply body
  kRpcDrcHit,       // server resent a cached reply instead of re-executing
  // Network layer (net::Network).
  kNetDrop,  // packet dropped on a downed or missing link
  // Proxy disk cache (gvfs::proxy::ProxyClient).
  kCacheHit,        // request served from the local cache
  kCacheMiss,       // entry (re)validated from an upstream reply
  kCacheWriteBack,  // one dirty block written upstream
  // Delegations (§4.3). Server-side bookkeeping events carry
  // kDelegFlagServerSide; client-side recall/release events do not.
  kDelegGrant,    // delegation granted (server) / grant stored (client)
  kDelegRecall,   // recall issued (server) / CALLBACK received (client)
  kDelegRelease,  // delegation revoked (server) / CALLBACK replied (client)
  kDelegExpiry,   // server expired a speculatively-open sharer
  // Invalidation polling (§4.2).
  kInvAppend,  // server appended a handle to a client's buffer
  kInvPoll,    // GETINV served (server) / invalidation applied (client)
  kInvWrap,    // incremental stream broken (overflow / upstream force);
               // the affected client owes a whole-cache invalidation
  kInvForce,   // whole-cache invalidation (overflow, bootstrap, recovery)
  // GETINV aggregation tier (src/fleet). Per upstream handle the aggregator
  // emits one kAggFanout per registered downstream client FOLLOWED by one
  // kAggIngest, so a single-pass checker can prove no client was skipped.
  kAggFanout,   // aggregator appended a handle to one downstream buffer
  kAggIngest,   // aggregator absorbed one upstream handle (post-fanout)
  kAggDeliver,  // aggregator handed one buffered handle to a downstream poll
  kAggServe,    // aggregator served one downstream GETINV batch
  // Node lifecycle.
  kNodeCrash,
  kNodeRecover,
  // Adaptive consistency (src/policy). Decisions are client-side engine
  // events; migrations are recorded on both ends of the MIGRATE handshake
  // (server side carries kPolicyFlagServerSide).
  kPolicyDecide,   // engine classified a file and chose a target mode
  kPolicyMigrate,  // MIGRATE completed (client) / served (server)
  // Diagnosis layer (src/obs). An online anomaly detector crossed its
  // threshold; the payload names the detector kind (obs::AnomalyKind), the
  // observed value and the threshold it exceeded. File-scoped detectors
  // (migration flap) carry the offending handle; fleet-scoped ones leave
  // fsid/ino zero.
  kAnomaly,
};

const char* EventTypeName(EventType type);

/// Inverse of EventTypeName over every enumerator; false for an unknown name.
bool EventTypeFromName(const std::string& name, EventType* out);

/// Which member of Event::u an event type carries.
enum class Family : std::uint8_t {
  kRpc, kNet, kCache, kDeleg, kInv, kPolicy, kAnomaly, kNode
};

/// The only map from event type to payload family.
Family FamilyOf(EventType type);

// DelegPayload::flags bits.
constexpr std::uint32_t kDelegFlagServerSide = 1;   // recorded by the server
constexpr std::uint32_t kDelegFlagHasWanted = 2;    // wanted_offset is valid
constexpr std::uint32_t kDelegFlagWantedDirty = 4;  // wanted block was dirty

// PolicyPayload::flags bits.
constexpr std::uint32_t kPolicyFlagServerSide = 1;  // recorded by the server
constexpr std::uint32_t kPolicyFlagFrozen = 2;      // storm breaker active

/// Sentinel for cache events without a byte offset (attribute-level ops).
constexpr std::uint64_t kNoOffset = ~0ull;

/// Causal-span identity carried in RPC call headers (Dapper-style). A call's
/// span covers its full client-observed lifetime; the handler executes inside
/// the caller's span, and any RPCs the handler issues become child spans via
/// CallOptions::parent. trace_id names the whole tree (the root call's
/// span_id). Trivially copyable on purpose: it is passed by value into
/// coroutines.
struct SpanRef {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;

  bool valid() const { return span_id != 0; }
};

struct RpcPayload {
  std::uint32_t peer_host = 0;  // other endpoint of the call
  std::uint32_t peer_port = 0;
  std::uint32_t xid = 0;
  std::uint32_t prog = 0;
  std::uint32_t proc = 0;
  std::uint16_t label = 0;  // interned procedure label
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
};

struct NetPayload {
  std::uint32_t dst_host = 0;
  std::uint32_t wire_size = 0;
};

struct CachePayload {
  std::uint64_t fsid = 0;
  std::uint64_t ino = 0;
  std::uint64_t offset = kNoOffset;  // byte offset for block-level events
  std::uint16_t label = 0;           // interned procedure label ("" if n/a)
};

struct DelegPayload {
  std::uint64_t fsid = 0;
  std::uint64_t ino = 0;
  std::uint64_t wanted_offset = 0;  // valid iff kDelegFlagHasWanted
  std::uint32_t deleg_type = 0;     // proxy::DelegationType as integer
  std::uint32_t peer_host = 0;      // grantee (server side) / server (client)
  std::uint32_t flags = 0;
};

struct InvPayload {
  std::uint64_t fsid = 0;
  std::uint64_t ino = 0;
  std::uint64_t timestamp = 0;  // logical invalidation clock
  std::uint32_t count = 0;      // buffer depth / handles in batch
  std::uint32_t peer_host = 0;
};

struct PolicyPayload {
  std::uint64_t fsid = 0;
  std::uint64_t ino = 0;
  std::uint32_t from = 0;  // policy::FileMode before the decision/migration
  std::uint32_t to = 0;    // policy::FileMode after
  std::uint32_t flags = 0;
};

struct AnomalyPayload {
  std::uint64_t fsid = 0;  // offending file for file-scoped detectors
  std::uint64_t ino = 0;
  std::uint32_t kind = 0;  // obs::AnomalyKind as integer
  std::uint32_t reserved = 0;
  double value = 0;      // observed measurement that fired the detector
  double threshold = 0;  // configured limit it crossed
};

struct Event {
  SimTime time = 0;
  EventType type = EventType::kRpcSend;
  HostId host = kInvalidHost;  // recording host
  std::uint32_t port = 0;      // recording node's port (0 when n/a)
  union Payload {
    RpcPayload rpc;
    NetPayload net;
    CachePayload cache;
    DelegPayload deleg;
    InvPayload inv;
    PolicyPayload policy;
    AnomalyPayload anomaly;
    Payload() : rpc() {}
  } u;
};

namespace detail {
template <typename P>
const P& ActivePayload(const P& p) {
  return p;
}
template <typename P>
P& ActivePayload(P& p) {
  return p = P{};
}
}  // namespace detail

/// Calls `visit(name, field)` for each payload field of `ev`'s family, in
/// the order every encoding writes them. `E` is Event or const Event, and
/// `field` is a reference of the matching constness. A field's kind is its
/// type: std::uint32_t and std::uint64_t are integers, double is a real, and
/// std::uint16_t is an interned label id, whose text is what leaves the
/// buffer. On a mutable event the family's payload is reset to its defaults
/// first, so a field the visitor leaves alone keeps its default.
template <typename E, typename Visit>
void VisitPayload(E& ev, Visit&& visit) {
  auto& u = ev.u;
  switch (FamilyOf(ev.type)) {
    case Family::kRpc: {
      auto& p = detail::ActivePayload(u.rpc);
      visit("peer_host", p.peer_host);
      visit("peer_port", p.peer_port);
      visit("xid", p.xid);
      visit("prog", p.prog);
      visit("proc", p.proc);
      visit("label", p.label);
      visit("trace_id", p.trace_id);
      visit("span_id", p.span_id);
      visit("parent_span_id", p.parent_span_id);
      return;
    }
    case Family::kNet: {
      auto& p = detail::ActivePayload(u.net);
      visit("dst_host", p.dst_host);
      visit("wire_size", p.wire_size);
      return;
    }
    case Family::kCache: {
      auto& p = detail::ActivePayload(u.cache);
      visit("fsid", p.fsid);
      visit("ino", p.ino);
      visit("offset", p.offset);
      visit("op", p.label);
      return;
    }
    case Family::kDeleg: {
      auto& p = detail::ActivePayload(u.deleg);
      visit("fsid", p.fsid);
      visit("ino", p.ino);
      visit("wanted_offset", p.wanted_offset);
      visit("deleg_type", p.deleg_type);
      visit("peer_host", p.peer_host);
      visit("flags", p.flags);
      return;
    }
    case Family::kInv: {
      auto& p = detail::ActivePayload(u.inv);
      visit("fsid", p.fsid);
      visit("ino", p.ino);
      visit("timestamp", p.timestamp);
      visit("count", p.count);
      visit("peer_host", p.peer_host);
      return;
    }
    case Family::kPolicy: {
      auto& p = detail::ActivePayload(u.policy);
      visit("fsid", p.fsid);
      visit("ino", p.ino);
      visit("from", p.from);
      visit("to", p.to);
      visit("flags", p.flags);
      return;
    }
    case Family::kAnomaly: {
      auto& p = detail::ActivePayload(u.anomaly);
      visit("fsid", p.fsid);
      visit("ino", p.ino);
      visit("kind", p.kind);
      visit("value", p.value);
      visit("threshold", p.threshold);
      return;
    }
    case Family::kNode:
      return;
  }
}

/// The file an event belongs to: the (fsid, ino) its payload names, when
/// that handle is nonzero. Whole-cache events and families without a handle
/// belong to no file.
bool FileOf(const Event& ev, std::uint64_t* fsid, std::uint64_t* ino);

/// "fsid:ino", the one spelling of a file handle in reports and timelines.
std::string FhString(std::uint64_t fsid, std::uint64_t ino);

/// Bounded ring buffer of events plus the label intern table. When full, the
/// oldest events are overwritten and `dropped()` counts the overwrites, so a
/// consumer can tell whether it is looking at a complete run.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity = 1 << 20);

  void Push(const Event& event);

  /// Interns a label string, returning its stable id (0 is always "").
  std::uint16_t InternLabel(const std::string& label);
  const std::string& LabelName(std::uint16_t id) const;

  /// Events currently held, oldest first.
  std::size_t size() const { return ring_.size(); }
  const Event& at(std::size_t i) const;

  std::uint64_t recorded() const { return recorded_; }
  std::uint64_t dropped() const { return dropped_; }
  std::size_t capacity() const { return capacity_; }

  void Clear();

 private:
  std::size_t capacity_;
  std::vector<Event> ring_;
  std::size_t head_ = 0;  // index of the oldest event once the ring is full
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;

  std::vector<std::string> labels_;
  std::map<std::string, std::uint16_t> label_ids_;
};

/// Cheap copyable handle held by instrumented components. A default-
/// constructed Tracer is disabled and records nothing.
class Tracer {
 public:
  Tracer() = default;
  Tracer(TraceBuffer* buffer, const SimTime* clock)
      : buffer_(buffer), clock_(clock) {}

  bool enabled() const { return buffer_ != nullptr; }
  TraceBuffer* buffer() const { return buffer_; }

  void Rpc(EventType type, HostId host, std::uint32_t port, HostId peer_host,
           std::uint32_t peer_port, std::uint32_t xid, std::uint32_t prog,
           std::uint32_t proc, const std::string& label,
           std::uint64_t trace_id = 0, std::uint64_t span_id = 0,
           std::uint64_t parent_span_id = 0) const;
  void NetDrop(HostId src, HostId dst, std::size_t wire_size) const;
  void Cache(EventType type, HostId host, std::uint64_t fsid, std::uint64_t ino,
             std::uint64_t offset, const std::string& label) const;
  void Deleg(EventType type, HostId host, std::uint64_t fsid, std::uint64_t ino,
             std::uint32_t deleg_type, HostId peer_host, std::uint32_t flags,
             std::uint64_t wanted_offset) const;
  void Inv(EventType type, HostId host, std::uint64_t fsid, std::uint64_t ino,
           std::uint64_t timestamp, std::uint32_t count, HostId peer_host) const;
  void Policy(EventType type, HostId host, std::uint64_t fsid,
              std::uint64_t ino, std::uint32_t from, std::uint32_t to,
              std::uint32_t flags) const;
  void Anomaly(HostId host, std::uint64_t fsid, std::uint64_t ino,
               std::uint32_t kind, double value, double threshold) const;
  void Node(EventType type, HostId host) const;

 private:
  Event Stamp(EventType type, HostId host, std::uint32_t port) const;

  TraceBuffer* buffer_ = nullptr;
  const SimTime* clock_ = nullptr;
};

}  // namespace gvfs::trace
