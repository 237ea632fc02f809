#include "trace/trace.h"

#include <cassert>
#include <cinttypes>
#include <cstdio>
#include <string_view>
#include <type_traits>

namespace gvfs::trace {

const char* EventTypeName(EventType type) {
  switch (type) {
    case EventType::kRpcSend:
      return "RPC_SEND";
    case EventType::kRpcRetransmit:
      return "RPC_RETRANSMIT";
    case EventType::kRpcReply:
      return "RPC_REPLY";
    case EventType::kRpcTimeout:
      return "RPC_TIMEOUT";
    case EventType::kRpcExec:
      return "RPC_EXEC";
    case EventType::kRpcHandlerDone:
      return "RPC_HANDLER_DONE";
    case EventType::kRpcDrcHit:
      return "RPC_DRC_HIT";
    case EventType::kNetDrop:
      return "NET_DROP";
    case EventType::kCacheHit:
      return "CACHE_HIT";
    case EventType::kCacheMiss:
      return "CACHE_MISS";
    case EventType::kCacheWriteBack:
      return "CACHE_WRITEBACK";
    case EventType::kDelegGrant:
      return "DELEG_GRANT";
    case EventType::kDelegRecall:
      return "DELEG_RECALL";
    case EventType::kDelegRelease:
      return "DELEG_RELEASE";
    case EventType::kDelegExpiry:
      return "DELEG_EXPIRY";
    case EventType::kInvAppend:
      return "INV_APPEND";
    case EventType::kInvPoll:
      return "INV_POLL";
    case EventType::kInvWrap:
      return "INV_WRAP";
    case EventType::kInvForce:
      return "INV_FORCE";
    case EventType::kAggFanout:
      return "AGG_FANOUT";
    case EventType::kAggIngest:
      return "AGG_INGEST";
    case EventType::kAggDeliver:
      return "AGG_DELIVER";
    case EventType::kAggServe:
      return "AGG_SERVE";
    case EventType::kNodeCrash:
      return "NODE_CRASH";
    case EventType::kNodeRecover:
      return "NODE_RECOVER";
    case EventType::kPolicyDecide:
      return "POLICY_DECIDE";
    case EventType::kPolicyMigrate:
      return "POLICY_MIGRATE";
    case EventType::kAnomaly:
      return "ANOMALY";
  }
  return "?";
}

bool EventTypeFromName(const std::string& name, EventType* out) {
  // Enumerators run from 0 without gaps, and EventTypeName answers "?" just
  // past the last one, so this walk needs no list of its own.
  for (std::uint8_t t = 0;; ++t) {
    const auto type = static_cast<EventType>(t);
    const std::string_view known = EventTypeName(type);
    if (known == "?") return false;
    if (known == name) {
      *out = type;
      return true;
    }
  }
}

Family FamilyOf(EventType type) {
  switch (type) {
    case EventType::kRpcSend:
    case EventType::kRpcRetransmit:
    case EventType::kRpcReply:
    case EventType::kRpcTimeout:
    case EventType::kRpcExec:
    case EventType::kRpcHandlerDone:
    case EventType::kRpcDrcHit:
      return Family::kRpc;
    case EventType::kNetDrop:
      return Family::kNet;
    case EventType::kCacheHit:
    case EventType::kCacheMiss:
    case EventType::kCacheWriteBack:
      return Family::kCache;
    case EventType::kDelegGrant:
    case EventType::kDelegRecall:
    case EventType::kDelegRelease:
    case EventType::kDelegExpiry:
      return Family::kDeleg;
    case EventType::kInvAppend:
    case EventType::kInvPoll:
    case EventType::kInvWrap:
    case EventType::kInvForce:
    case EventType::kAggFanout:
    case EventType::kAggIngest:
    case EventType::kAggDeliver:
    case EventType::kAggServe:
      return Family::kInv;
    case EventType::kNodeCrash:
    case EventType::kNodeRecover:
      return Family::kNode;
    case EventType::kPolicyDecide:
    case EventType::kPolicyMigrate:
      return Family::kPolicy;
    case EventType::kAnomaly:
      return Family::kAnomaly;
  }
  return Family::kNode;
}

bool FileOf(const Event& ev, std::uint64_t* fsid, std::uint64_t* ino) {
  *fsid = 0;
  *ino = 0;
  VisitPayload(ev, [&](std::string_view name, const auto& field) {
    if constexpr (std::is_same_v<std::decay_t<decltype(field)>,
                                 std::uint64_t>) {
      if (name == "fsid") *fsid = field;
      if (name == "ino") *ino = field;
    }
  });
  return (*fsid | *ino) != 0;
}

std::string FhString(std::uint64_t fsid, std::uint64_t ino) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ":%" PRIu64, fsid, ino);
  return buf;
}

TraceBuffer::TraceBuffer(std::size_t capacity)
    : capacity_(capacity > 0 ? capacity : 1) {
  ring_.reserve(capacity_ < 4096 ? capacity_ : 4096);
  labels_.push_back("");  // id 0 is always the empty label
  label_ids_[""] = 0;
}

void TraceBuffer::Push(const Event& event) {
  ++recorded_;
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
    return;
  }
  // Full: overwrite the oldest slot.
  ring_[head_] = event;
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
}

const Event& TraceBuffer::at(std::size_t i) const {
  assert(i < ring_.size());
  return ring_[(head_ + i) % ring_.size()];
}

std::uint16_t TraceBuffer::InternLabel(const std::string& label) {
  auto it = label_ids_.find(label);
  if (it != label_ids_.end()) return it->second;
  // Saturate rather than grow without bound: ids are u16 and real runs use a
  // few dozen labels at most.
  if (labels_.size() >= 0xffff) return 0;
  const auto id = static_cast<std::uint16_t>(labels_.size());
  labels_.push_back(label);
  label_ids_[label] = id;
  return id;
}

const std::string& TraceBuffer::LabelName(std::uint16_t id) const {
  return id < labels_.size() ? labels_[id] : labels_[0];
}

void TraceBuffer::Clear() {
  ring_.clear();
  head_ = 0;
  recorded_ = 0;
  dropped_ = 0;
}

Event Tracer::Stamp(EventType type, HostId host, std::uint32_t port) const {
  Event ev;
  ev.time = clock_ != nullptr ? *clock_ : 0;
  ev.type = type;
  ev.host = host;
  ev.port = port;
  return ev;
}

void Tracer::Rpc(EventType type, HostId host, std::uint32_t port,
                 HostId peer_host, std::uint32_t peer_port, std::uint32_t xid,
                 std::uint32_t prog, std::uint32_t proc,
                 const std::string& label, std::uint64_t trace_id,
                 std::uint64_t span_id, std::uint64_t parent_span_id) const {
  if (buffer_ == nullptr) return;
  Event ev = Stamp(type, host, port);
  ev.u.rpc = RpcPayload{peer_host, peer_port, xid, prog, proc,
                        buffer_->InternLabel(label), trace_id, span_id,
                        parent_span_id};
  buffer_->Push(ev);
}

void Tracer::NetDrop(HostId src, HostId dst, std::size_t wire_size) const {
  if (buffer_ == nullptr) return;
  Event ev = Stamp(EventType::kNetDrop, src, 0);
  ev.u.net = NetPayload{dst, static_cast<std::uint32_t>(wire_size)};
  buffer_->Push(ev);
}

void Tracer::Cache(EventType type, HostId host, std::uint64_t fsid,
                   std::uint64_t ino, std::uint64_t offset,
                   const std::string& label) const {
  if (buffer_ == nullptr) return;
  Event ev = Stamp(type, host, 0);
  ev.u.cache = CachePayload{fsid, ino, offset, buffer_->InternLabel(label)};
  buffer_->Push(ev);
}

void Tracer::Deleg(EventType type, HostId host, std::uint64_t fsid,
                   std::uint64_t ino, std::uint32_t deleg_type, HostId peer_host,
                   std::uint32_t flags, std::uint64_t wanted_offset) const {
  if (buffer_ == nullptr) return;
  Event ev = Stamp(type, host, 0);
  ev.u.deleg =
      DelegPayload{fsid, ino, wanted_offset, deleg_type, peer_host, flags};
  buffer_->Push(ev);
}

void Tracer::Inv(EventType type, HostId host, std::uint64_t fsid,
                 std::uint64_t ino, std::uint64_t timestamp, std::uint32_t count,
                 HostId peer_host) const {
  if (buffer_ == nullptr) return;
  Event ev = Stamp(type, host, 0);
  ev.u.inv = InvPayload{fsid, ino, timestamp, count, peer_host};
  buffer_->Push(ev);
}

void Tracer::Policy(EventType type, HostId host, std::uint64_t fsid,
                    std::uint64_t ino, std::uint32_t from, std::uint32_t to,
                    std::uint32_t flags) const {
  if (buffer_ == nullptr) return;
  Event ev = Stamp(type, host, 0);
  ev.u.policy = PolicyPayload{fsid, ino, from, to, flags};
  buffer_->Push(ev);
}

void Tracer::Anomaly(HostId host, std::uint64_t fsid, std::uint64_t ino,
                     std::uint32_t kind, double value, double threshold) const {
  if (buffer_ == nullptr) return;
  Event ev = Stamp(EventType::kAnomaly, host, 0);
  ev.u.anomaly = AnomalyPayload{fsid, ino, kind, 0, value, threshold};
  buffer_->Push(ev);
}

void Tracer::Node(EventType type, HostId host) const {
  if (buffer_ == nullptr) return;
  buffer_->Push(Stamp(type, host, 0));
}

}  // namespace gvfs::trace
