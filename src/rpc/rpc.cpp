#include "rpc/rpc.h"

#include <cassert>

#include "common/logging.h"
#include "xdr/xdr.h"

namespace gvfs::rpc {
namespace {

// Wire overhead beyond the XDR header we actually encode: UDP/IP headers
// plus AUTH_SYS credential/verifier, approximating a real ONC RPC datagram.
constexpr std::size_t kDatagramOverhead = 28 + 72;

constexpr std::uint32_t kMsgCall = 0;
constexpr std::uint32_t kMsgReply = 1;

// Header bytes up to and including the body's opaque length.
constexpr std::size_t kCallHeader = 44;
constexpr std::size_t kReplyHeader = 16;

std::uint64_t ProgProcKey(std::uint32_t prog, std::uint32_t proc) {
  return (static_cast<std::uint64_t>(prog) << 32) | proc;
}

}  // namespace

/// Awaits a reply in `pc` until `deadline`, over frame-resident state: the
/// timeout event captures a raw PendingCall pointer, which is safe because
/// reply delivery cancels the event (its closure is destroyed immediately)
/// and the Call frame outlives the wait.
struct RpcNode::ReplyAwaiter {
  PendingCall& pc;
  sim::Scheduler& sched;
  SimTime deadline;

  bool await_ready() const noexcept { return pc.reply.has_value(); }
  void await_suspend(std::coroutine_handle<> h) {
    pc.waiter = h;
    pc.timed_out = false;
    pc.timeout_event = sched.At(deadline, [p = &pc] {
      if (!p->waiter) return;
      p->timeout_event = {};
      p->timed_out = true;
      std::exchange(p->waiter, {}).resume();
    });
  }
  std::optional<Reply> await_resume() {
    if (pc.timed_out) {
      pc.timed_out = false;
      return std::nullopt;
    }
    return std::move(pc.reply);
  }
};

const char* RpcErrorName(RpcError e) {
  switch (e) {
    case RpcError::kTimedOut:
      return "timed out";
    case RpcError::kProcUnavail:
      return "procedure unavailable";
    case RpcError::kGarbageArgs:
      return "garbage arguments";
    case RpcError::kSystemErr:
      return "system error";
    case RpcError::kHostDown:
      return "host down";
  }
  return "?";
}

RpcNode::RpcNode(sim::Scheduler& sched, net::Network& network, net::Address address,
                 std::string name)
    : sched_(sched), network_(network), address_(address), name_(std::move(name)) {}

void RpcNode::RegisterHandler(std::uint32_t prog, std::uint32_t proc,
                              Handler handler) {
  for (ProgHandlers& ph : handlers_) {
    if (ph.prog == prog) {
      if (ph.by_proc.size() <= proc) ph.by_proc.resize(proc + 1);
      ph.by_proc[proc] = std::move(handler);
      return;
    }
  }
  ProgHandlers ph;
  ph.prog = prog;
  ph.by_proc.resize(proc + 1);
  ph.by_proc[proc] = std::move(handler);
  handlers_.push_back(std::move(ph));
}

Handler* RpcNode::FindHandler(std::uint32_t prog, std::uint32_t proc) {
  for (ProgHandlers& ph : handlers_) {
    if (ph.prog != prog) continue;
    if (proc >= ph.by_proc.size() || !ph.by_proc[proc]) return nullptr;
    return &ph.by_proc[proc];
  }
  return nullptr;
}

StatsMap::Handle RpcNode::StatHandleFor(std::uint32_t prog, std::uint32_t proc,
                                        const std::string& label) {
  StatHandle& cached = stat_handles_[ProgProcKey(prog, proc)];
  if (cached.label != label) {  // first use, or an unusual per-call relabel
    cached.handle = stats_->Intern(label);
    cached.label = label;
  }
  return cached.handle;
}

void RpcNode::SetDown(bool down) {
  down_ = down;
  if (down) {
    // Crash: all soft state is lost. Pending callers will time out.
    drc_.Clear();
    drc_order_.clear();
    pending_.Clear();
  }
}

void RpcNode::SendCall(net::Address dst, std::uint32_t xid, std::uint32_t prog,
                       std::uint32_t proc, const Body& args, bool tracked,
                       StatsMap::Handle stat_handle, std::uint64_t trace_id,
                       std::uint64_t span_id, std::uint64_t parent_span_id) {
  xdr::Encoder enc(kCallHeader);
  // Fixed call header, written through one reserved window: xid, msg type,
  // prog, proc, the causal-span triple (Dapper-style; lets the receiving
  // handler extend the caller's trace across the node boundary), then the
  // arguments' opaque length. Same wire layout as per-field Puts.
  std::uint8_t* h = enc.Reserve(kCallHeader);
  xdr::Encoder::StoreBe32(h, xid);
  xdr::Encoder::StoreBe32(h + 4, kMsgCall);
  xdr::Encoder::StoreBe32(h + 8, prog);
  xdr::Encoder::StoreBe32(h + 12, proc);
  xdr::Encoder::StoreBe64(h + 16, trace_id);
  xdr::Encoder::StoreBe64(h + 24, span_id);
  xdr::Encoder::StoreBe64(h + 32, parent_span_id);
  xdr::Encoder::StoreBe32(h + 40, static_cast<std::uint32_t>(args.size()));
  net::Packet packet = Frame(dst, enc.Take(), args);
  if (tracked) stats_->Count(stat_handle, packet.wire_size);
  network_.Send(std::move(packet));
}

void RpcNode::SendReply(net::Address dst, std::uint32_t xid, AcceptStat stat,
                        const Body& body) {
  xdr::Encoder enc(kReplyHeader);
  // Fixed reply header: xid, msg type, accept stat, the body's opaque length.
  std::uint8_t* h = enc.Reserve(kReplyHeader);
  xdr::Encoder::StoreBe32(h, xid);
  xdr::Encoder::StoreBe32(h + 4, kMsgReply);
  xdr::Encoder::StoreBe32(h + 8, static_cast<std::uint32_t>(stat));
  xdr::Encoder::StoreBe32(h + 12, static_cast<std::uint32_t>(body.size()));
  network_.Send(Frame(dst, enc.Take(), body));
}

net::Packet RpcNode::Frame(net::Address dst, Buf head, const Body& body) const {
  net::Packet packet;
  packet.src = address_;
  packet.dst = dst;
  // The body goes out as an XDR opaque behind the header: padded to 4 bytes.
  packet.wire_size =
      head.size() + xdr::Encoder::Padded(body.size()) + kDatagramOverhead;
  packet.head = std::move(head);
  packet.body = body;
  return packet;
}

sim::Task<Expected<Body, RpcError>> RpcNode::Call(net::Address dst,
                                                  std::uint32_t prog,
                                                  std::uint32_t proc, Body args,
                                                  CallOptions opts) {
  if (down_) co_return Unexpected(RpcError::kHostDown);

  const std::uint32_t xid = next_xid_++;
  PendingCall pc;  // lives on this coroutine frame; no allocation
  pending_[xid] = &pc;

  // Span identity: (host, port, xid) is unique per call in a run, so it
  // doubles as the span id. A call without a parent roots a new trace.
  const std::uint64_t span_id = (static_cast<std::uint64_t>(address_.host) << 48) |
                                (static_cast<std::uint64_t>(address_.port) << 32) |
                                xid;
  const std::uint64_t trace_id =
      opts.parent.valid() ? opts.parent.trace_id : span_id;
  const std::uint64_t parent_span_id = opts.parent.span_id;

  // The gauge/latency instrumentation mirrors Count()'s WAN-only rule.
  const bool tracked = stats_ != nullptr && dst.host != address_.host;
  const StatsMap::Handle stat_handle =
      tracked ? StatHandleFor(prog, proc, opts.label) : 0;
  const SimTime started = sched_.Now();
  if (tracked) stats_->BeginCall();

  std::optional<Reply> reply;
  for (int attempt = 0; attempt <= opts.max_retries; ++attempt) {
    if (tracer_.enabled()) {
      tracer_.Rpc(attempt == 0 ? trace::EventType::kRpcSend
                               : trace::EventType::kRpcRetransmit,
                  address_.host, address_.port, dst.host, dst.port, xid, prog,
                  proc, opts.label, trace_id, span_id, parent_span_id);
    }
    SendCall(dst, xid, prog, proc, args, tracked, stat_handle, trace_id,
             span_id, parent_span_id);
    reply = co_await ReplyAwaiter{pc, sched_, sched_.Now() + opts.timeout};
    if (reply.has_value()) break;
    if (down_) break;  // crashed while waiting
    GVFS_DEBUG("%s: retransmit %s xid=%u (attempt %d)", name_.c_str(),
               opts.label.c_str(), xid, attempt + 1);
  }
  pending_.Erase(xid);
  if (tracer_.enabled()) {
    tracer_.Rpc(reply.has_value() ? trace::EventType::kRpcReply
                                  : trace::EventType::kRpcTimeout,
                address_.host, address_.port, dst.host, dst.port, xid, prog,
                proc, opts.label, trace_id, span_id, parent_span_id);
  }
  if (tracked) stats_->EndCall(stat_handle, sched_.Now() - started);

  if (!reply.has_value()) co_return Unexpected(RpcError::kTimedOut);
  switch (reply->stat) {
    case AcceptStat::kSuccess:
      co_return std::move(reply->body);
    case AcceptStat::kProcUnavail:
      co_return Unexpected(RpcError::kProcUnavail);
    case AcceptStat::kGarbageArgs:
      co_return Unexpected(RpcError::kGarbageArgs);
    case AcceptStat::kSystemErr:
      co_return Unexpected(RpcError::kSystemErr);
  }
  co_return Unexpected(RpcError::kSystemErr);
}

void RpcNode::OnPacket(net::Packet packet) {
  if (down_) return;

  xdr::Decoder dec(packet.head);
  // Headers are fixed-layout; read them through one bounds-checked window
  // per branch instead of per-field Expected unwrapping.
  const std::uint8_t* h = dec.GetRaw(8);
  if (h == nullptr) return;  // malformed; drop
  const std::uint32_t xid = xdr::Decoder::LoadBe32(h);
  const std::uint32_t msg_type = xdr::Decoder::LoadBe32(h + 4);

  if (msg_type == kMsgReply) {
    const std::uint8_t* rh = dec.GetRaw(kReplyHeader - 8);
    if (rh == nullptr) return;
    const std::uint32_t stat = xdr::Decoder::LoadBe32(rh);
    auto* found = pending_.Find(xid);
    if (found == nullptr) return;  // late reply after timeout; drop
    if (xdr::Decoder::LoadBe32(rh + 4) != packet.body.size()) return;
    PendingCall& pc = **found;
    if (pc.reply.has_value()) return;  // duplicate reply; first wins
    pc.reply = Reply{static_cast<AcceptStat>(stat), std::move(packet.body)};
    if (pc.waiter) {
      auto waiter = std::exchange(pc.waiter, {});
      // Cancel the timeout, then post the resumption: the timeout's closure
      // is destroyed now rather than at the deadline.
      sched_.Cancel(std::exchange(pc.timeout_event, {}));
      sched_.At(sched_.Now(), [waiter] { waiter.resume(); });
    }
    return;
  }

  // Incoming call: the rest of the header (prog, proc, the causal-span
  // triple and the arguments' length).
  const std::uint8_t* ch = dec.GetRaw(kCallHeader - 8);
  if (ch == nullptr) return;
  const std::uint32_t prog = xdr::Decoder::LoadBe32(ch);
  const std::uint32_t proc = xdr::Decoder::LoadBe32(ch + 4);
  const std::uint64_t trace_id = xdr::Decoder::LoadBe64(ch + 8);
  const std::uint64_t span_id = xdr::Decoder::LoadBe64(ch + 16);
  const std::uint64_t parent_span_id = xdr::Decoder::LoadBe64(ch + 24);

  const DrcKey key{packet.src.host, packet.src.port, xid};
  if (const DrcEntry* hit = drc_.Find(key); hit != nullptr) {
    if (hit->completed) {
      // Retransmitted request we already served: resend the cached reply
      // without re-executing the handler.
      if (tracer_.enabled()) {
        tracer_.Rpc(trace::EventType::kRpcDrcHit, address_.host, address_.port,
                    packet.src.host, packet.src.port, xid, prog, proc, "");
      }
      SendReply(packet.src, xid, hit->stat, hit->reply);
    }
    // In progress: drop the duplicate; the original execution will reply.
    return;
  }

  Handler* handler = FindHandler(prog, proc);
  if (handler == nullptr) {
    SendReply(packet.src, xid, AcceptStat::kProcUnavail, {});
    return;
  }

  if (xdr::Decoder::LoadBe32(ch + 32) != packet.body.size()) {
    SendReply(packet.src, xid, AcceptStat::kGarbageArgs, {});
    return;
  }
  DrcInsert(key);
  if (tracer_.enabled()) {
    tracer_.Rpc(trace::EventType::kRpcExec, address_.host, address_.port,
                packet.src.host, packet.src.port, xid, prog, proc, "",
                trace_id, span_id, parent_span_id);
  }
  // The handler executes inside the caller's span (shared-span model); any
  // RPCs it issues become children by passing ctx.span as their parent.
  CallContext ctx{packet.src, xid, trace::SpanRef{trace_id, span_id}};
  sim::Spawn(RunHandler(*handler, ctx, std::move(packet.body), key));
}

sim::Task<void> RpcNode::RunHandler(const Handler& handler, CallContext ctx,
                                    Body args, DrcKey key) {
  Body body = co_await handler(ctx, std::move(args));
  if (down_) co_return;  // crashed while serving; no reply
  // Closes the server-side execution interval opened by kRpcExec, so the
  // exporter can render the handler as a duration slice.
  if (tracer_.enabled()) {
    tracer_.Rpc(trace::EventType::kRpcHandlerDone, address_.host, address_.port,
                ctx.caller.host, ctx.caller.port, ctx.xid, 0, 0, "",
                ctx.span.trace_id, ctx.span.span_id, 0);
  }
  SendReply(ctx.caller, ctx.xid, AcceptStat::kSuccess, body);
  // The cache shares the reply with the packet that carries it.
  if (DrcEntry* entry = drc_.Find(key); entry != nullptr) {
    entry->completed = true;
    entry->stat = AcceptStat::kSuccess;
    entry->reply = std::move(body);
  }
}

void RpcNode::DrcInsert(const DrcKey& key) {
  drc_[key] = DrcEntry{};
  drc_order_.push_back(key);
  DrcTrim();
}

void RpcNode::DrcTrim() {
  while (drc_order_.size() > kDrcCapacity) {
    drc_.Erase(drc_order_.front());
    drc_order_.pop_front();
  }
}

RpcNode& Domain::CreateNode(HostId host, std::uint32_t port, std::string name) {
  net::Address address{host, port};
  assert(nodes_.Find(AddressKey(address)) == nullptr && "port already bound");
  auto node = std::make_unique<RpcNode>(sched_, network_, address, std::move(name));
  RpcNode& ref = *node;
  ref.SetTracer(tracer_);
  nodes_[AddressKey(address)] = std::move(node);

  if (ports_by_host_.size() <= host) ports_by_host_.resize(host + 1);
  if (ports_by_host_[host].empty()) {
    network_.SetReceiver(host, [this, host](net::Packet packet) {
      // Per-packet dispatch: linear scan of the host's (port, node) pairs —
      // one or two entries in practice, cheaper than hashing the address.
      for (const auto& [node_port, target] : ports_by_host_[host]) {
        if (node_port == packet.dst.port) {
          target->OnPacket(std::move(packet));
          return;
        }
      }
    });
  }
  ports_by_host_[host].emplace_back(port, &ref);
  return ref;
}

RpcNode* Domain::Find(net::Address address) {
  auto* node = nodes_.Find(AddressKey(address));
  return node == nullptr ? nullptr : node->get();
}

void Domain::SetTracer(trace::Tracer tracer) {
  tracer_ = tracer;
  // Effect is order-independent (every node gets the same tracer), so
  // hash-table visitation order cannot leak into output.
  nodes_.ForEach([&](std::uint64_t, std::unique_ptr<RpcNode>& node) {
    node->SetTracer(tracer);
  });
}

}  // namespace gvfs::rpc
