// ONC-RPC-style request/reply layer over the simulated network.
//
// Every RpcNode is simultaneously client and server — the property GVFS
// proxies rely on for server-to-client CALLBACK RPCs (§4.3.2 of the paper).
// Features modeled after the real stack: xid matching, timeout +
// retransmission (UDP semantics), a bounded duplicate-request cache so
// retransmitted non-idempotent calls are not re-executed, and per-procedure
// wire statistics.
//
// Hot-path shape (this layer is crossed twice per simulated RPC):
//   - handler dispatch is a two-level dense table (program scan + proc
//     index), not a map lookup;
//   - pending calls and the duplicate-request cache live in open-addressed
//     FlatMaps;
//   - bodies are never copied: a call's arguments, a reply, the packets that
//     carry them, their retransmissions and the duplicate-request cache all
//     share one Buf (common/buf.h); a packet carries the RPC header and the
//     body as two Bufs, so a proxy forwards a body it received without
//     copying it;
//   - per-procedure stats go through pre-resolved StatsMap handles cached by
//     (prog, proc).
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/expected.h"
#include "common/flat_map.h"
#include "common/types.h"
#include "net/network.h"
#include "rpc/stats.h"
#include "sim/scheduler.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "trace/trace.h"
#include "xdr/xdr.h"

namespace gvfs::rpc {

enum class RpcError {
  kTimedOut,      // no reply after all retransmissions
  kProcUnavail,   // no handler registered at the peer
  kGarbageArgs,   // peer failed to decode the arguments
  kSystemErr,     // peer handler failed internally
  kHostDown,      // local node is crashed; cannot send
};

const char* RpcErrorName(RpcError e);

/// An RPC message body: the arguments of a call or the result of a reply,
/// shared with the packets that carry it. Decode through nfs3::Parse, whose
/// payload fields become slices of the body.
using Body = Buf;

/// Per-call knobs. `label` names the procedure in stats output.
///
/// NOTE: the constructors are user-declared (making this a non-aggregate) on
/// purpose: GCC 12 miscompiles by-value coroutine parameters of aggregate
/// type with non-trivial members (frame copy corruption). Any struct with
/// string/vector members that is passed by value into a coroutine in this
/// codebase must declare its ctors the same way (see tests/sim_test.cpp
/// regression note).
struct CallOptions {
  CallOptions() = default;
  CallOptions(const CallOptions&) = default;
  CallOptions(CallOptions&&) noexcept = default;
  CallOptions& operator=(const CallOptions&) = default;
  CallOptions& operator=(CallOptions&&) noexcept = default;

  std::string label;
  Duration timeout = Milliseconds(1100);  // NFS-over-UDP default retrans time
  int max_retries = 5;
  /// Causal parent: when valid, the new call becomes a child span in the
  /// parent's trace; otherwise the call starts a fresh trace (root span).
  trace::SpanRef parent{};
};

/// Context handed to server handlers.
struct CallContext {
  net::Address caller;
  std::uint32_t xid = 0;
  /// The call's span, decoded from the wire header. Handlers pass it as
  /// CallOptions::parent on nested RPCs to extend the causal tree.
  trace::SpanRef span{};
};

/// Handlers return the XDR-encoded reply body; protocol-level errors (e.g.
/// NFS3ERR_*) ride inside that body as in real NFS.
// gvfs-lint: allow(hot-path-type): handler erasure happens once at Register time; dispatch stores and calls it without re-wrapping
using Handler = std::function<sim::Task<Buf>(CallContext, Body)>;

class RpcNode {
 public:
  RpcNode(sim::Scheduler& sched, net::Network& network, net::Address address,
          std::string name);

  RpcNode(const RpcNode&) = delete;
  RpcNode& operator=(const RpcNode&) = delete;

  net::Address address() const { return address_; }
  const std::string& name() const { return name_; }

  void RegisterHandler(std::uint32_t prog, std::uint32_t proc, Handler handler);

  /// Issues a call and awaits the matching reply, retransmitting on timeout.
  sim::Task<Expected<Body, RpcError>> Call(net::Address dst, std::uint32_t prog,
                                           std::uint32_t proc, Body args,
                                           CallOptions opts);

  /// Attaches a per-procedure stats sink (counts outgoing calls). May be null.
  void SetStatsSink(StatsMap* sink) {
    stats_ = sink;
    stat_handles_.Clear();  // handles belong to the previous sink
  }

  /// Attaches a tracer recording RPC lifecycle events (send, retransmit,
  /// reply, timeout, handler execution, duplicate-cache hits). Components
  /// layered on this node (the gvfs proxies) record through it as well.
  void SetTracer(trace::Tracer tracer) { tracer_ = tracer; }
  const trace::Tracer& tracer() const { return tracer_; }

  /// Crash simulation: a down node drops all incoming packets and refuses to
  /// send. Soft state (duplicate-request cache, pending calls) is lost.
  void SetDown(bool down);
  bool down() const { return down_; }

  /// Called by the host packet mux.
  void OnPacket(net::Packet packet);

 private:
  enum class AcceptStat : std::uint32_t {
    kSuccess = 0,
    kProcUnavail = 2,
    kGarbageArgs = 4,
    kSystemErr = 5,
  };

  struct Reply {
    AcceptStat stat;
    Body body;
  };

  /// Reply slot for one in-flight call. Lives on the Call coroutine's frame
  /// (which always outlives the wait: the frame erases its pending_ entry
  /// before dying, and a timeout event is either cancelled on reply delivery
  /// or has already fired), so no shared-ownership allocation is needed.
  struct PendingCall {
    std::optional<Reply> reply;
    std::coroutine_handle<> waiter;
    sim::EventId timeout_event;
    bool timed_out = false;
  };

  struct ReplyAwaiter;  // defined in rpc.cpp; awaits a PendingCall

  // Duplicate-request cache entry. `reply` is empty while in progress.
  struct DrcEntry {
    bool completed = false;
    AcceptStat stat = AcceptStat::kSuccess;
    Body reply;
  };

  struct DrcKey {
    HostId host = kInvalidHost;
    std::uint32_t port = 0;
    std::uint32_t xid = 0;
    friend bool operator==(const DrcKey&, const DrcKey&) = default;
  };

  // Equality on the full key is exact, so hash quality affects probe length
  // only — never protocol behavior.
  struct DrcKeyHash {
    std::uint64_t operator()(const DrcKey& k) const {
      return MixHash64((static_cast<std::uint64_t>(k.host) << 32) | k.port) ^
             MixHash64(k.xid);
    }
  };

  /// Handlers for one program: dense by procedure number (procedures are
  /// small contiguous ints in every protocol we model).
  struct ProgHandlers {
    std::uint32_t prog = 0;
    std::vector<Handler> by_proc;
  };

  /// Cached stats handle for a (prog, proc): `label` verifies the cache,
  /// since labels arrive per-call via CallOptions.
  struct StatHandle {
    std::string label;
    StatsMap::Handle handle = 0;
  };

  Handler* FindHandler(std::uint32_t prog, std::uint32_t proc);
  StatsMap::Handle StatHandleFor(std::uint32_t prog, std::uint32_t proc,
                                 const std::string& label);

  void SendCall(net::Address dst, std::uint32_t xid, std::uint32_t prog,
                std::uint32_t proc, const Body& args, bool tracked,
                StatsMap::Handle stat_handle, std::uint64_t trace_id,
                std::uint64_t span_id, std::uint64_t parent_span_id);
  void SendReply(net::Address dst, std::uint32_t xid, AcceptStat stat,
                 const Body& body);
  /// A packet from this node to `dst`: `head` (the RPC header) then `body`.
  net::Packet Frame(net::Address dst, Buf head, const Body& body) const;
  sim::Task<void> RunHandler(const Handler& handler, CallContext ctx,
                             Body args, DrcKey key);
  void DrcInsert(const DrcKey& key);
  void DrcTrim();

  sim::Scheduler& sched_;
  net::Network& network_;
  net::Address address_;
  std::string name_;
  bool down_ = false;

  std::uint32_t next_xid_ = 1;
  FlatMap<std::uint32_t, PendingCall*> pending_;  // slots live on Call frames
  std::vector<ProgHandlers> handlers_;  // tiny: one entry per program

  FlatMap<DrcKey, DrcEntry, DrcKeyHash> drc_;
  std::deque<DrcKey> drc_order_;
  static constexpr std::size_t kDrcCapacity = 2048;

  StatsMap* stats_ = nullptr;
  FlatMap<std::uint64_t, StatHandle> stat_handles_;  // key: (prog << 32) | proc
  trace::Tracer tracer_;
};

/// Owns all RPC nodes in a simulation and demultiplexes incoming packets to
/// them by destination port.
class Domain {
 public:
  Domain(sim::Scheduler& sched, net::Network& network)
      : sched_(sched), network_(network) {}

  /// Creates a node bound to (host, port). Port must be unique per host.
  RpcNode& CreateNode(HostId host, std::uint32_t port, std::string name);

  RpcNode* Find(net::Address address);

  /// Attaches a tracer to every node, existing and future.
  void SetTracer(trace::Tracer tracer);

  sim::Scheduler& scheduler() { return sched_; }
  net::Network& network() { return network_; }

 private:
  static std::uint64_t AddressKey(net::Address a) {
    return (static_cast<std::uint64_t>(a.host) << 32) | a.port;
  }

  sim::Scheduler& sched_;
  net::Network& network_;
  FlatMap<std::uint64_t, std::unique_ptr<RpcNode>> nodes_;
  /// Per-host dispatch table: (port, node) pairs, scanned linearly. Hosts
  /// bind one or two ports, so the scan beats hashing on the per-packet path;
  /// an empty inner vector doubles as "mux not yet installed".
  std::vector<std::vector<std::pair<std::uint32_t, RpcNode*>>> ports_by_host_;
  trace::Tracer tracer_;
};

}  // namespace gvfs::rpc
