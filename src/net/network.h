// Simulated network: hosts joined by duplex links with one-way latency,
// finite bandwidth (FIFO serialization), and up/down state for partition
// injection. Stands in for the paper's NIST Net WAN emulation (40 ms RTT,
// 4 Mbps) between physical hosts.
//
// Delivery model: a message sent at time t over a link with latency L and
// bandwidth B occupies the link for size/B (FIFO behind earlier messages)
// and arrives L after its serialization completes. Messages addressed to the
// sending host itself take a fixed loopback latency — this models the
// kernel-client <-> user-level-proxy hop whose interception cost the paper
// measures in LAN.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/buf.h"
#include "common/flat_map.h"
#include "common/types.h"
#include "sim/scheduler.h"
#include "trace/trace.h"

namespace gvfs::net {

/// A (host, port) address; multiple RPC endpoints share a host.
struct Address {
  HostId host = kInvalidHost;
  std::uint32_t port = 0;

  friend bool operator==(const Address&, const Address&) = default;
  friend auto operator<=>(const Address&, const Address&) = default;
};

/// An opaque datagram in flight: `head` then `body`, as two shared Bufs, so
/// a node that forwards a body it received frames it anew without copying
/// it. `wire_size` includes all header overhead.
struct Packet {
  Address src;
  Address dst;
  std::size_t wire_size = 0;
  Buf head;
  Buf body;
};

// A delivery event captures [this, Packet]; it must stay in the event's
// inline storage, or every packet would allocate.
static_assert(sizeof(void*) + sizeof(Packet) <= sim::EventFn::kInlineSize,
              "packet delivery closure spills out of EventFn");

struct LinkConfig {
  Duration one_way_latency = Milliseconds(20);   // 40 ms RTT default (paper WAN)
  std::uint64_t bandwidth_bps = 4'000'000;       // 4 Mbps default (paper WAN)
};

struct LinkStats {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t dropped = 0;
};

class Network {
 public:
  /// Each host's incoming packets are handed to one receiver (the RPC mux).
  using Receiver = std::function<void(Packet)>;

  explicit Network(sim::Scheduler& sched) : sched_(sched) {}

  HostId AddHost(std::string name) {
    hosts_.push_back(HostState{std::move(name), nullptr});
    return static_cast<HostId>(hosts_.size() - 1);
  }

  const std::string& HostName(HostId h) const { return hosts_.at(h).name; }
  std::size_t HostCount() const { return hosts_.size(); }

  void SetReceiver(HostId host, Receiver receiver) {
    hosts_.at(host).receiver = std::move(receiver);
  }

  /// Creates a duplex link between a and b. Replaces any existing link.
  void Connect(HostId a, HostId b, const LinkConfig& config) {
    links_[DirKey(a, b)] = Link{config, 0, true, {}};
    links_[DirKey(b, a)] = Link{config, 0, true, {}};
  }

  /// Partition injection: take both directions of the a<->b link up or down.
  void SetLinkUp(HostId a, HostId b, bool up) {
    LinkAt(a, b).up = up;
    LinkAt(b, a).up = up;
  }

  /// Asymmetric-failure injection: one direction only (e.g. drop replies but
  /// deliver requests, to exercise duplicate-request handling).
  void SetOneWayUp(HostId from, HostId to, bool up) {
    LinkAt(from, to).up = up;
  }

  bool LinkUp(HostId a, HostId b) const {
    return const_cast<Network*>(this)->LinkAt(a, b).up;
  }

  /// Per-call latency of a same-host (kernel client -> local proxy) hop.
  void SetLoopbackLatency(Duration d) { loopback_latency_ = d; }
  Duration loopback_latency() const { return loopback_latency_; }

  /// Sends a packet. Fire-and-forget: delivery (or silent drop on a downed /
  /// missing link) is scheduled on the simulation clock.
  void Send(Packet packet);

  LinkStats StatsFor(HostId from, HostId to) const {
    if (const Link* link = links_.Find(DirKey(from, to))) return link->stats;
    // Sends over a never-connected pair still account their drops (packets
    // and bytes stay zero: nothing was ever carried).
    auto nit = no_link_stats_.find(DirKey(from, to));
    return nit == no_link_stats_.end() ? LinkStats{} : nit->second;
  }

  /// Attaches a tracer recording packet-drop events. Disabled by default.
  void SetTracer(trace::Tracer tracer) { tracer_ = tracer; }

 private:
  struct HostState {
    std::string name;
    Receiver receiver;
  };

  struct Link {
    LinkConfig config;
    SimTime busy_until = 0;
    bool up = true;
    LinkStats stats;
  };

  static std::uint64_t DirKey(HostId from, HostId to) {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }

  Link& LinkAt(HostId from, HostId to) {
    Link* link = links_.Find(DirKey(from, to));
    assert(link != nullptr && "no such link");
    return *link;
  }

  void Deliver(Packet packet);

  sim::Scheduler& sched_;
  std::vector<HostState> hosts_;
  /// Per-packet lookup: open-addressed, keyed by the packed host pair.
  FlatMap<std::uint64_t, Link> links_;
  /// Drop counters for (from, to) pairs with no link configured.
  std::map<std::uint64_t, LinkStats> no_link_stats_;
  trace::Tracer tracer_;
  Duration loopback_latency_ = Microseconds(30);
};

}  // namespace gvfs::net
