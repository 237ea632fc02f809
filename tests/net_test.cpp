#include <gtest/gtest.h>

#include <vector>

#include "net/network.h"
#include "sim/scheduler.h"

namespace gvfs::net {
namespace {

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : network_(sched_) {
    a_ = network_.AddHost("a");
    b_ = network_.AddHost("b");
    network_.Connect(a_, b_, LinkConfig{Milliseconds(20), 4'000'000});
  }

  Packet MakePacket(HostId from, HostId to, std::size_t size) {
    Packet p;
    p.src = {from, 1};
    p.dst = {to, 1};
    p.wire_size = size;
    return p;
  }

  sim::Scheduler sched_;
  Network network_;
  HostId a_ = 0, b_ = 0;
};

TEST_F(NetworkTest, DeliversAfterLatencyPlusTransmission) {
  std::vector<SimTime> arrivals;
  network_.SetReceiver(b_, [&](Packet) { arrivals.push_back(sched_.Now()); });

  // 500 bytes at 4 Mbps = 1 ms transmission + 20 ms latency.
  network_.Send(MakePacket(a_, b_, 500));
  sched_.Run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], Milliseconds(21));
}

TEST_F(NetworkTest, BandwidthSerializesBackToBackPackets) {
  std::vector<SimTime> arrivals;
  network_.SetReceiver(b_, [&](Packet) { arrivals.push_back(sched_.Now()); });

  // Two 500-byte packets sent simultaneously: second waits for the first's
  // 1 ms transmission slot.
  network_.Send(MakePacket(a_, b_, 500));
  network_.Send(MakePacket(a_, b_, 500));
  sched_.Run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], Milliseconds(21));
  EXPECT_EQ(arrivals[1], Milliseconds(22));
}

TEST_F(NetworkTest, ReverseDirectionDoesNotContend) {
  std::vector<SimTime> arrivals_b, arrivals_a;
  network_.SetReceiver(b_, [&](Packet) { arrivals_b.push_back(sched_.Now()); });
  network_.SetReceiver(a_, [&](Packet) { arrivals_a.push_back(sched_.Now()); });

  network_.Send(MakePacket(a_, b_, 500));
  network_.Send(MakePacket(b_, a_, 500));
  sched_.Run();
  ASSERT_EQ(arrivals_b.size(), 1u);
  ASSERT_EQ(arrivals_a.size(), 1u);
  // Duplex: both arrive at 21 ms, no shared queueing.
  EXPECT_EQ(arrivals_b[0], Milliseconds(21));
  EXPECT_EQ(arrivals_a[0], Milliseconds(21));
}

TEST_F(NetworkTest, LoopbackUsesFixedLatency) {
  network_.SetLoopbackLatency(Microseconds(30));
  std::vector<SimTime> arrivals;
  network_.SetReceiver(a_, [&](Packet) { arrivals.push_back(sched_.Now()); });
  network_.Send(MakePacket(a_, a_, 1'000'000));  // size irrelevant on loopback
  sched_.Run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], Microseconds(30));
}

TEST_F(NetworkTest, DownLinkDropsPackets) {
  int received = 0;
  network_.SetReceiver(b_, [&](Packet) { ++received; });
  network_.SetLinkUp(a_, b_, false);
  network_.Send(MakePacket(a_, b_, 100));
  sched_.Run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(network_.StatsFor(a_, b_).dropped, 1u);

  network_.SetLinkUp(a_, b_, true);
  network_.Send(MakePacket(a_, b_, 100));
  sched_.Run();
  EXPECT_EQ(received, 1);
}

TEST_F(NetworkTest, NoLinkDropsSilently) {
  HostId c = network_.AddHost("c");
  int received = 0;
  network_.SetReceiver(c, [&](Packet) { ++received; });
  network_.Send(MakePacket(a_, c, 100));
  sched_.Run();
  EXPECT_EQ(received, 0);
}

TEST_F(NetworkTest, MissingLinkAccountsDrops) {
  // Drops over a never-connected pair are still visible in StatsFor, but
  // nothing was carried, so packets/bytes stay zero.
  HostId c = network_.AddHost("c");
  network_.SetReceiver(c, [](Packet) {});
  network_.Send(MakePacket(a_, c, 100));
  network_.Send(MakePacket(a_, c, 100));
  sched_.Run();
  const LinkStats stats = network_.StatsFor(a_, c);
  EXPECT_EQ(stats.dropped, 2u);
  EXPECT_EQ(stats.packets, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  // The reverse direction saw nothing.
  EXPECT_EQ(network_.StatsFor(c, a_).dropped, 0u);
}

TEST_F(NetworkTest, OneWayPartitionAccountsOnlyThatDirection) {
  network_.SetReceiver(a_, [](Packet) {});
  network_.SetReceiver(b_, [](Packet) {});
  network_.SetOneWayUp(b_, a_, false);  // replies dropped, requests flow
  network_.Send(MakePacket(a_, b_, 100));
  network_.Send(MakePacket(b_, a_, 100));
  network_.Send(MakePacket(b_, a_, 100));
  sched_.Run();
  EXPECT_EQ(network_.StatsFor(a_, b_).dropped, 0u);
  EXPECT_EQ(network_.StatsFor(a_, b_).packets, 1u);
  EXPECT_EQ(network_.StatsFor(b_, a_).dropped, 2u);
  EXPECT_EQ(network_.StatsFor(b_, a_).packets, 0u);
}

TEST_F(NetworkTest, DropsEmitTraceEvents) {
  trace::TraceBuffer buffer(64);
  network_.SetTracer(trace::Tracer(&buffer, sched_.NowPtr()));
  network_.SetReceiver(b_, [](Packet) {});

  network_.SetLinkUp(a_, b_, false);
  network_.Send(MakePacket(a_, b_, 100));   // downed link
  HostId c = network_.AddHost("c");
  network_.Send(MakePacket(a_, c, 250));    // missing link
  sched_.Run();

  ASSERT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer.at(0).type, trace::EventType::kNetDrop);
  EXPECT_EQ(buffer.at(0).u.net.dst_host, b_);
  EXPECT_EQ(buffer.at(1).u.net.dst_host, c);
  EXPECT_EQ(buffer.at(1).u.net.wire_size, 250u);
}

TEST_F(NetworkTest, StatsTrackPacketsAndBytes) {
  network_.SetReceiver(b_, [](Packet) {});
  network_.Send(MakePacket(a_, b_, 300));
  network_.Send(MakePacket(a_, b_, 200));
  sched_.Run();
  auto stats = network_.StatsFor(a_, b_);
  EXPECT_EQ(stats.packets, 2u);
  EXPECT_EQ(stats.bytes, 500u);
  EXPECT_EQ(network_.StatsFor(b_, a_).packets, 0u);
}

TEST_F(NetworkTest, PayloadArrivesIntact) {
  Bytes head;
  Bytes body;
  network_.SetReceiver(b_, [&](Packet p) {
    head = p.head.ToBytes();
    body = p.body.ToBytes();
  });
  Packet p = MakePacket(a_, b_, 64);
  p.head = Bytes{1, 2, 3, 4};
  p.body = Bytes{5, 6};
  network_.Send(std::move(p));
  sched_.Run();
  EXPECT_EQ(head, (Bytes{1, 2, 3, 4}));
  EXPECT_EQ(body, (Bytes{5, 6}));
}

TEST_F(NetworkTest, HostNames) {
  EXPECT_EQ(network_.HostName(a_), "a");
  EXPECT_EQ(network_.HostName(b_), "b");
  EXPECT_EQ(network_.HostCount(), 2u);
}

// Latency sweep mirroring the paper's Figure 5 setup: delivery time scales
// with configured RTT.
class LatencySweep : public ::testing::TestWithParam<int> {};

TEST_P(LatencySweep, OneWayLatencyHonored) {
  sim::Scheduler sched;
  Network network(sched);
  HostId a = network.AddHost("a");
  HostId b = network.AddHost("b");
  const Duration one_way = Microseconds(GetParam() * 500);  // RTT/2
  network.Connect(a, b, LinkConfig{one_way, 1'000'000'000});

  SimTime arrival = -1;
  network.SetReceiver(b, [&](Packet) { arrival = sched.Now(); });
  Packet p;
  p.src = {a, 1};
  p.dst = {b, 1};
  p.wire_size = 125;  // 1 us at 1 Gbps
  network.Send(std::move(p));
  sched.Run();
  EXPECT_EQ(arrival, one_way + Microseconds(1));
}

INSTANTIATE_TEST_SUITE_P(PaperRtts, LatencySweep,
                         ::testing::Values(1, 5, 10, 20, 40));  // ms RTT

}  // namespace
}  // namespace gvfs::net
