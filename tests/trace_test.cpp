// Tests for the trace subsystem: ring buffer mechanics, the Chrome
// trace-event exporter, the invariant checker over synthetic event streams,
// and an end-to-end seeded-violation scenario where the proxy server is
// deliberately broken (FaultHooks::skip_recalls) and the checker must catch it.
#include <gtest/gtest.h>

#include <sstream>

#include "gvfs/proto.h"
#include "nfs3/proto.h"
#include "test_util.h"
#include "trace/checker.h"
#include "trace/export.h"
#include "trace/trace.h"
#include "workloads/testbed.h"

namespace gvfs::trace {
namespace {

using testutil::RunTask;

class TracerFixture : public ::testing::Test {
 protected:
  TracerFixture() : buffer_(1 << 12), tracer_(&buffer_, &now_) {}

  SimTime now_ = 0;
  TraceBuffer buffer_;
  Tracer tracer_;
};

// ---------------------------------------------------------------------------
// Ring buffer
// ---------------------------------------------------------------------------

TEST(TraceBuffer, KeepsNewestEventsWhenFull) {
  TraceBuffer buffer(4);
  SimTime now = 0;
  Tracer tracer(&buffer, &now);
  for (int i = 0; i < 6; ++i) {
    now = i;
    tracer.Node(EventType::kNodeCrash, static_cast<HostId>(i));
  }
  EXPECT_EQ(buffer.size(), 4u);
  EXPECT_EQ(buffer.recorded(), 6u);
  EXPECT_EQ(buffer.dropped(), 2u);
  // Oldest surviving event is #2; order is preserved.
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    EXPECT_EQ(buffer.at(i).host, static_cast<HostId>(i + 2));
    EXPECT_EQ(buffer.at(i).time, static_cast<SimTime>(i + 2));
  }
}

TEST(TraceBuffer, DisabledTracerRecordsNothing) {
  Tracer disabled;
  EXPECT_FALSE(disabled.enabled());
  // Must be safe to call with no buffer attached.
  disabled.Node(EventType::kNodeCrash, 1);
  disabled.Rpc(EventType::kRpcSend, 1, 2, 3, 4, 5, 6, 7, "X");
}

TEST(TraceBuffer, LabelInterningIsStable) {
  TraceBuffer buffer(16);
  EXPECT_EQ(buffer.LabelName(0), "");
  const std::uint16_t a = buffer.InternLabel("GETATTR");
  const std::uint16_t b = buffer.InternLabel("LOOKUP");
  EXPECT_NE(a, b);
  EXPECT_EQ(buffer.InternLabel("GETATTR"), a);
  EXPECT_EQ(buffer.LabelName(a), "GETATTR");
  EXPECT_EQ(buffer.LabelName(b), "LOOKUP");
}

TEST_F(TracerFixture, EventsCarryClockAndPayload) {
  now_ = Seconds(3);
  tracer_.Rpc(EventType::kRpcSend, /*host=*/1, /*port=*/700, /*peer_host=*/2,
              /*peer_port=*/2049, /*xid=*/42, 100003, 4, "ACCESS");
  ASSERT_EQ(buffer_.size(), 1u);
  const Event& ev = buffer_.at(0);
  EXPECT_EQ(ev.time, Seconds(3));
  EXPECT_EQ(ev.type, EventType::kRpcSend);
  EXPECT_EQ(ev.host, 1u);
  EXPECT_EQ(ev.port, 700u);
  EXPECT_EQ(ev.u.rpc.xid, 42u);
  EXPECT_EQ(buffer_.LabelName(ev.u.rpc.label), "ACCESS");
}

// ---------------------------------------------------------------------------
// Chrome trace exporter
// ---------------------------------------------------------------------------

TEST_F(TracerFixture, ExporterRendersRpcSpansAndInstants) {
  now_ = Milliseconds(10);
  tracer_.Rpc(EventType::kRpcSend, 1, 700, 0, 2049, 7, 100003, 1, "GETATTR");
  now_ = Milliseconds(14);
  tracer_.Rpc(EventType::kRpcRetransmit, 1, 700, 0, 2049, 7, 100003, 1,
              "GETATTR");
  now_ = Milliseconds(50);
  tracer_.Rpc(EventType::kRpcReply, 1, 700, 0, 2049, 7, 100003, 1, "GETATTR");
  now_ = Milliseconds(60);
  tracer_.Deleg(EventType::kDelegGrant, 0, 1, 5, 2, 1, kDelegFlagServerSide, 0);

  ChromeTraceWriter writer;
  ChromeTraceOptions options;
  options.host_names = {"server", "c0"};
  writer.Add(buffer_, options);
  std::ostringstream out;
  writer.Write(out);
  const std::string json = out.str();

  // A complete ("X") span for the RPC, 40 ms long, with the retransmit
  // counted; an instant ("i") for the grant; process metadata for the hosts.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"GETATTR\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":40000"), std::string::npos);
  EXPECT_NE(json.find("\"retransmits\":1"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("DELEG_GRANT"), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("c0"), std::string::npos);
  // The array must be well-formed enough to end properly.
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), '\n');
}

TEST_F(TracerFixture, TimelineDumpListsEveryEvent) {
  now_ = Seconds(1);
  tracer_.Inv(EventType::kInvAppend, 0, 1, 9, 4, 2, 3);
  now_ = Seconds(2);
  tracer_.Cache(EventType::kCacheHit, 3, 1, 9, kNoOffset, "GETATTR");
  std::ostringstream out;
  WriteTimeline(buffer_, out, {"server"});
  const std::string text = out.str();
  EXPECT_NE(text.find("INV_APPEND"), std::string::npos);
  EXPECT_NE(text.find("CACHE_HIT"), std::string::npos);
  EXPECT_NE(text.find("GETATTR"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Invariant checker on synthetic streams
// ---------------------------------------------------------------------------

class CheckerFixture : public TracerFixture {
 protected:
  std::vector<Violation> Check() {
    return TraceChecker(proxy::NfsTraceCheckerConfig()).Check(buffer_);
  }

  /// Server-side grant bookkeeping event, as ProxyServer records it.
  void ServerGrant(HostId server, HostId client, std::uint32_t type) {
    tracer_.Deleg(EventType::kDelegGrant, server, 1, 5, type, client,
                  kDelegFlagServerSide, 0);
  }
  void ServerRelease(HostId server, HostId client) {
    tracer_.Deleg(EventType::kDelegRelease, server, 1, 5, 0, client,
                  kDelegFlagServerSide, 0);
  }
};

TEST_F(CheckerFixture, CleanStreamHasNoViolations) {
  ServerGrant(0, 1, 2);
  ServerRelease(0, 1);
  ServerGrant(0, 2, 2);
  EXPECT_TRUE(Check().empty());
}

TEST_F(CheckerFixture, DetectsConflictingWriteDelegations) {
  ServerGrant(0, 1, 2);
  ServerGrant(0, 2, 2);  // host 1 still holds write
  const auto violations = Check();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].kind, InvariantKind::kConflictingDelegation);
  EXPECT_EQ(violations[0].event_index, 1u);
}

TEST_F(CheckerFixture, ReadBesideWriteConflicts) {
  ServerGrant(0, 1, 2);
  ServerGrant(0, 2, 1);  // read grant while a write is outstanding
  EXPECT_EQ(Check().size(), 1u);
}

TEST_F(CheckerFixture, ConcurrentReadsAreFine) {
  ServerGrant(0, 1, 1);
  ServerGrant(0, 2, 1);
  ServerGrant(0, 3, 1);
  EXPECT_TRUE(Check().empty());
}

TEST_F(CheckerFixture, ServerCrashForgetsGrants) {
  ServerGrant(0, 1, 2);
  tracer_.Node(EventType::kNodeCrash, 0);
  ServerGrant(0, 2, 2);  // rebuilt state after recovery, not a conflict
  EXPECT_TRUE(Check().empty());
}

TEST_F(CheckerFixture, DetectsStaleReadAfterPollInvalidation) {
  tracer_.Cache(EventType::kCacheMiss, 3, 1, 9, kNoOffset, "");
  tracer_.Inv(EventType::kInvPoll, 3, 1, 9, 17, 1, 0);
  tracer_.Cache(EventType::kCacheHit, 3, 1, 9, kNoOffset, "GETATTR");
  const auto violations = Check();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].kind, InvariantKind::kStaleRead);
}

TEST_F(CheckerFixture, RefreshAfterInvalidationIsClean) {
  tracer_.Cache(EventType::kCacheMiss, 3, 1, 9, kNoOffset, "");
  tracer_.Inv(EventType::kInvPoll, 3, 1, 9, 17, 1, 0);
  tracer_.Cache(EventType::kCacheMiss, 3, 1, 9, kNoOffset, "");
  tracer_.Cache(EventType::kCacheHit, 3, 1, 9, kNoOffset, "GETATTR");
  EXPECT_TRUE(Check().empty());
}

TEST_F(CheckerFixture, ForceInvalidateCoversWholeCache) {
  tracer_.Cache(EventType::kCacheMiss, 3, 1, 9, kNoOffset, "");
  tracer_.Inv(EventType::kInvForce, 3, 0, 0, 17, 0, 0);
  tracer_.Cache(EventType::kCacheHit, 3, 1, 9, kNoOffset, "ACCESS");
  EXPECT_EQ(Check().size(), 1u);
}

TEST_F(CheckerFixture, DetectsRecallReplyWithoutWantedWriteBack) {
  tracer_.Deleg(EventType::kDelegRecall, 3, 1, 9, 2, 0,
                kDelegFlagHasWanted | kDelegFlagWantedDirty, 32768);
  tracer_.Deleg(EventType::kDelegRelease, 3, 1, 9, 2, 0, 0, 0);
  const auto violations = Check();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].kind, InvariantKind::kRecallWriteBack);
}

TEST_F(CheckerFixture, WantedBlockWrittenBackBeforeReplyIsClean) {
  tracer_.Deleg(EventType::kDelegRecall, 3, 1, 9, 2, 0,
                kDelegFlagHasWanted | kDelegFlagWantedDirty, 32768);
  tracer_.Cache(EventType::kCacheWriteBack, 3, 1, 9, 32768, "WRITE");
  tracer_.Deleg(EventType::kDelegRelease, 3, 1, 9, 2, 0, 0, 0);
  EXPECT_TRUE(Check().empty());
}

TEST_F(CheckerFixture, CleanWantedBlockNeedsNoWriteBack) {
  // has_wanted but not dirty at recall time: replying without a write-back
  // is correct.
  tracer_.Deleg(EventType::kDelegRecall, 3, 1, 9, 2, 0, kDelegFlagHasWanted, 0);
  tracer_.Deleg(EventType::kDelegRelease, 3, 1, 9, 2, 0, 0, 0);
  EXPECT_TRUE(Check().empty());
}

TEST_F(CheckerFixture, DetectsNonIdempotentReexecution) {
  tracer_.Rpc(EventType::kRpcExec, 0, 2049, 3, 700, 42, nfs3::kProgram,
              nfs3::kCreate, "");
  tracer_.Rpc(EventType::kRpcExec, 0, 2049, 3, 700, 42, nfs3::kProgram,
              nfs3::kCreate, "");
  const auto violations = Check();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].kind, InvariantKind::kDrcReexec);
}

TEST_F(CheckerFixture, IdempotentReexecutionIsAllowed) {
  tracer_.Rpc(EventType::kRpcExec, 0, 2049, 3, 700, 42, nfs3::kProgram,
              nfs3::kGetAttr, "");
  tracer_.Rpc(EventType::kRpcExec, 0, 2049, 3, 700, 42, nfs3::kProgram,
              nfs3::kGetAttr, "");
  EXPECT_TRUE(Check().empty());
}

TEST_F(CheckerFixture, DistinctXidsAreDistinctRequests) {
  tracer_.Rpc(EventType::kRpcExec, 0, 2049, 3, 700, 42, nfs3::kProgram,
              nfs3::kCreate, "");
  tracer_.Rpc(EventType::kRpcExec, 0, 2049, 3, 700, 43, nfs3::kProgram,
              nfs3::kCreate, "");
  EXPECT_TRUE(Check().empty());
}

TEST_F(CheckerFixture, FormatViolationsNamesInvariant) {
  ServerGrant(0, 1, 2);
  ServerGrant(0, 2, 2);
  const auto violations = Check();
  const std::string text = FormatViolations(violations);
  EXPECT_NE(text.find("conflicting-delegation"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Ring wraparound and truncation reporting
// ---------------------------------------------------------------------------

std::size_t CountOccurrences(const std::string& text,
                             const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

/// Overflows a small ring with `total` node events stamped 0..total-1.
void Overflow(TraceBuffer& buffer, int total) {
  SimTime now = 0;
  Tracer tracer(&buffer, &now);
  for (int i = 0; i < total; ++i) {
    now = i;
    tracer.Node(EventType::kNodeCrash, static_cast<HostId>(i % 7));
  }
}

TEST(TraceBuffer, SustainedOverflowAccountsEveryDrop) {
  constexpr std::size_t kCapacity = 8;
  constexpr int kTotal = 1000;
  TraceBuffer buffer(kCapacity);
  Overflow(buffer, kTotal);

  // Exact accounting across many wraps: every push beyond capacity is one
  // drop, never more, never fewer.
  EXPECT_EQ(buffer.size(), kCapacity);
  EXPECT_EQ(buffer.recorded(), static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(buffer.dropped(), buffer.recorded() - kCapacity);
  // The survivors are the newest kCapacity events, still in order.
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    EXPECT_EQ(buffer.at(i).time,
              static_cast<SimTime>(kTotal - kCapacity + i));
  }

  // Clear resets both counters, so a reused ring cannot inherit stale
  // truncation state.
  buffer.Clear();
  EXPECT_EQ(buffer.recorded(), 0u);
  EXPECT_EQ(buffer.dropped(), 0u);
  Overflow(buffer, static_cast<int>(kCapacity));
  EXPECT_EQ(buffer.dropped(), 0u);
}

TEST(TraceTruncation, ExporterEmitsOneTruncationInstantPerAdd) {
  TraceBuffer buffer(4);
  Overflow(buffer, 10);

  ChromeTraceWriter writer;
  writer.Add(buffer, {});
  std::ostringstream once;
  writer.Write(once);
  EXPECT_EQ(CountOccurrences(once.str(), "TRACE_TRUNCATED"), 1u);
  // The instant carries the exact drop count, machine-readable.
  EXPECT_NE(once.str().find("\"dropped_events\":6"), std::string::npos);

  // A second Add (merging another buffer view) reports its own truncation:
  // one instant per truncated buffer added, not one per writer.
  writer.Add(buffer, {});
  std::ostringstream twice;
  writer.Write(twice);
  EXPECT_EQ(CountOccurrences(twice.str(), "TRACE_TRUNCATED"), 2u);
}

TEST(TraceTruncation, ExporterStaysSilentWithoutOverflow) {
  TraceBuffer buffer(16);
  Overflow(buffer, 10);
  ChromeTraceWriter writer;
  writer.Add(buffer, {});
  std::ostringstream out;
  writer.Write(out);
  EXPECT_EQ(CountOccurrences(out.str(), "TRACE_TRUNCATED"), 0u);
}

TEST(TraceTruncation, TimelineWarnsOncePerCall) {
  TraceBuffer buffer(4);
  Overflow(buffer, 10);
  std::ostringstream out;
  WriteTimeline(buffer, out, {});
  EXPECT_EQ(CountOccurrences(out.str(), "WARNING: trace buffer overflowed"),
            1u);
  EXPECT_NE(out.str().find("6 oldest events dropped"), std::string::npos);

  // The warning precedes the surviving events, so a reader sees the caveat
  // before trusting the timeline.
  EXPECT_LT(out.str().find("WARNING"), out.str().find("NODE_CRASH"));
}

TEST(TraceTruncation, CheckerRecordsExactlyOneTruncationWarning) {
  TraceBuffer buffer(4);
  Overflow(buffer, 10);
  TraceChecker checker(proxy::NfsTraceCheckerConfig());
  (void)checker.Check(buffer);
  ASSERT_EQ(checker.warnings().size(), 1u);
  EXPECT_NE(checker.warnings()[0].find("6 oldest events dropped"),
            std::string::npos);

  // Re-running the same checker must not accumulate duplicates: warnings
  // describe the latest Check, not the checker's lifetime.
  (void)checker.Check(buffer);
  EXPECT_EQ(checker.warnings().size(), 1u);
}

// ---------------------------------------------------------------------------
// Seeded violation, end to end
// ---------------------------------------------------------------------------

TEST(SeededViolation, SkippedRecallsAreCaughtByChecker) {
  using kclient::OpenFlags;
  using workloads::Testbed;
  constexpr OpenFlags kCreateWrite{.read = true, .write = true, .create = true};

  Testbed bed;
  bed.AddWanClient();
  bed.AddWanClient();
  TraceBuffer& buffer = bed.EnableTracing();
  // Fault injection: the server grants write delegations without recalling
  // the conflicting holder first.
  bed.InjectFaults({.skip_recalls = true});

  proxy::SessionConfig config;
  config.model = proxy::ConsistencyModel::kDelegationCallback;
  config.cache_mode = proxy::CacheMode::kWriteBack;
  config.wb_flush_period = 0;
  kclient::MountOptions noac;
  noac.noac = true;
  auto& session = bed.CreateSession(config, {0, 1}, noac);

  // Client 0 acquires a write delegation...
  auto fd0 = RunTask(bed.sched(), session.mount(0).Open("/f", kCreateWrite));
  ASSERT_TRUE(fd0.has_value());
  (void)RunTask(bed.sched(), session.mount(0).Write(*fd0, 0, Bytes(1024, 1)));
  // ...and client 1 then writes the same file. With recalls skipped the
  // server hands out a second write delegation while the first is live.
  auto fd1 = RunTask(bed.sched(), session.mount(1).Open("/f", kCreateWrite));
  ASSERT_TRUE(fd1.has_value());
  (void)RunTask(bed.sched(), session.mount(1).Write(*fd1, 0, Bytes(1024, 2)));

  ASSERT_EQ(buffer.dropped(), 0u);
  const auto violations =
      TraceChecker(proxy::NfsTraceCheckerConfig()).Check(buffer);
  ASSERT_FALSE(violations.empty())
      << "checker missed the deliberately conflicting write delegations";
  EXPECT_EQ(violations[0].kind, InvariantKind::kConflictingDelegation);
}

}  // namespace
}  // namespace gvfs::trace
