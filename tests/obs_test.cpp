// Unit tests for the diagnosis layer (src/obs): watchdog detectors driven
// deterministically through ScanNow(), the detector table's internal
// consistency, the dump format's event lines and round-trip, the Chrome
// trace round-trip through the doctor's reader, and the JSON reader the
// doctor is built on. End-to-end dump/doctor coverage lives in the doctor
// ctest tier (tools/doctor/doctor_check.py); these tests pin the pieces.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/json_value.h"
#include "doctor.h"
#include "metrics/registry.h"
#include "obs/anomaly.h"
#include "obs/dump.h"
#include "sim/scheduler.h"
#include "trace/export.h"
#include "trace/trace.h"

namespace gvfs {
namespace {

using obs::Anomaly;
using obs::AnomalyKind;
using obs::ObsConfig;
using obs::Watchdog;

// ---------------------------------------------------------------------------
// Detector table consistency
// ---------------------------------------------------------------------------

TEST(DetectorTable, EnumeratorsNamesAndRegistryAgree) {
  // Raise() indexes the per-kind counters by static_cast<size_t>(kind) while
  // AttachMetrics() fills them in kDetectors order, so the registry must be
  // in enum order with every name round-tripping.
  for (std::size_t i = 0; i < obs::kDetectorCount; ++i) {
    const obs::DetectorInfo& d = obs::kDetectors[i];
    EXPECT_EQ(static_cast<std::size_t>(d.kind), i);
    EXPECT_STREQ(obs::AnomalyKindName(d.kind), d.name);
    AnomalyKind parsed = AnomalyKind::kRecallStorm;
    EXPECT_TRUE(obs::AnomalyKindFromName(d.name, &parsed));
    EXPECT_EQ(parsed, d.kind);
  }
  AnomalyKind parsed = AnomalyKind::kRecallStorm;
  EXPECT_FALSE(obs::AnomalyKindFromName("no-such-detector", &parsed));
}

// ---------------------------------------------------------------------------
// Watchdog detectors (synchronous ScanNow passes; no scheduler run needed)
// ---------------------------------------------------------------------------

std::vector<AnomalyKind> Kinds(const Watchdog& dog) {
  std::vector<AnomalyKind> kinds;
  for (const Anomaly& a : dog.anomalies()) kinds.push_back(a.kind);
  return kinds;
}

TEST(Watchdog, RecallStormFiresPerWindowDelta) {
  sim::Scheduler sched;
  metrics::Registry registry;
  double reads = 0, writes = 0;
  registry.AddProbe("s0.recalls_read", [&] { return reads; });
  registry.AddProbe("s0.recalls_write", [&] { return writes; });

  ObsConfig config;
  config.recall_storm_threshold = 64;
  Watchdog dog(sched, config);
  dog.WatchRegistry(&registry);
  dog.AttachMetrics(registry);

  // First window: 40 + 23 = 63 recalls, under the threshold.
  reads = 40;
  writes = 23;
  dog.ScanNow();
  EXPECT_TRUE(dog.anomalies().empty());

  // Second window: +64 recalls. The detector gates on the per-window delta,
  // not the absolute total.
  reads += 30;
  writes += 34;
  dog.ScanNow();
  ASSERT_EQ(dog.anomalies().size(), 1u);
  EXPECT_EQ(dog.anomalies()[0].kind, AnomalyKind::kRecallStorm);
  EXPECT_EQ(dog.anomalies()[0].value, 64.0);
  EXPECT_EQ(dog.anomalies()[0].threshold, 64.0);

  // Quiet window: no new firing, and the counters reflect exactly one.
  dog.ScanNow();
  EXPECT_EQ(dog.anomalies().size(), 1u);
  EXPECT_EQ(registry.GetCounter("obs.anomalies").value(), 1u);
  EXPECT_EQ(registry.GetCounter("obs.anomaly.recall-storm").value(), 1u);
}

TEST(Watchdog, StalenessSloLatchesUntilRecovery) {
  sim::Scheduler sched;
  metrics::Registry registry;
  registry.GetHistogram("s0.staleness_us").Record(50'000'000);  // 50 s

  Watchdog dog(sched);
  dog.WatchRegistry(&registry);
  dog.AddStalenessSlo("s0.staleness_us", Seconds(10));

  dog.ScanNow();
  ASSERT_EQ(dog.anomalies().size(), 1u);
  EXPECT_EQ(dog.anomalies()[0].kind, AnomalyKind::kStalenessSlo);
  EXPECT_NE(dog.anomalies()[0].detail.find("s0.staleness_us"),
            std::string::npos);

  // A p99 still over budget must not re-fire every window: the SLO latches
  // until the histogram recovers.
  dog.ScanNow();
  EXPECT_EQ(dog.anomalies().size(), 1u);
}

TEST(Watchdog, InvOverflowFiresOnWrapAndOnRisingOccupancy) {
  sim::Scheduler sched;
  metrics::Registry registry;
  double wraps = 0, entries = 0;
  registry.AddProbe("s0.inv_wraps", [&] { return wraps; });
  registry.AddProbe("s0.inv_buffer_entries", [&] { return entries; });

  Watchdog dog(sched);  // 3 rising windows at or above 1024 entries
  dog.WatchRegistry(&registry);

  // Steady state below the floor: nothing fires.
  entries = 500;
  dog.ScanNow();
  dog.ScanNow();
  EXPECT_TRUE(dog.anomalies().empty());

  // One buffer wrap in a window fires immediately.
  wraps = 1;
  dog.ScanNow();
  ASSERT_EQ(dog.anomalies().size(), 1u);
  EXPECT_EQ(dog.anomalies()[0].kind, AnomalyKind::kInvOverflow);

  // Occupancy rising above the floor for three consecutive windows fires
  // the trend arm (the wrap counter stays flat from here on).
  entries = 2000;
  dog.ScanNow();
  entries = 3000;
  dog.ScanNow();
  EXPECT_EQ(dog.anomalies().size(), 1u);  // two rising windows: not yet
  entries = 4000;
  dog.ScanNow();
  ASSERT_EQ(dog.anomalies().size(), 2u);
  EXPECT_EQ(dog.anomalies()[1].kind, AnomalyKind::kInvOverflow);
  EXPECT_EQ(dog.anomalies()[1].value, 4000.0);
}

TEST(Watchdog, ShardImbalanceNeedsRatioAndAbsoluteLoad) {
  sim::Scheduler sched;
  metrics::Registry registry;
  std::vector<double> load = {100, 0, 0, 0, 0};
  for (std::size_t i = 0; i < load.size(); ++i) {
    registry.AddProbe("shard" + std::to_string(i) + ".inv_buffer_entries",
                      [&load, i] { return load[i]; });
  }
  Watchdog dog(sched);  // defaults: ratio 4.0, min 256 entries
  dog.WatchRegistry(&registry);
  dog.WatchShardGroup("servers",
                      {"shard0.inv_buffer_entries", "shard1.inv_buffer_entries",
                       "shard2.inv_buffer_entries", "shard3.inv_buffer_entries",
                       "shard4.inv_buffer_entries"});

  // Ratio 5x but only 100 entries: below kImbalanceMin, stays quiet.
  dog.ScanNow();
  EXPECT_TRUE(dog.anomalies().empty());

  // 10000 vs mean 2000: fires once, then latches while it persists.
  load[0] = 10000;
  dog.ScanNow();
  dog.ScanNow();
  ASSERT_EQ(dog.anomalies().size(), 1u);
  EXPECT_EQ(dog.anomalies()[0].kind, AnomalyKind::kShardImbalance);
  EXPECT_EQ(dog.anomalies()[0].value, 5.0);

  // Rebalanced, then skewed again: the latch re-arms.
  load = {2000, 2000, 2000, 2000, 2000};
  dog.ScanNow();
  load = {10000, 100, 100, 100, 100};
  dog.ScanNow();
  EXPECT_EQ(dog.anomalies().size(), 2u);
}

TEST(Watchdog, MigrationFlapCountsClientSideCompletions) {
  sim::Scheduler sched;
  SimTime clock = 0;
  trace::TraceBuffer buffer(256);
  trace::Tracer tracer(&buffer, &clock);

  Watchdog dog(sched);  // 3 migrations within 30 s
  dog.WatchTrace(&buffer);

  // Two client-side migrations of file 5:77 plus a server-side record (which
  // must not double-count) stay under the threshold...
  clock = Seconds(1);
  tracer.Policy(trace::EventType::kPolicyMigrate, 4, 5, 77, 0, 1, 0);
  clock = Seconds(2);
  tracer.Policy(trace::EventType::kPolicyMigrate, 4, 5, 77, 1, 0,
                trace::kPolicyFlagServerSide);
  tracer.Policy(trace::EventType::kPolicyMigrate, 4, 5, 77, 1, 0, 0);
  // ...and a third migration of a different file does not conflate.
  clock = Seconds(3);
  tracer.Policy(trace::EventType::kPolicyMigrate, 4, 5, 99, 0, 1, 0);
  dog.ScanNow();
  EXPECT_TRUE(dog.anomalies().empty());

  // The third flip of 5:77 inside the window crosses the threshold.
  clock = Seconds(4);
  tracer.Policy(trace::EventType::kPolicyMigrate, 4, 5, 77, 0, 1, 0);
  dog.ScanNow();
  ASSERT_EQ(Kinds(dog), std::vector{AnomalyKind::kMigrationFlap});
  EXPECT_EQ(dog.anomalies()[0].fsid, 5u);
  EXPECT_EQ(dog.anomalies()[0].ino, 77u);
  EXPECT_EQ(dog.anomalies()[0].host, 4u);
}

TEST(Watchdog, FiringEmitsTraceEventAndInvokesHook) {
  sim::Scheduler sched;
  metrics::Registry registry;
  double reads = 100;
  registry.AddProbe("s0.recalls_read", [&] { return reads; });

  SimTime clock = 0;
  trace::TraceBuffer buffer(64);

  ObsConfig config;
  config.recall_storm_threshold = 64;
  Watchdog dog(sched, config);
  dog.WatchRegistry(&registry);
  dog.SetTracer(trace::Tracer(&buffer, &clock), /*host=*/7);
  std::vector<Anomaly> hooked;
  dog.SetOnAnomaly([&](const Anomaly& a) { hooked.push_back(a); });

  dog.ScanNow();  // first window total 100 >= 64
  ASSERT_EQ(dog.anomalies().size(), 1u);
  ASSERT_EQ(hooked.size(), 1u);
  EXPECT_EQ(hooked[0].kind, AnomalyKind::kRecallStorm);

  ASSERT_EQ(buffer.size(), 1u);
  const trace::Event& ev = buffer.at(0);
  EXPECT_EQ(ev.type, trace::EventType::kAnomaly);
  EXPECT_EQ(ev.host, 7u);  // fleet-scoped firing attributed to the server
  EXPECT_EQ(ev.u.anomaly.kind,
            static_cast<std::uint32_t>(AnomalyKind::kRecallStorm));
  EXPECT_EQ(ev.u.anomaly.value, 100.0);
  EXPECT_EQ(ev.u.anomaly.threshold, 64.0);
}

// ---------------------------------------------------------------------------
// Dump format: EventToJson / EventFromJson round-trip
// ---------------------------------------------------------------------------

/// Records one event of every EventType, in enumerator order, at strictly
/// increasing times, with payload values that differ from field to field.
void RecordEveryEventType(trace::TraceBuffer& buffer) {
  using trace::EventType;
  SimTime clock = Seconds(12) + 3;
  trace::Tracer tracer(&buffer, &clock);
  auto step = [&] { clock += Microseconds(7) + 1; };
  std::uint32_t xid = 40;
  for (EventType type :
       {EventType::kRpcSend, EventType::kRpcRetransmit, EventType::kRpcReply,
        EventType::kRpcTimeout, EventType::kRpcExec,
        EventType::kRpcHandlerDone, EventType::kRpcDrcHit}) {
    ++xid;
    tracer.Rpc(type, 1, 700, 2, 2049, xid, 100003, 6, "READ", 17, xid + 100,
               xid + 200);
    step();
  }
  tracer.NetDrop(3, 4, 1500);
  step();
  tracer.Cache(EventType::kCacheHit, 1, 5, 10, trace::kNoOffset, "GETATTR");
  step();
  tracer.Cache(EventType::kCacheMiss, 1, 5, 11, trace::kNoOffset, "");
  step();
  tracer.Cache(EventType::kCacheWriteBack, 1, 5, 12, 32768, "WRITE");
  step();
  tracer.Deleg(EventType::kDelegGrant, 0, 5, 20, 2, 1,
               trace::kDelegFlagServerSide, 0);
  step();
  tracer.Deleg(EventType::kDelegRecall, 1, 5, 21, 2, 0,
               trace::kDelegFlagHasWanted | trace::kDelegFlagWantedDirty,
               4096);
  step();
  tracer.Deleg(EventType::kDelegRelease, 1, 5, 22, 1, 0, 0, 0);
  step();
  tracer.Deleg(EventType::kDelegExpiry, 0, 5, 23, 1, 2,
               trace::kDelegFlagServerSide, 0);
  step();
  tracer.Inv(EventType::kInvAppend, 0, 5, 30, 1001, 1, 1);
  step();
  tracer.Inv(EventType::kInvPoll, 1, 5, 31, 1002, 2, 0);
  step();
  tracer.Inv(EventType::kInvWrap, 0, 0, 0, 1003, 3, 2);
  step();
  tracer.Inv(EventType::kInvForce, 2, 0, 0, 1004, 0, 0);  // whole cache
  step();
  tracer.Inv(EventType::kAggFanout, 8, 5, 34, 1005, 5, 1);
  step();
  tracer.Inv(EventType::kAggIngest, 8, 5, 34, 1006, 6, 0);
  step();
  tracer.Inv(EventType::kAggDeliver, 8, 5, 34, 1007, 7, 1);
  step();
  tracer.Inv(EventType::kAggServe, 8, 0, 0, 1008, 8, 1);
  step();
  tracer.Node(EventType::kNodeCrash, 6);
  step();
  tracer.Node(EventType::kNodeRecover, 6);
  step();
  tracer.Policy(EventType::kPolicyDecide, 1, 5, 40, 0, 1,
                trace::kPolicyFlagFrozen);
  step();
  tracer.Policy(EventType::kPolicyMigrate, 0, 5, 41, 1, 2,
                trace::kPolicyFlagServerSide);
  step();
  tracer.Anomaly(1, 5, 42, 2, 65.5, 64.0);
}

TEST(DumpFormat, EveryEventTypeEncodesToItsGoldenLine) {
  // The .gvfsdump line of each event type, byte for byte: the format that
  // existing dumps and the doctor depend on.
  const char* const kGolden[] = {
      R"({"t":12000000003,"type":"RPC_SEND","host":1,"port":700,"peer_host":2,"peer_port":2049,"xid":41,"prog":100003,"proc":6,"label":"READ","trace_id":17,"span_id":141,"parent_span_id":241})",
      R"({"t":12000007004,"type":"RPC_RETRANSMIT","host":1,"port":700,"peer_host":2,"peer_port":2049,"xid":42,"prog":100003,"proc":6,"label":"READ","trace_id":17,"span_id":142,"parent_span_id":242})",
      R"({"t":12000014005,"type":"RPC_REPLY","host":1,"port":700,"peer_host":2,"peer_port":2049,"xid":43,"prog":100003,"proc":6,"label":"READ","trace_id":17,"span_id":143,"parent_span_id":243})",
      R"({"t":12000021006,"type":"RPC_TIMEOUT","host":1,"port":700,"peer_host":2,"peer_port":2049,"xid":44,"prog":100003,"proc":6,"label":"READ","trace_id":17,"span_id":144,"parent_span_id":244})",
      R"({"t":12000028007,"type":"RPC_EXEC","host":1,"port":700,"peer_host":2,"peer_port":2049,"xid":45,"prog":100003,"proc":6,"label":"READ","trace_id":17,"span_id":145,"parent_span_id":245})",
      R"({"t":12000035008,"type":"RPC_HANDLER_DONE","host":1,"port":700,"peer_host":2,"peer_port":2049,"xid":46,"prog":100003,"proc":6,"label":"READ","trace_id":17,"span_id":146,"parent_span_id":246})",
      R"({"t":12000042009,"type":"RPC_DRC_HIT","host":1,"port":700,"peer_host":2,"peer_port":2049,"xid":47,"prog":100003,"proc":6,"label":"READ","trace_id":17,"span_id":147,"parent_span_id":247})",
      R"({"t":12000049010,"type":"NET_DROP","host":3,"dst_host":4,"wire_size":1500})",
      R"({"t":12000056011,"type":"CACHE_HIT","host":1,"fsid":5,"ino":10,"offset":18446744073709551615,"op":"GETATTR"})",
      R"({"t":12000063012,"type":"CACHE_MISS","host":1,"fsid":5,"ino":11,"offset":18446744073709551615,"op":""})",
      R"({"t":12000070013,"type":"CACHE_WRITEBACK","host":1,"fsid":5,"ino":12,"offset":32768,"op":"WRITE"})",
      R"({"t":12000077014,"type":"DELEG_GRANT","host":0,"fsid":5,"ino":20,"wanted_offset":0,"deleg_type":2,"peer_host":1,"flags":1})",
      R"({"t":12000084015,"type":"DELEG_RECALL","host":1,"fsid":5,"ino":21,"wanted_offset":4096,"deleg_type":2,"peer_host":0,"flags":6})",
      R"({"t":12000091016,"type":"DELEG_RELEASE","host":1,"fsid":5,"ino":22,"wanted_offset":0,"deleg_type":1,"peer_host":0,"flags":0})",
      R"({"t":12000098017,"type":"DELEG_EXPIRY","host":0,"fsid":5,"ino":23,"wanted_offset":0,"deleg_type":1,"peer_host":2,"flags":1})",
      R"({"t":12000105018,"type":"INV_APPEND","host":0,"fsid":5,"ino":30,"timestamp":1001,"count":1,"peer_host":1})",
      R"({"t":12000112019,"type":"INV_POLL","host":1,"fsid":5,"ino":31,"timestamp":1002,"count":2,"peer_host":0})",
      R"({"t":12000119020,"type":"INV_WRAP","host":0,"fsid":0,"ino":0,"timestamp":1003,"count":3,"peer_host":2})",
      R"({"t":12000126021,"type":"INV_FORCE","host":2,"fsid":0,"ino":0,"timestamp":1004,"count":0,"peer_host":0})",
      R"({"t":12000133022,"type":"AGG_FANOUT","host":8,"fsid":5,"ino":34,"timestamp":1005,"count":5,"peer_host":1})",
      R"({"t":12000140023,"type":"AGG_INGEST","host":8,"fsid":5,"ino":34,"timestamp":1006,"count":6,"peer_host":0})",
      R"({"t":12000147024,"type":"AGG_DELIVER","host":8,"fsid":5,"ino":34,"timestamp":1007,"count":7,"peer_host":1})",
      R"({"t":12000154025,"type":"AGG_SERVE","host":8,"fsid":0,"ino":0,"timestamp":1008,"count":8,"peer_host":1})",
      R"({"t":12000161026,"type":"NODE_CRASH","host":6})",
      R"({"t":12000168027,"type":"NODE_RECOVER","host":6})",
      R"({"t":12000175028,"type":"POLICY_DECIDE","host":1,"fsid":5,"ino":40,"from":0,"to":1,"flags":2})",
      R"({"t":12000182029,"type":"POLICY_MIGRATE","host":0,"fsid":5,"ino":41,"from":1,"to":2,"flags":1})",
      R"({"t":12000189030,"type":"ANOMALY","host":1,"fsid":5,"ino":42,"kind":2,"value":65.5,"threshold":64})",
  };
  trace::TraceBuffer buffer(64);
  RecordEveryEventType(buffer);
  ASSERT_EQ(buffer.size(), std::size(kGolden));
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    EXPECT_EQ(buffer.at(i).type, static_cast<trace::EventType>(i));
    EXPECT_EQ(obs::EventToJson(buffer, buffer.at(i)), kGolden[i]);
  }
}

/// Serializes `ev` out of `src` and parses it back into `dst`.
trace::Event RoundTrip(const trace::TraceBuffer& src, const trace::Event& ev,
                       trace::TraceBuffer& dst) {
  const std::string json = obs::EventToJson(src, ev);
  JsonParser parser;
  const JsonValue doc = parser.Parse(json);
  EXPECT_TRUE(parser.ok()) << parser.error() << " in " << json;
  trace::Event out;
  EXPECT_TRUE(obs::EventFromJson(doc, dst, &out)) << json;
  EXPECT_EQ(out.time, ev.time);
  EXPECT_EQ(out.type, ev.type);
  EXPECT_EQ(out.host, ev.host);
  EXPECT_EQ(out.port, ev.port);
  return out;
}

TEST(DumpFormat, EveryPayloadFamilyRoundTrips) {
  trace::TraceBuffer src(64);
  RecordEveryEventType(src);
  // Labels are re-interned into the destination buffer, so ids differ while
  // the text must survive. Re-encoding the parsed event out of `dst` checks
  // every field, label text included.
  trace::TraceBuffer dst(64);
  dst.InternLabel("shifts every label id");
  for (std::size_t i = 0; i < src.size(); ++i) {
    const trace::Event out = RoundTrip(src, src.at(i), dst);
    EXPECT_EQ(obs::EventToJson(dst, out), obs::EventToJson(src, src.at(i)));
  }

  const trace::Event rpc = RoundTrip(src, src.at(0), dst);
  EXPECT_EQ(rpc.u.rpc.xid, 41u);
  EXPECT_EQ(rpc.u.rpc.parent_span_id, 241u);
  EXPECT_EQ(dst.LabelName(rpc.u.rpc.label), "READ");
  const trace::Event hit = RoundTrip(src, src.at(8), dst);
  EXPECT_EQ(hit.u.cache.offset, trace::kNoOffset);
  EXPECT_EQ(dst.LabelName(hit.u.cache.label), "GETATTR");
  const trace::Event anomaly = RoundTrip(src, src.at(src.size() - 1), dst);
  EXPECT_EQ(anomaly.u.anomaly.value, 65.5);
  EXPECT_EQ(anomaly.u.anomaly.threshold, 64.0);

  // A field missing from the input keeps its declared default.
  JsonParser parser;
  trace::Event partial;
  ASSERT_TRUE(obs::EventFromJson(
      parser.Parse(R"({"t":5,"type":"CACHE_HIT","host":1,"fsid":5,"ino":10})"),
      dst, &partial));
  EXPECT_EQ(partial.u.cache.offset, trace::kNoOffset);
}

TEST(ChromeTrace, EveryInstantComesBackFromTheDoctorReader) {
  trace::TraceBuffer src(64);
  RecordEveryEventType(src);
  trace::ChromeTraceWriter writer;
  writer.Add(src, {});
  const std::string path = ::testing::TempDir() + "every_event_type.json";
  ASSERT_TRUE(writer.WriteTo(path));
  obs::DumpFile dump;
  std::string error;
  ASSERT_TRUE(doctor::ReadChromeTrace(path, &dump, &error)) << error;

  // RPC calls and handler runs fold into spans; every other event is an
  // instant whose args carry its payload, so it comes back whole.
  const std::set<trace::EventType> folded = {
      trace::EventType::kRpcSend,    trace::EventType::kRpcRetransmit,
      trace::EventType::kRpcReply,   trace::EventType::kRpcTimeout,
      trace::EventType::kRpcExec,    trace::EventType::kRpcHandlerDone};
  std::vector<std::string> sent;
  for (std::size_t i = 0; i < src.size(); ++i) {
    if (folded.count(src.at(i).type) != 0) continue;
    sent.push_back(obs::EventToJson(src, src.at(i)));
  }
  std::vector<std::string> read;
  for (std::size_t i = 0; i < dump.trace.size(); ++i) {
    read.push_back(obs::EventToJson(dump.trace, dump.trace.at(i)));
  }
  EXPECT_EQ(read, sent);
}

TEST(DoctorReport, FilesAreTheNonzeroHandlesEventsName) {
  // Whole-cache invalidations and GETINV batches name handle 0:0; they, and
  // the families without a handle, belong to no file.
  obs::DumpFile dump;
  dump.trace = trace::TraceBuffer(64);
  RecordEveryEventType(dump.trace);
  const doctor::DoctorReport report = doctor::Diagnose(dump);
  std::set<std::pair<std::uint64_t, std::uint64_t>> files;
  for (const auto& f : report.files) files.insert({f.fsid, f.ino});
  const std::set<std::pair<std::uint64_t, std::uint64_t>> named = {
      {5, 10}, {5, 11}, {5, 12}, {5, 20}, {5, 21}, {5, 22}, {5, 23},
      {5, 30}, {5, 31}, {5, 34}, {5, 40}, {5, 41}, {5, 42}};
  EXPECT_EQ(files, named);
}

/// The timeline Diagnose reports for file 5:`ino`.
doctor::FileTimeline TimelineOf(const obs::DumpFile& dump, std::uint64_t ino) {
  for (const auto& f : doctor::Diagnose(dump).files) {
    if (f.fsid == 5 && f.ino == ino) return f;
  }
  ADD_FAILURE() << "no timeline for 5:" << ino;
  return {};
}

TEST(DoctorReport, CountsEachDelegationFactOnce) {
  // The server records a grant and a recall; the grantee records storing
  // the grant and receiving the recall. That is one grant and one recall.
  using trace::EventType;
  obs::DumpFile dump;
  dump.trace = trace::TraceBuffer(16);
  SimTime clock = 0;
  trace::Tracer tracer(&dump.trace, &clock);
  tracer.Deleg(EventType::kDelegGrant, 0, 5, 50, 1, 1, trace::kDelegFlagServerSide, 0);
  tracer.Deleg(EventType::kDelegGrant, 1, 5, 50, 1, 0, 0, 0);
  tracer.Deleg(EventType::kDelegRecall, 0, 5, 50, 1, 1, trace::kDelegFlagServerSide, 0);
  tracer.Deleg(EventType::kDelegRecall, 1, 5, 50, 1, 0, 0, 0);
  const doctor::FileTimeline tl = TimelineOf(dump, 50);
  EXPECT_EQ(tl.grants, 1u);
  EXPECT_EQ(tl.recalls, 1u);
}

TEST(DoctorReport, MigrateDrainIsNotAnAppliedInvalidation) {
  // Server 0 buffers two entries for client 1. The client applies one from
  // a poll; the server drains the other during a MIGRATE, which it records
  // as INV_POLL on its own host. One invalidation was applied.
  using trace::EventType;
  obs::DumpFile dump;
  dump.trace = trace::TraceBuffer(16);
  SimTime clock = 0;
  trace::Tracer tracer(&dump.trace, &clock);
  tracer.Inv(EventType::kInvAppend, 0, 5, 60, 1001, 1, 1);
  tracer.Inv(EventType::kInvAppend, 0, 5, 60, 1002, 1, 1);
  tracer.Inv(EventType::kInvPoll, 1, 5, 60, 1001, 1, 0);
  tracer.Inv(EventType::kInvPoll, 0, 5, 60, 1002, 1, 1);
  const doctor::FileTimeline tl = TimelineOf(dump, 60);
  EXPECT_EQ(tl.invs_buffered, 2u);
  EXPECT_EQ(tl.invs_applied, 1u);
}

TEST(DumpFormat, RejectsUnknownEventType) {
  JsonParser parser;
  const JsonValue doc =
      parser.Parse(R"({"t":0,"type":"NOT_A_REAL_EVENT","host":1})");
  ASSERT_TRUE(parser.ok());
  trace::TraceBuffer buffer(8);
  trace::Event out;
  EXPECT_FALSE(obs::EventFromJson(doc, buffer, &out));
  EXPECT_EQ(buffer.size(), 0u);
}

TEST(DumpFormat, EventTypeNamesRoundTripThroughTheInverse) {
  // EventTypeFromName is the dump reader's inverse of EventTypeName; it must
  // cover every enumerator or ReadDump silently drops that event family.
  for (int i = 0; i <= static_cast<int>(trace::EventType::kAnomaly); ++i) {
    const auto type = static_cast<trace::EventType>(i);
    trace::EventType parsed = trace::EventType::kRpcSend;
    ASSERT_TRUE(trace::EventTypeFromName(trace::EventTypeName(type), &parsed))
        << trace::EventTypeName(type);
    EXPECT_EQ(parsed, type);
  }
}

// ---------------------------------------------------------------------------
// JSON reader
// ---------------------------------------------------------------------------

TEST(JsonReader, ParsesNestedDocumentsWithChainedLookups) {
  JsonParser parser;
  const JsonValue doc = parser.Parse(
      R"({"trace":{"events":[{"type":"INV_APPEND","t":5},)"
      R"({"type":"RPC_SEND","t":6}]},"healthy":false,"pi":3.5})");
  ASSERT_TRUE(parser.ok()) << parser.error();
  EXPECT_EQ(doc["trace"]["events"].size(), 2u);
  EXPECT_EQ(doc["trace"]["events"][1]["type"].AsString(), "RPC_SEND");
  EXPECT_EQ(doc["healthy"].AsBool(true), false);
  EXPECT_EQ(doc["pi"].AsDouble(), 3.5);
  // Missing keys chain to the null sentinel instead of crashing.
  EXPECT_TRUE(doc["trace"]["missing"][3]["nope"].is_null());
  EXPECT_EQ(doc["trace"]["missing"].AsU64(17), 17u);
}

TEST(JsonReader, PreservesSixtyFourBitIntegersExactly) {
  // 2^63 + 1 is not representable as a double; the raw token must carry it.
  JsonParser parser;
  const JsonValue doc = parser.Parse(R"({"t":9223372036854775809})");
  ASSERT_TRUE(parser.ok());
  EXPECT_EQ(doc["t"].AsU64(), 9223372036854775809ull);
  EXPECT_EQ(doc["t"].raw_number(), "9223372036854775809");
}

TEST(JsonReader, RejectsMalformedInput) {
  const char* bad[] = {
      "",  "{",  "[1,]", "{\"a\":}", "{\"a\" 1}", "tru", "\"unterminated",
      "1 2",  // trailing garbage after the root value
  };
  for (const char* text : bad) {
    JsonParser parser;
    const JsonValue doc = parser.Parse(text);
    EXPECT_FALSE(parser.ok()) << "accepted: " << text;
    EXPECT_TRUE(doc.is_null());
  }
}

}  // namespace
}  // namespace gvfs
