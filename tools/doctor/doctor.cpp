#include "doctor.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <set>

#include "common/json_value.h"
#include "common/json_writer.h"
#include "gvfs/proto.h"
#include "policy/policy.h"
#include "trace/export.h"

namespace gvfs::doctor {

namespace {

using trace::Event;
using trace::EventType;
using trace::FhString;
using trace::Family;

/// Timeline tail length per file and file count cap in a report.
constexpr std::size_t kTimelineEntries = 20;
constexpr std::size_t kMaxFiles = 16;

const char* ModeName(std::uint32_t mode) {
  return policy::FileModeName(static_cast<policy::FileMode>(mode));
}

/// One timeline line for a file-scoped event, mirroring WriteTimeline but
/// with policy modes spelled out.
std::string RenderEventLine(const trace::TraceBuffer& buffer, const Event& ev) {
  char line[192];
  std::snprintf(line, sizeof(line), "[%12.6f] host %-3u %-15s",
                ToSeconds(ev.time), ev.host, trace::EventTypeName(ev.type));
  std::string out = line;
  switch (trace::FamilyOf(ev.type)) {
    case Family::kCache:
      out += " ";
      out += buffer.LabelName(ev.u.cache.label);
      break;
    case Family::kDeleg: {
      const auto& d = ev.u.deleg;
      std::snprintf(line, sizeof(line), " type=%s peer=host %u%s",
                    d.deleg_type == 2 ? "write" : "read", d.peer_host,
                    (d.flags & trace::kDelegFlagServerSide) != 0 ? " (server)"
                                                                 : "");
      out += line;
      break;
    }
    case Family::kInv: {
      const auto& v = ev.u.inv;
      std::snprintf(line, sizeof(line), " ts=%" PRIu64 " count=%u peer=host %u",
                    v.timestamp, v.count, v.peer_host);
      out += line;
      break;
    }
    case Family::kPolicy: {
      const auto& p = ev.u.policy;
      std::snprintf(line, sizeof(line), " %s -> %s%s%s", ModeName(p.from),
                    ModeName(p.to),
                    (p.flags & trace::kPolicyFlagServerSide) != 0 ? " (server)"
                                                                  : "",
                    (p.flags & trace::kPolicyFlagFrozen) != 0 ? " frozen" : "");
      out += line;
      break;
    }
    case Family::kAnomaly: {
      const auto& a = ev.u.anomaly;
      std::snprintf(line, sizeof(line), " %s value=%.6g threshold=%.6g",
                    obs::AnomalyKindName(
                        static_cast<obs::AnomalyKind>(a.kind)),
                    a.value, a.threshold);
      out += line;
      break;
    }
    case Family::kRpc:
    case Family::kNet:
    case Family::kNode:
      break;
  }
  return out;
}

bool EndsWith(const std::string& s, const char* suffix) {
  const std::size_t n = std::char_traits<char>::length(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

std::string JsonStringArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonQuote(items[i]);
  }
  out += "]";
  return out;
}

}  // namespace

const char* VerdictFor(obs::AnomalyKind kind) {
  switch (kind) {
    case obs::AnomalyKind::kRecallStorm:
      return "delegation recalls are thrashing: raise the storm-breaker "
             "threshold, lengthen policy dwell, or disable write delegation "
             "for the contended files";
    case obs::AnomalyKind::kStalenessSlo:
      return "cached reads exceeded the proven poll_period + 2*RTT staleness "
             "budget: shorten the poll period, check for a stalled GETINV "
             "loop, or verify the server is draining its buffers";
    case obs::AnomalyKind::kMigrationFlap:
      return "a file keeps migrating back and forth between consistency "
             "modes: increase policy dwell or the hysteresis window";
    case obs::AnomalyKind::kInvOverflow:
      return "invalidation buffers wrapped or their occupancy keeps rising: "
             "raise inv_buffer_capacity, shorten client poll periods, or add "
             "shards to spread the append load";
    case obs::AnomalyKind::kShardImbalance:
      return "one shard carries a multiple of its peers' buffered load: "
             "rebalance the handle space or revisit the shard count";
  }
  return "?";
}

DoctorReport Diagnose(const obs::DumpFile& dump) {
  DoctorReport report;
  report.reason = dump.reason;
  report.time = dump.time;
  report.trace_events = dump.trace.size();
  report.trace_recorded = dump.trace_recorded;
  report.trace_dropped = dump.trace_dropped;
  report.trace_omitted = dump.trace_omitted;
  report.warnings = dump.notes;

  // 1. Re-run every protocol invariant over the captured ring.
  trace::TraceChecker checker(proxy::NfsTraceCheckerConfig());
  report.violations = checker.Check(dump.trace);
  for (const auto& w : checker.warnings()) report.warnings.push_back(w);
  if (dump.trace_dropped > 0 || dump.trace_omitted > 0) {
    char msg[160];
    std::snprintf(msg, sizeof(msg),
                  "trace is incomplete (%" PRIu64 " dropped by the ring, %"
                  PRIu64 " omitted from the dump): the replay covers a "
                  "truncated suffix of the run",
                  dump.trace_dropped, dump.trace_omitted);
    report.warnings.push_back(msg);
  }

  // 2. Anomalies: the recorded firings, plus any kAnomaly event in the ring
  // the recorder did not capture (e.g. a trace-only ingest), deduplicated by
  // (kind, time).
  report.anomalies = dump.anomalies;
  std::set<std::pair<std::uint32_t, SimTime>> seen;
  for (const auto& a : report.anomalies) {
    seen.insert({static_cast<std::uint32_t>(a.kind), a.time});
  }
  for (std::size_t i = 0; i < dump.trace.size(); ++i) {
    const Event& ev = dump.trace.at(i);
    if (ev.type != EventType::kAnomaly) continue;
    const auto& p = ev.u.anomaly;
    if (p.kind >= obs::kDetectorCount) {
      report.warnings.push_back("trace carries an ANOMALY event of unknown "
                                "kind " + std::to_string(p.kind));
      continue;
    }
    if (!seen.insert({p.kind, ev.time}).second) continue;
    obs::Anomaly rec;
    rec.kind = static_cast<obs::AnomalyKind>(p.kind);
    rec.time = ev.time;
    rec.host = ev.host;
    rec.fsid = p.fsid;
    rec.ino = p.ino;
    rec.value = p.value;
    rec.threshold = p.threshold;
    rec.detail = std::string(obs::AnomalyKindName(rec.kind)) +
                 " (from trace event; no recorder detail)";
    report.anomalies.push_back(std::move(rec));
  }

  // 3. Per-file timelines.
  struct Accum {
    FileTimeline tl;
    std::deque<std::string> tail;
    std::set<std::uint32_t> append_hosts;  // hosts that buffered an entry
    std::map<std::uint32_t, std::uint64_t> polls;  // kInvPoll count per host
  };
  std::map<std::pair<std::uint64_t, std::uint64_t>, Accum> files;
  for (std::size_t i = 0; i < dump.trace.size(); ++i) {
    const Event& ev = dump.trace.at(i);
    std::uint64_t fsid = 0, ino = 0;
    if (!trace::FileOf(ev, &fsid, &ino)) continue;
    Accum& acc = files[{fsid, ino}];
    acc.tl.fsid = fsid;
    acc.tl.ino = ino;
    ++acc.tl.events;
    switch (ev.type) {
      case EventType::kDelegGrant:
      case EventType::kDelegRecall:
        // Both ends of the protocol record these; count each once, from the
        // server's side (migrations count the client's).
        if ((ev.u.deleg.flags & trace::kDelegFlagServerSide) == 0) break;
        ++(ev.type == EventType::kDelegGrant ? acc.tl.grants : acc.tl.recalls);
        break;
      case EventType::kInvAppend:
        ++acc.tl.invs_buffered;
        acc.append_hosts.insert(ev.host);
        break;
      case EventType::kInvPoll:
        ++acc.polls[ev.host];
        break;
      case EventType::kPolicyMigrate:
        if ((ev.u.policy.flags & trace::kPolicyFlagServerSide) == 0) {
          ++acc.tl.migrations;
        }
        break;
      default:
        break;
    }
    acc.tail.push_back(RenderEventLine(dump.trace, ev));
    if (acc.tail.size() > kTimelineEntries) acc.tail.pop_front();
  }

  // Flag the files the findings name: a violation points at the event it
  // fired on; file-scoped anomalies carry the handle directly.
  for (const auto& v : report.violations) {
    if (v.event_index >= dump.trace.size()) continue;
    std::uint64_t fsid = 0, ino = 0;
    if (trace::FileOf(dump.trace.at(v.event_index), &fsid, &ino)) {
      auto it = files.find({fsid, ino});
      if (it != files.end()) it->second.tl.flagged = true;
    }
  }
  for (const auto& a : report.anomalies) {
    if ((a.fsid | a.ino) == 0) continue;
    auto it = files.find({a.fsid, a.ino});
    if (it != files.end()) it->second.tl.flagged = true;
  }

  for (auto& [key, acc] : files) {
    // A kInvPoll on the host that buffered the file's entries is a MIGRATE
    // drain on the server, not a client applying an invalidation.
    for (const auto& [host, count] : acc.polls) {
      if (acc.append_hosts.count(host) == 0) acc.tl.invs_applied += count;
    }
    acc.tl.tail.assign(acc.tail.begin(), acc.tail.end());
    report.files.push_back(std::move(acc.tl));
  }
  std::stable_sort(report.files.begin(), report.files.end(),
                   [](const FileTimeline& a, const FileTimeline& b) {
                     if (a.flagged != b.flagged) return a.flagged;
                     return a.events > b.events;
                   });
  if (report.files.size() > kMaxFiles) {
    char msg[96];
    std::snprintf(msg, sizeof(msg),
                  "%zu additional quiet files omitted from the report",
                  report.files.size() - kMaxFiles);
    report.files.resize(kMaxFiles);
    report.warnings.push_back(msg);
  }
  return report;
}

std::string RenderHuman(const DoctorReport& report) {
  char line[256];
  std::string out = "gvfs-doctor report";
  if (!report.source.empty()) out += " — " + report.source;
  out += "\n";
  if (!report.reason.empty()) out += "reason: " + report.reason + "\n";
  std::snprintf(line, sizeof(line),
                "sim time %.6f s; trace: %" PRIu64 " events (recorded %"
                PRIu64 ", dropped %" PRIu64 ", omitted %" PRIu64 ")\n",
                ToSeconds(report.time), report.trace_events,
                report.trace_recorded, report.trace_dropped,
                report.trace_omitted);
  out += line;

  if (report.healthy()) {
    out += "\nVERDICT: HEALTHY — no invariant violations, no anomalies\n";
  } else {
    std::snprintf(line, sizeof(line),
                  "\nVERDICT: UNHEALTHY — %zu invariant violation(s), %zu "
                  "anomaly(ies)\n",
                  report.violations.size(), report.anomalies.size());
    out += line;
  }

  if (!report.violations.empty()) {
    out += "\ninvariant violations:\n";
    out += trace::FormatViolations(report.violations);
  }
  if (!report.anomalies.empty()) {
    out += "\nanomalies:\n";
    for (const auto& a : report.anomalies) {
      std::snprintf(line, sizeof(line), "[%.6fs] %s", ToSeconds(a.time),
                    obs::AnomalyKindName(a.kind));
      out += line;
      if ((a.fsid | a.ino) != 0) out += " file " + FhString(a.fsid, a.ino);
      std::snprintf(line, sizeof(line), " (value %.6g, threshold %.6g)",
                    a.value, a.threshold);
      out += line;
      if (!a.detail.empty()) out += "\n  detail: " + a.detail;
      out += "\n  remedy: ";
      out += VerdictFor(a.kind);
      out += "\n";
    }
  }
  if (!report.warnings.empty()) {
    out += "\nwarnings:\n";
    for (const auto& w : report.warnings) out += "  " + w + "\n";
  }
  if (!report.files.empty()) {
    out += "\nper-file consistency timelines";
    out += report.files.front().flagged ? " (flagged files first):\n" : ":\n";
    for (const auto& f : report.files) {
      std::snprintf(line, sizeof(line),
                    "file %s — %" PRIu64 " events, %" PRIu64 " grant(s), %"
                    PRIu64 " recall(s), %" PRIu64 " inv buffered / %" PRIu64
                    " applied, %" PRIu64 " migration(s)%s\n",
                    FhString(f.fsid, f.ino).c_str(), f.events, f.grants,
                    f.recalls, f.invs_buffered, f.invs_applied, f.migrations,
                    f.flagged ? "  << FLAGGED" : "");
      out += line;
      if (f.flagged) {
        for (const auto& entry : f.tail) out += "  " + entry + "\n";
      }
    }
  }
  return out;
}

std::string RenderJson(const DoctorReport& report) {
  JsonObject doc;
  doc.Add("tool", "gvfs-doctor");
  doc.Add("source", report.source);
  doc.Add("reason", report.reason);
  doc.Add("time_ns", static_cast<std::uint64_t>(report.time));
  doc.Add("healthy", report.healthy());

  JsonObject tr;
  tr.Add("events", report.trace_events);
  tr.Add("recorded", report.trace_recorded);
  tr.Add("dropped", report.trace_dropped);
  tr.Add("omitted", report.trace_omitted);
  doc.Add("trace", tr);

  std::vector<JsonObject> violations;
  for (const auto& v : report.violations) {
    JsonObject o;
    o.Add("kind", trace::InvariantKindName(v.kind));
    o.Add("time_ns", static_cast<std::uint64_t>(v.time));
    o.Add("event_index", static_cast<std::uint64_t>(v.event_index));
    o.Add("detail", v.detail);
    violations.push_back(std::move(o));
  }
  doc.Add("violations", violations);

  std::vector<JsonObject> anomalies;
  for (const auto& a : report.anomalies) {
    JsonObject o;
    o.Add("kind", obs::AnomalyKindName(a.kind));
    o.Add("time_ns", static_cast<std::uint64_t>(a.time));
    if (a.host != kInvalidHost) o.Add("host", static_cast<std::uint64_t>(a.host));
    if ((a.fsid | a.ino) != 0) o.Add("fh", FhString(a.fsid, a.ino));
    o.Add("value", a.value);
    o.Add("threshold", a.threshold);
    o.Add("detail", a.detail);
    o.Add("remedy", VerdictFor(a.kind));
    anomalies.push_back(std::move(o));
  }
  doc.Add("anomalies", anomalies);

  doc.AddRaw("warnings", JsonStringArray(report.warnings));

  std::vector<JsonObject> files;
  for (const auto& f : report.files) {
    JsonObject o;
    o.Add("fh", FhString(f.fsid, f.ino));
    o.Add("flagged", f.flagged);
    o.Add("events", f.events);
    o.Add("grants", f.grants);
    o.Add("recalls", f.recalls);
    o.Add("invs_buffered", f.invs_buffered);
    o.Add("invs_applied", f.invs_applied);
    o.Add("migrations", f.migrations);
    files.push_back(std::move(o));
  }
  doc.Add("files", files);
  return doc.Dump() + "\n";
}

bool ReadChromeTrace(const std::string& path, obs::DumpFile* out,
                     std::string* error) {
  std::string parse_error;
  const JsonValue doc = ReadJsonFile(path, &parse_error);
  if (!parse_error.empty()) {
    if (error != nullptr) *error = parse_error;
    return false;
  }
  if (!doc.is_array()) {
    if (error != nullptr) *error = path + ": not a Chrome trace event array";
    return false;
  }

  // Labels are interned into the final buffer as events are read; the ring
  // has a slot for every element of the file, so nothing is dropped.
  *out = obs::DumpFile();
  out->reason = "chrome-trace ingest";
  out->trace = trace::TraceBuffer(std::max<std::size_t>(1, doc.size()));
  std::vector<Event> events;
  std::uint64_t dropped = 0;
  std::uint64_t spans = 0;
  for (std::size_t i = 0; i < doc.size(); ++i) {
    const JsonValue& e = doc[i];
    const std::string& name = e["name"].AsString();
    const std::string& ph = e["ph"].AsString();
    if (name == "TRACE_TRUNCATED") {
      dropped += e["args"]["dropped_events"].AsU64();
      continue;
    }
    if (ph == "X") {
      ++spans;
      continue;
    }
    Event ev;
    if (ph != "i" || !trace::EventTypeFromName(name, &ev.type)) continue;
    // ts is microseconds; pid carries the host (plus any merge offset the
    // exporter applied — merged multi-run traces keep their runs apart).
    ev.time = static_cast<SimTime>(
        std::llround(e["ts"].AsDouble() * 1000.0));
    ev.host = static_cast<HostId>(e["pid"].AsU64());
    ev.port = static_cast<std::uint32_t>(e["tid"].AsU64());
    trace::PayloadFromJson(e["args"], out->trace, &ev);
    events.push_back(ev);
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     return a.time < b.time;
                   });
  for (const Event& ev : events) {
    out->trace.Push(ev);
    if (ev.time > out->time) out->time = ev.time;
  }
  out->trace_recorded = events.size() + dropped;
  out->trace_dropped = dropped;
  out->notes.push_back(
      "ingested from a Chrome trace: " + std::to_string(spans) +
      " RPC span(s) were collapsed by the exporter, so the DRC re-execution "
      "invariant cannot be re-checked");
  if (error != nullptr) error->clear();
  return true;
}

bool ReadMetricsSeries(const std::string& path, Duration staleness_budget,
                       obs::DumpFile* out, std::string* error) {
  std::string parse_error;
  const JsonValue doc = ReadJsonFile(path, &parse_error);
  if (!parse_error.empty()) {
    if (error != nullptr) *error = parse_error;
    return false;
  }
  const JsonValue& samples = doc["samples"];
  if (!samples.is_array() || samples.size() == 0) {
    if (error != nullptr) *error = path + ": no samples in time series";
    return false;
  }
  const JsonValue& last = samples[samples.size() - 1];

  *out = obs::DumpFile();
  out->reason = "metrics-series ingest";
  out->time =
      static_cast<SimTime>(std::llround(last["time_s"].AsDouble() * 1e9));
  out->trace = trace::TraceBuffer(1);

  const double budget_us =
      static_cast<double>(staleness_budget / kMicrosecond);
  for (const auto& [column, value] : last["values"].object()) {
    if (EndsWith(column, ".staleness_us.p99")) {
      const double p99 = value.AsDouble();
      char msg[160];
      if (budget_us > 0 && p99 > budget_us) {
        obs::Anomaly a;
        a.kind = obs::AnomalyKind::kStalenessSlo;
        a.time = out->time;
        a.value = p99;
        a.threshold = budget_us;
        std::snprintf(msg, sizeof(msg),
                      "%s p99 %.0f us exceeds the %.0f us budget",
                      column.c_str(), p99, budget_us);
        a.detail = msg;
        out->anomalies.push_back(std::move(a));
      } else {
        std::snprintf(msg, sizeof(msg), "%s final p99 = %.0f us",
                      column.c_str(), p99);
        out->notes.push_back(msg);
      }
    } else if (EndsWith(column, ".inv_wraps") && value.AsDouble() > 0) {
      obs::Anomaly a;
      a.kind = obs::AnomalyKind::kInvOverflow;
      a.time = out->time;
      a.value = value.AsDouble();
      a.threshold = 0;
      a.detail = column + " reports " +
                 std::to_string(static_cast<std::uint64_t>(value.AsDouble())) +
                 " invalidation-buffer wrap(s)";
      out->anomalies.push_back(std::move(a));
    }
  }
  out->notes.push_back("ingested from a metrics time series: no trace ring, "
                       "invariant replay is vacuous");
  if (error != nullptr) error->clear();
  return true;
}

}  // namespace gvfs::doctor
