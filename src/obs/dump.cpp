#include "obs/dump.h"

#include "trace/export.h"

namespace gvfs::obs {

using trace::Event;

std::string EventToJson(const trace::TraceBuffer& buffer, const Event& ev) {
  JsonObject o;
  o.Add("t", static_cast<std::uint64_t>(ev.time));
  o.Add("type", trace::EventTypeName(ev.type));
  o.Add("host", static_cast<std::uint64_t>(ev.host));
  if (ev.port != 0) o.Add("port", static_cast<std::uint64_t>(ev.port));
  trace::PayloadToJson(buffer, ev, &o);
  return o.Dump();
}

bool EventFromJson(const JsonValue& doc, trace::TraceBuffer& buffer,
                   Event* out) {
  Event ev;
  if (!trace::EventTypeFromName(doc["type"].AsString(), &ev.type)) {
    return false;
  }
  ev.time = static_cast<SimTime>(doc["t"].AsU64());
  ev.host = static_cast<HostId>(doc["host"].AsU64());
  ev.port = static_cast<std::uint32_t>(doc["port"].AsU64());
  trace::PayloadFromJson(doc, buffer, &ev);
  *out = ev;
  return true;
}

bool ReadDump(const std::string& path, DumpFile* out, std::string* error) {
  std::string parse_error;
  const JsonValue doc = ReadJsonFile(path, &parse_error);
  if (!parse_error.empty()) {
    if (error != nullptr) *error = parse_error;
    return false;
  }
  if (doc["format"].AsString() != "gvfsdump") {
    if (error != nullptr) *error = path + ": not a gvfsdump document";
    return false;
  }

  out->reason = doc["reason"].AsString();
  out->time = static_cast<SimTime>(doc["time_ns"].AsU64());
  out->config = doc["config"];
  out->metrics = doc["metrics"];
  out->state = doc["state"];

  const JsonValue& trace = doc["trace"];
  out->trace_recorded = trace["recorded"].AsU64();
  out->trace_dropped = trace["dropped"].AsU64();
  out->trace_omitted = trace["omitted"].AsU64();
  const JsonValue& events = trace["events"];
  std::size_t capacity = trace["capacity"].AsU64();
  if (capacity == 0) capacity = events.size() > 0 ? events.size() : 1;
  out->trace = trace::TraceBuffer(capacity);
  for (std::size_t i = 0; i < events.size(); ++i) {
    Event ev;
    if (!EventFromJson(events[i], out->trace, &ev)) {
      if (error != nullptr) {
        *error = path + ": unknown event type " +
                 events[i]["type"].AsString() + " at index " +
                 std::to_string(i);
      }
      return false;
    }
    out->trace.Push(ev);
  }

  out->anomalies.clear();
  const JsonValue& anomalies = doc["anomalies"];
  for (std::size_t i = 0; i < anomalies.size(); ++i) {
    const JsonValue& a = anomalies[i];
    Anomaly rec;
    if (!AnomalyKindFromName(a["kind"].AsString(), &rec.kind)) {
      if (error != nullptr) {
        *error = path + ": unknown anomaly kind " + a["kind"].AsString();
      }
      return false;
    }
    rec.time = static_cast<SimTime>(a["time_ns"].AsU64());
    rec.host = static_cast<HostId>(a["host"].AsU64(kInvalidHost));
    rec.fsid = a["fsid"].AsU64();
    rec.ino = a["ino"].AsU64();
    rec.value = a["value"].AsDouble();
    rec.threshold = a["threshold"].AsDouble();
    rec.detail = a["detail"].AsString();
    out->anomalies.push_back(std::move(rec));
  }
  return true;
}

}  // namespace gvfs::obs
