#include "trace/export.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <type_traits>

#include "common/logging.h"

namespace gvfs::trace {
namespace {

std::string HostLabel(const std::vector<std::string>& names, HostId host) {
  if (host < names.size() && !names[host].empty()) return names[host];
  char buf[32];
  std::snprintf(buf, sizeof(buf), "host %u", host);
  return buf;
}

/// Chrome ts fields are microseconds.
double ToMicros(SimTime t) { return static_cast<double>(t) / 1000.0; }

}  // namespace

void PayloadToJson(const TraceBuffer& buffer, const Event& ev,
                   JsonObject* out) {
  VisitPayload(ev, [&](const char* name, const auto& field) {
    using T = std::decay_t<decltype(field)>;
    if constexpr (std::is_same_v<T, std::uint16_t>) {
      out->Add(name, buffer.LabelName(field));
    } else if constexpr (std::is_same_v<T, double>) {
      out->Add(name, field);
    } else {
      out->Add(name, static_cast<std::uint64_t>(field));
    }
  });
}

void PayloadFromJson(const JsonValue& in, TraceBuffer& buffer, Event* ev) {
  VisitPayload(*ev, [&](const char* name, auto& field) {
    using T = std::decay_t<decltype(field)>;
    const JsonValue& value = in[name];
    if constexpr (std::is_same_v<T, std::uint16_t>) {
      field = buffer.InternLabel(value.AsString());
    } else if constexpr (std::is_same_v<T, double>) {
      field = value.AsDouble(field);
    } else {
      field = static_cast<T>(value.AsU64(field));
    }
  });
}

void ChromeTraceWriter::Add(const TraceBuffer& buffer,
                            const ChromeTraceOptions& options) {
  char line[640];

  // Track which (pid, tid) pairs appear so we can emit name metadata.
  std::set<HostId> hosts_seen;

  // Open RPC spans keyed by (host, port, xid).
  struct OpenSpan {
    SimTime start = 0;
    std::uint32_t retransmits = 0;
    Event send;  // the kRpcSend event (payload reused for the span)
  };
  std::map<std::tuple<HostId, std::uint32_t, std::uint32_t>, OpenSpan> open;

  // Open server handler executions (kRpcExec .. kRpcHandlerDone), keyed by
  // (server host, server port, caller host, caller port, xid).
  struct OpenExec {
    SimTime start = 0;
    Event exec;  // the kRpcExec event
  };
  std::map<std::tuple<HostId, std::uint32_t, HostId, std::uint32_t,
                      std::uint32_t>,
           OpenExec>
      execs;

  // Procedure labels by caller identity, so server-side slices (whose
  // events carry no label) can be named after the call they serve.
  std::map<std::tuple<HostId, std::uint32_t, std::uint32_t>, std::string>
      call_labels;

  auto pid_of = [&](HostId host) { return options.pid_offset + host; };

  // Flow-event binding id: the span id, salted with the pid offset so calls
  // from separately-merged buffers never share an arrow.
  auto flow_id = [&](std::uint64_t span_id) {
    return span_id ^ (static_cast<std::uint64_t>(options.pid_offset) << 52);
  };

  auto span_name = [&](const RpcPayload& rpc) {
    std::string name = buffer.LabelName(rpc.label);
    if (name.empty()) {
      char tmp[48];
      std::snprintf(tmp, sizeof(tmp), "proc %u/%u", rpc.prog, rpc.proc);
      name = tmp;
    }
    return name;
  };

  auto emit_span = [&](const OpenSpan& span, SimTime end, bool timed_out) {
    const auto& rpc = span.send.u.rpc;
    std::string name = span_name(rpc);
    // Flow start: binds to this client-side slice (same pid/tid/ts), with
    // the matching finish bound to the server handler slice — Perfetto
    // renders the cross-process arrow.
    if (rpc.span_id != 0) {
      std::snprintf(line, sizeof(line),
                    "{\"name\":%s,\"cat\":\"rpc_flow\",\"ph\":\"s\","
                    "\"id\":%" PRIu64 ",\"ts\":%.3f,\"pid\":%u,\"tid\":%u}",
                    JsonQuote(name).c_str(), flow_id(rpc.span_id),
                    ToMicros(span.start), pid_of(span.send.host),
                    span.send.port);
      events_.push_back(line);
    }
    if (timed_out) name += " (timeout)";
    std::snprintf(
        line, sizeof(line),
        "{\"name\":%s,\"cat\":\"rpc\",\"ph\":\"X\",\"ts\":%.3f,"
        "\"dur\":%.3f,\"pid\":%u,\"tid\":%u,\"args\":{\"xid\":%u,"
        "\"prog\":%u,\"proc\":%u,\"peer_host\":%u,\"retransmits\":%u,"
        "\"trace_id\":%" PRIu64 ",\"span_id\":%" PRIu64
        ",\"parent_span_id\":%" PRIu64 "}}",
        JsonQuote(name).c_str(), ToMicros(span.start),
        ToMicros(end - span.start), pid_of(span.send.host), span.send.port,
        rpc.xid, rpc.prog, rpc.proc, rpc.peer_host, span.retransmits,
        rpc.trace_id, rpc.span_id, rpc.parent_span_id);
    events_.push_back(line);
  };

  auto emit_exec = [&](const OpenExec& exec, SimTime end) {
    const auto& rpc = exec.exec.u.rpc;
    // Name the handler after the caller's procedure label when the matching
    // send is in the buffer; otherwise fall back to prog/proc.
    std::string name;
    auto lbl = call_labels.find({rpc.peer_host, rpc.peer_port, rpc.xid});
    if (lbl != call_labels.end() && !lbl->second.empty()) {
      name = lbl->second;
    } else {
      char tmp[48];
      std::snprintf(tmp, sizeof(tmp), "proc %u/%u", rpc.prog, rpc.proc);
      name = tmp;
    }
    std::snprintf(
        line, sizeof(line),
        "{\"name\":%s,\"cat\":\"rpc_handler\",\"ph\":\"X\",\"ts\":%.3f,"
        "\"dur\":%.3f,\"pid\":%u,\"tid\":%u,\"args\":{\"xid\":%u,"
        "\"caller_host\":%u,\"trace_id\":%" PRIu64 ",\"span_id\":%" PRIu64
        ",\"parent_span_id\":%" PRIu64 "}}",
        JsonQuote(name).c_str(), ToMicros(exec.start),
        ToMicros(end - exec.start), pid_of(exec.exec.host), exec.exec.port,
        rpc.xid, rpc.peer_host, rpc.trace_id, rpc.span_id,
        rpc.parent_span_id);
    events_.push_back(line);
    // Flow finish (bp:"e" = bind to enclosing slice): lands on the handler
    // slice just emitted.
    if (rpc.span_id != 0) {
      std::snprintf(line, sizeof(line),
                    "{\"name\":%s,\"cat\":\"rpc_flow\",\"ph\":\"f\","
                    "\"bp\":\"e\",\"id\":%" PRIu64
                    ",\"ts\":%.3f,\"pid\":%u,\"tid\":%u}",
                    JsonQuote(name).c_str(), flow_id(rpc.span_id),
                    ToMicros(exec.start), pid_of(exec.exec.host),
                    exec.exec.port);
      events_.push_back(line);
    }
  };

  // A truncated ring means every derived view below describes a partial
  // run: say so loudly in the log and inside the trace itself.
  if (buffer.dropped() > 0) {
    GVFS_WARN("trace: ring buffer overflowed; %llu oldest events were "
              "dropped — exported trace covers a truncated run",
              static_cast<unsigned long long>(buffer.dropped()));
    const SimTime first = buffer.size() > 0 ? buffer.at(0).time : 0;
    const HostId first_host = buffer.size() > 0 ? buffer.at(0).host : 0;
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"TRACE_TRUNCATED\",\"cat\":\"warning\","
                  "\"ph\":\"i\",\"s\":\"g\",\"ts\":%.3f,\"pid\":%u,\"tid\":0,"
                  "\"args\":{\"dropped_events\":%" PRIu64 "}}",
                  ToMicros(first), pid_of(first_host), buffer.dropped());
    events_.push_back(line);
    hosts_seen.insert(first_host);
  }

  for (std::size_t i = 0; i < buffer.size(); ++i) {
    const Event& ev = buffer.at(i);
    hosts_seen.insert(ev.host);
    switch (ev.type) {
      case EventType::kRpcSend: {
        OpenSpan span;
        span.start = ev.time;
        span.send = ev;
        open[{ev.host, ev.port, ev.u.rpc.xid}] = span;
        call_labels[{ev.host, ev.port, ev.u.rpc.xid}] =
            buffer.LabelName(ev.u.rpc.label);
        continue;
      }
      case EventType::kRpcRetransmit: {
        auto it = open.find({ev.host, ev.port, ev.u.rpc.xid});
        if (it != open.end()) ++it->second.retransmits;
        continue;
      }
      case EventType::kRpcReply:
      case EventType::kRpcTimeout: {
        auto it = open.find({ev.host, ev.port, ev.u.rpc.xid});
        if (it == open.end()) continue;
        emit_span(it->second, ev.time, ev.type == EventType::kRpcTimeout);
        open.erase(it);
        continue;
      }
      case EventType::kRpcExec: {
        OpenExec exec;
        exec.start = ev.time;
        exec.exec = ev;
        execs[{ev.host, ev.port, ev.u.rpc.peer_host, ev.u.rpc.peer_port,
               ev.u.rpc.xid}] = exec;
        continue;
      }
      case EventType::kRpcHandlerDone: {
        auto it = execs.find({ev.host, ev.port, ev.u.rpc.peer_host,
                              ev.u.rpc.peer_port, ev.u.rpc.xid});
        if (it == execs.end()) continue;
        emit_exec(it->second, ev.time);
        execs.erase(it);
        continue;
      }
      default:
        break;
    }
    // Everything else: a thread-scoped instant event whose args are the
    // event's payload.
    JsonObject args;
    PayloadToJson(buffer, ev, &args);
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\","
                  "\"ts\":%.3f,\"pid\":%u,\"tid\":%u,\"args\":",
                  EventTypeName(ev.type), ToMicros(ev.time), pid_of(ev.host),
                  ev.port);
    events_.push_back(line + args.Dump() + "}");
  }

  // Calls still in flight when the trace ended: render them as zero-length
  // spans so the send is not silently lost. Same for handlers still running.
  for (const auto& [key, span] : open) {
    emit_span(span, span.start, false);
  }
  for (const auto& [key, exec] : execs) {
    emit_exec(exec, exec.start);
  }

  for (HostId host : hosts_seen) {
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                  "\"args\":{\"name\":%s}}",
                  pid_of(host),
                  JsonQuote(options.process_prefix +
                            HostLabel(options.host_names, host))
                      .c_str());
    events_.push_back(line);
  }
}

void ChromeTraceWriter::Write(std::ostream& out) const {
  out << "[\n";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    out << events_[i];
    if (i + 1 < events_.size()) out << ',';
    out << '\n';
  }
  out << "]\n";
}

bool ChromeTraceWriter::WriteTo(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    GVFS_WARN("trace: cannot open %s for writing", path.c_str());
    return false;
  }
  Write(out);
  return out.good();
}

void WriteTimeline(const TraceBuffer& buffer, std::ostream& out,
                   const std::vector<std::string>& host_names) {
  char line[384];
  if (buffer.dropped() > 0) {
    std::snprintf(line, sizeof(line),
                  "WARNING: trace buffer overflowed; %" PRIu64
                  " oldest events dropped — timeline below is truncated\n",
                  buffer.dropped());
    out << line;
    GVFS_WARN("trace: ring buffer overflowed; %llu oldest events were "
              "dropped — timeline covers a truncated run",
              static_cast<unsigned long long>(buffer.dropped()));
  }
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    const Event& ev = buffer.at(i);
    std::snprintf(line, sizeof(line), "[%12.6f] %-8s %-15s",
                  ToSeconds(ev.time), HostLabel(host_names, ev.host).c_str(),
                  EventTypeName(ev.type));
    out << line;
    switch (FamilyOf(ev.type)) {
      case Family::kRpc: {
        const auto& r = ev.u.rpc;
        std::snprintf(line, sizeof(line), " %s xid=%u peer=%s:%u",
                      buffer.LabelName(r.label).c_str(), r.xid,
                      HostLabel(host_names, r.peer_host).c_str(), r.peer_port);
        out << line;
        break;
      }
      case Family::kNet:
        std::snprintf(line, sizeof(line), " -> %s (%u bytes)",
                      HostLabel(host_names, ev.u.net.dst_host).c_str(),
                      ev.u.net.wire_size);
        out << line;
        break;
      case Family::kCache: {
        const auto& c = ev.u.cache;
        std::snprintf(line, sizeof(line), " fh=%s %s",
                      FhString(c.fsid, c.ino).c_str(),
                      buffer.LabelName(c.label).c_str());
        out << line;
        if (c.offset != kNoOffset) {
          std::snprintf(line, sizeof(line), " offset=%" PRIu64, c.offset);
          out << line;
        }
        break;
      }
      case Family::kDeleg: {
        const auto& d = ev.u.deleg;
        std::snprintf(line, sizeof(line), " fh=%s type=%u peer=%s%s",
                      FhString(d.fsid, d.ino).c_str(), d.deleg_type,
                      HostLabel(host_names, d.peer_host).c_str(),
                      (d.flags & kDelegFlagServerSide) != 0 ? " (server)" : "");
        out << line;
        if ((d.flags & kDelegFlagHasWanted) != 0) {
          std::snprintf(line, sizeof(line), " wanted=%" PRIu64 "%s",
                        d.wanted_offset,
                        (d.flags & kDelegFlagWantedDirty) != 0 ? " dirty" : "");
          out << line;
        }
        break;
      }
      case Family::kInv: {
        const auto& v = ev.u.inv;
        std::snprintf(line, sizeof(line),
                      " fh=%s ts=%" PRIu64 " count=%u peer=%s",
                      FhString(v.fsid, v.ino).c_str(), v.timestamp, v.count,
                      HostLabel(host_names, v.peer_host).c_str());
        out << line;
        break;
      }
      case Family::kPolicy: {
        const auto& p = ev.u.policy;
        std::snprintf(line, sizeof(line), " fh=%s from=%u to=%u%s%s",
                      FhString(p.fsid, p.ino).c_str(), p.from, p.to,
                      (p.flags & kPolicyFlagServerSide) != 0 ? " (server)" : "",
                      (p.flags & kPolicyFlagFrozen) != 0 ? " frozen" : "");
        out << line;
        break;
      }
      case Family::kAnomaly: {
        const auto& a = ev.u.anomaly;
        std::snprintf(line, sizeof(line),
                      " fh=%s kind=%u value=%.6g threshold=%.6g",
                      FhString(a.fsid, a.ino).c_str(), a.kind, a.value,
                      a.threshold);
        out << line;
        break;
      }
      case Family::kNode:
        break;
    }
    out << '\n';
  }
}

}  // namespace gvfs::trace
