// Trace consumers that render a TraceBuffer for humans and tools:
//
//  - PayloadToJson / PayloadFromJson: an event's payload as a JSON object,
//    built from the schema in trace.h (VisitPayload). It is the body of a
//    .gvfsdump event line (obs/dump.h) and the `args` of a Chrome instant,
//    and the doctor reads both back with PayloadFromJson.
//  - ChromeTraceWriter: Chrome trace-event JSON (the "JSON Array Format"),
//    loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. Each host
//    becomes a process track; each RPC endpoint (port) becomes a thread
//    track. RPC spans are derived from matching kRpcSend/kRpcReply pairs
//    (duration = first send to reply, retransmission count in args); all
//    other events render as instants whose args are their payload.
//  - WriteTimeline: a flat human-readable dump, one line per event, for
//    quick grepping without a trace viewer.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/json_value.h"
#include "common/json_writer.h"
#include "trace/trace.h"

namespace gvfs::trace {

/// Adds `ev`'s payload fields to `out` in schema order, labels as text.
void PayloadToJson(const TraceBuffer& buffer, const Event& ev,
                   JsonObject* out);

/// Inverse of PayloadToJson for an event whose type is already set; labels
/// are re-interned into `buffer`, and a missing field keeps its default.
void PayloadFromJson(const JsonValue& in, TraceBuffer& buffer, Event* ev);

struct ChromeTraceOptions {
  ChromeTraceOptions() = default;
  ChromeTraceOptions(const ChromeTraceOptions&) = default;
  ChromeTraceOptions& operator=(const ChromeTraceOptions&) = default;

  /// Host display names indexed by HostId; missing entries render "host N".
  std::vector<std::string> host_names;
  /// Prefixed to process names — used to distinguish runs when several
  /// buffers are merged into one file (e.g. "gvfs1/" and "gvfs2/").
  std::string process_prefix;
  /// Added to every HostId to form the Chrome pid, keeping merged runs'
  /// tracks separate.
  std::uint32_t pid_offset = 0;
};

class ChromeTraceWriter {
 public:
  /// Renders `buffer` into the pending event list. May be called multiple
  /// times (with distinct pid_offsets) to merge runs into one file.
  void Add(const TraceBuffer& buffer, const ChromeTraceOptions& options);

  void Write(std::ostream& out) const;
  /// Returns false (and logs) when the file cannot be opened.
  bool WriteTo(const std::string& path) const;

  std::size_t event_count() const { return events_.size(); }

 private:
  std::vector<std::string> events_;  // serialized JSON objects
};

/// One line per event: "[seconds] host:port TYPE details".
void WriteTimeline(const TraceBuffer& buffer, std::ostream& out,
                   const std::vector<std::string>& host_names = {});

}  // namespace gvfs::trace
