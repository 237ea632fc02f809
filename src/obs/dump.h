// The .gvfsdump flight-recorder snapshot format.
//
// A dump is a single self-describing JSON document capturing everything the
// doctor needs to diagnose a run after the fact:
//
//   {"format":"gvfsdump","version":1,"reason":...,"time_ns":...,
//    "config":{...watchdog thresholds, staleness budgets, caller extras...},
//    "trace":{"capacity":...,"recorded":...,"dropped":...,"omitted":...,
//             "events":[{"t":...,"type":"INV_APPEND","host":...,...},...]},
//    "metrics":{"counters":{...},"gauges":{...},"probes":{...},
//               "histograms":{name:{count,sum,max,p50,p95,p99,buckets}}},
//    "state":{provider-name:{...protocol state...},...},
//    "anomalies":[{"kind":"recall-storm",...},...]}
//
// Trace events serialize losslessly: the header fields, then the payload
// object that the Chrome exporter also writes as an instant's args (see
// trace/trace.h for the schema), with interned labels as strings. So
// ReadDump can rebuild a real trace::TraceBuffer and re-run the TraceChecker
// offline.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json_value.h"
#include "common/json_writer.h"
#include "obs/anomaly.h"
#include "trace/trace.h"

namespace gvfs::obs {

/// Renders one trace event as a JSON object line (no trailing newline): the
/// header fields, then the payload as trace::PayloadToJson writes it.
std::string EventToJson(const trace::TraceBuffer& buffer,
                        const trace::Event& ev);

/// Inverse of EventToJson. Labels are re-interned into `buffer`. Returns
/// false (and leaves `buffer` untouched) for an unknown event type.
bool EventFromJson(const JsonValue& doc, trace::TraceBuffer& buffer,
                   trace::Event* out);

/// A parsed .gvfsdump.
struct DumpFile {
  std::string reason;
  SimTime time = 0;
  JsonValue config;   // raw "config" section
  JsonValue metrics;  // raw "metrics" section
  JsonValue state;    // raw "state" section
  std::vector<Anomaly> anomalies;
  /// Caveats attached by an ingester (e.g. the doctor's Chrome-trace reader
  /// noting that RPC spans were collapsed); empty for a real dump.
  std::vector<std::string> notes;

  // The reconstructed trace ring plus the original producer-side accounting
  // (the rebuilt buffer itself never dropped anything).
  trace::TraceBuffer trace;
  std::uint64_t trace_recorded = 0;
  std::uint64_t trace_dropped = 0;
  std::uint64_t trace_omitted = 0;  // events the dump itself left out
};

/// Parses a .gvfsdump from disk. Returns false and sets *error on malformed
/// input (wrong format tag, unreadable file, bad JSON).
bool ReadDump(const std::string& path, DumpFile* out, std::string* error);

}  // namespace gvfs::obs
