#include "obs/recorder.h"

#include <cstdio>

#include "common/json_writer.h"
#include "obs/dump.h"

namespace gvfs::obs {

namespace {

std::string HistogramJson(const metrics::LogHistogram& hist) {
  JsonObject o;
  o.Add("count", hist.count());
  o.Add("sum", hist.sum());
  o.Add("max", hist.max());
  o.Add("p50", hist.Percentile(50));
  o.Add("p95", hist.Percentile(95));
  o.Add("p99", hist.Percentile(99));
  std::string buckets = "[";
  for (std::size_t b = 0; b < hist.buckets().size(); ++b) {
    if (b > 0) buckets += ',';
    buckets += std::to_string(hist.buckets()[b]);
  }
  buckets += ']';
  o.AddRaw("buckets", buckets);
  return o.Dump();
}

std::string AnomalyJson(const Anomaly& a) {
  JsonObject o;
  o.Add("kind", AnomalyKindName(a.kind));
  o.Add("time_ns", static_cast<std::uint64_t>(a.time));
  o.Add("host", static_cast<std::uint64_t>(a.host));
  o.Add("fsid", a.fsid);
  o.Add("ino", a.ino);
  o.Add("value", a.value);
  o.Add("threshold", a.threshold);
  o.Add("detail", a.detail);
  return o.Dump();
}

}  // namespace

std::string FlightRecorder::Render(const std::string& reason) const {
  std::string out;
  out.reserve(1 << 16);
  out += "{\"format\":\"gvfsdump\",\"version\":1,";
  out += "\"reason\":" + JsonQuote(reason) + ",";
  const SimTime now = clock_ != nullptr ? *clock_ : 0;
  out += "\"time_ns\":" + std::to_string(now) + ",";

  // config: watchdog thresholds + staleness budgets + caller extras.
  {
    JsonObject config;
    if (watchdog_ != nullptr) {
      const ObsConfig& c = watchdog_->config();
      JsonObject wd;
      wd.Add("watch_period_ns", static_cast<std::uint64_t>(c.watch_period));
      wd.Add("recall_storm_threshold", c.recall_storm_threshold);
      wd.Add("flap_threshold", static_cast<std::uint64_t>(kFlapThreshold));
      wd.Add("flap_window_ns", static_cast<std::uint64_t>(kFlapWindow));
      wd.Add("overflow_wraps", kOverflowWraps);
      wd.Add("occupancy_trend_windows", kOccupancyTrendWindows);
      wd.Add("occupancy_floor", kOccupancyFloor);
      wd.Add("imbalance_ratio", kImbalanceRatio);
      wd.Add("imbalance_min", kImbalanceMin);
      config.Add("watchdog", wd);
      std::vector<JsonObject> slos;
      for (const auto& [name, budget] : watchdog_->slos()) {
        JsonObject s;
        s.Add("histogram", name);
        s.Add("budget_ns", static_cast<std::uint64_t>(budget));
        slos.push_back(s);
      }
      config.Add("staleness_slos", slos);
    }
    for (const auto& [key, rendered] : config_extra_) {
      config.AddRaw(key, rendered);
    }
    out += "\"config\":" + config.Dump() + ",";
  }

  // trace: the newest max_trace_events_ ring entries.
  {
    out += "\"trace\":{";
    if (trace_ != nullptr) {
      const std::size_t have = trace_->size();
      const std::size_t keep =
          max_trace_events_ > 0 && have > max_trace_events_
              ? max_trace_events_
              : have;
      out += "\"capacity\":" + std::to_string(trace_->capacity()) + ",";
      out += "\"recorded\":" + std::to_string(trace_->recorded()) + ",";
      out += "\"dropped\":" + std::to_string(trace_->dropped()) + ",";
      out += "\"omitted\":" + std::to_string(have - keep) + ",";
      out += "\"events\":[";
      for (std::size_t i = have - keep; i < have; ++i) {
        if (i != have - keep) out += ',';
        out += EventToJson(*trace_, trace_->at(i));
      }
      out += "]";
    } else {
      out += "\"capacity\":0,\"recorded\":0,\"dropped\":0,\"omitted\":0,"
             "\"events\":[]";
    }
    out += "},";
  }

  // metrics: full registry snapshot, deterministic order (std::map).
  {
    out += "\"metrics\":{";
    bool first = true;
    out += "\"counters\":{";
    if (registry_ != nullptr) {
      for (const auto& [name, c] : registry_->counters()) {
        if (!first) out += ',';
        first = false;
        out += JsonQuote(name) + ":" + std::to_string(c.value());
      }
    }
    out += "},\"gauges\":{";
    first = true;
    if (registry_ != nullptr) {
      char buf[32];
      for (const auto& [name, g] : registry_->gauges()) {
        if (!first) out += ',';
        first = false;
        std::snprintf(buf, sizeof(buf), "%.17g", g.value());
        out += JsonQuote(name) + ":" + buf;
      }
    }
    out += "},\"probes\":{";
    first = true;
    if (registry_ != nullptr) {
      char buf[32];
      for (const auto& [name, fn] : registry_->probes()) {
        if (!first) out += ',';
        first = false;
        std::snprintf(buf, sizeof(buf), "%.17g", fn ? fn() : 0.0);
        out += JsonQuote(name) + ":" + buf;
      }
    }
    out += "},\"histograms\":{";
    first = true;
    if (registry_ != nullptr) {
      for (const auto& [name, h] : registry_->histograms()) {
        if (!first) out += ',';
        first = false;
        out += JsonQuote(name) + ":" + HistogramJson(h.hist());
      }
    }
    out += "}},";
  }

  // state: provider snapshots, in registration order.
  {
    out += "\"state\":{";
    for (std::size_t i = 0; i < providers_.size(); ++i) {
      if (i > 0) out += ',';
      out += JsonQuote(providers_[i].first) + ":" +
             (providers_[i].second ? providers_[i].second() : "{}");
    }
    out += "},";
  }

  // anomalies recorded by the watchdog so far.
  {
    out += "\"anomalies\":[";
    if (watchdog_ != nullptr) {
      const auto& list = watchdog_->anomalies();
      for (std::size_t i = 0; i < list.size(); ++i) {
        if (i > 0) out += ',';
        out += AnomalyJson(list[i]);
      }
    }
    out += "]";
  }

  out += "}\n";
  return out;
}

bool FlightRecorder::Dump(const std::string& path,
                          const std::string& reason) const {
  return WriteTextFile(path, Render(reason));
}

}  // namespace gvfs::obs
