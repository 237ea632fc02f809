// Named-instrument registry: counters, gauges, log-bucketed histograms, and
// pull-style probes (callbacks evaluated at sample time). Instruments are
// created on first use and live as long as the registry; Get* returns a
// stable reference (std::map storage — node-based, so references survive
// later insertions), which lets instrumented code hold the pointer instead
// of paying a map lookup per event.
//
// Iteration order over each instrument family is lexicographic (std::map),
// which makes every exporter's output deterministic for a given run.
//
// Counter tables: a component's stats struct declares each counter once, as
// a row of an X-macro table, and the same rows generate both the struct's
// std::uint64_t members and the probes RegisterCounters() adds:
//
//   #define GVFS_HIT_STATS(X) X(hits) X(misses)
//   struct HitStats { GVFS_COUNTER_TABLE(HitStats, GVFS_HIT_STATS) };
//   RegisterCounters(registry, "s0.", stats);  // probes s0.hits, s0.misses
//
// Adding a counter is adding one row; it is exported without further wiring.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "metrics/histogram.h"

namespace gvfs::metrics {

class Counter {
 public:
  void Inc(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void Set(double value) { value_ = value; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

class Histogram {
 public:
  void Record(std::uint64_t value) { hist_.Record(value); }
  const LogHistogram& hist() const { return hist_; }

 private:
  LogHistogram hist_;
};

class Registry {
 public:
  Counter& GetCounter(const std::string& name) { return counters_[name]; }
  Gauge& GetGauge(const std::string& name) { return gauges_[name]; }
  Histogram& GetHistogram(const std::string& name) { return histograms_[name]; }

  /// Registers a pull-style metric: `fn` is evaluated whenever the registry
  /// is sampled or exported. Re-registering a name replaces the callback.
  void AddProbe(const std::string& name, std::function<double()> fn) {
    probes_[name] = std::move(fn);
  }

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }
  const std::map<std::string, std::function<double()>>& probes() const {
    return probes_;
  }

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, std::function<double()>> probes_;
};

/// One row of a counter table: the counter's name (its registry name under a
/// prefix) and the member holding its value.
template <typename Stats>
struct CounterField {
  const char* name;
  std::uint64_t Stats::*member;
};

/// Registers a pull probe `<prefix><name>` for every row of Stats::Fields(),
/// reading the live value out of `stats`, which must outlive the registry.
template <typename Stats>
void RegisterCounters(Registry& registry, const std::string& prefix,
                      const Stats& stats) {
  for (const CounterField<Stats>& field : Stats::Fields()) {
    registry.AddProbe(prefix + field.name, [&stats, member = field.member] {
      return static_cast<double>(stats.*member);
    });
  }
}

}  // namespace gvfs::metrics

#define GVFS_COUNTER_MEMBER(name) std::uint64_t name = 0;
#define GVFS_COUNTER_ROW(name) {#name, &Self::name},
/// Expands a counter table inside `struct Type`: one zero-initialized
/// std::uint64_t member per row, plus `static Fields()` listing the rows.
#define GVFS_COUNTER_TABLE(Type, TABLE)                              \
  TABLE(GVFS_COUNTER_MEMBER)                                         \
  static auto Fields() {                                             \
    using Self = Type;                                               \
    return std::to_array<::gvfs::metrics::CounterField<Type>>(       \
        {TABLE(GVFS_COUNTER_ROW)});                                  \
  }
