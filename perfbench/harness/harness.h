// The benchmark harness shared by the three workloads: option parsing, the
// drive loop (plain, or traced with per-step layer attribution), phase
// accounting of host work, per-op latency and failure logging, version-stamp
// staleness detection against memfs, and the metric report printed as one
// JSON line.
//
// The stack is measured from outside: workloads build it through the public
// Testbed / KernelClient / MemFs API and hand it only their generated op
// stream.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "kclient/kernel_client.h"
#include "memfs/memfs.h"
#include "sim/task.h"
#include "trace/trace.h"
#include "workloads/testbed.h"

#include "host.h"

namespace perfbench {

using gvfs::Bytes;
using gvfs::Duration;
using gvfs::HostId;
using gvfs::SimTime;
namespace kclient = gvfs::kclient;
namespace memfs = gvfs::memfs;
namespace proxy = gvfs::proxy;
namespace sim = gvfs::sim;
namespace trace = gvfs::trace;
namespace workloads = gvfs::workloads;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool traced = false;
  /// Paper cross-check: the generator runs at the parameters of the figure
  /// the repository already reports and prints the figure's numbers.
  bool paper = false;
};

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

/// How a metric may vary between processes given the same seed: simulated
/// and counted values must repeat exactly; host measurements vary.
enum class Kind { kSim, kHost, kTrace };

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit, Kind kind);
  void Error(const std::string& message);
  bool ok() const { return errors_.empty(); }

  /// Percentage `part` of `whole` (0 when `whole` is 0).
  static double Pct(double part, double whole) {
    return whole > 0 ? 100.0 * part / whole : 0.0;
  }

  std::string Json(const Options& opt, std::uint64_t attempted,
                   std::uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    Kind kind;
  };
  std::vector<Entry> entries_;
  std::vector<std::string> errors_;
};

// ---------------------------------------------------------------------------
// Content stamps
// ---------------------------------------------------------------------------

/// Every block a generator writes starts with a stamp naming the file, the
/// block and the file's version, so a read can tell which version it got.
constexpr std::size_t kStampBytes = 24;

/// A block of `len` bytes carrying the stamp (when it fits) and filler.
Bytes StampedBlock(std::uint64_t file, std::uint32_t block, std::uint32_t version,
                   std::size_t len);

// ---------------------------------------------------------------------------
// Ops
// ---------------------------------------------------------------------------

/// The Vfs calls a generator issues.
enum class OpType { kOpen, kRead, kWrite, kClose, kStat, kUnlink, kMkdir, kCount };

const char* OpName(OpType type);

/// Fisher-Yates shuffle driven by the workload's seeded generator.
template <typename T>
void Shuffle(gvfs::Rng& rng, std::vector<T>& items) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.Below(i)]);
  }
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

class Harness {
 public:
  explicit Harness(Options opt);

  const Options& opt() const { return opt_; }
  Report& report() { return report_; }

  /// Binds the testbed (call right after building it): enables tracing in a
  /// traced run, and learns the server host for layer attribution.
  void Attach(workloads::Testbed& bed, std::size_t trace_capacity);
  workloads::Testbed& bed() { return *bed_; }
  SimTime Now() const { return bed_ == nullptr ? 0 : bed_->sched().Now(); }

  /// Declares a WAN link (both directions are counted).
  void AddWanLink(HostId a, HostId b);

  /// Registers a session's components for the per-layer counters.
  void AddSession(workloads::GvfsSession& session);
  void AddSession(workloads::FleetSession& session);

  /// Starts a named phase, closing the previous one. Phases before "timed"
  /// are set-up. "" closes the last phase.
  void Phase(const std::string& name);

  /// Runs `task` to completion on the scheduler (background pollers keep the
  /// queue non-empty, so the loop stops on the task, not on an idle queue).
  void Drive(sim::Task<void> task);
  /// Advances simulated time by `d` (background tasks keep running).
  void Idle(Duration d);

  // --- op log: generators time each Vfs call inline ---
  /// Records one op that started at `start`, if the timed phase is open.
  void Op(OpType type, SimTime start, bool ok);

  /// A checked read: snapshots the block's committed stamp in memfs before
  /// the read begins, reads through `mount`, and classifies the result as
  /// fresh, stale (older than what the server had committed) or corrupt.
  sim::Task<kclient::VfsResult<Bytes>> Read(kclient::KernelClient& mount, kclient::Fd fd,
                                            memfs::InodeId ino, std::uint64_t offset,
                                            std::uint32_t count);

  /// A writer's Close returned: `version` of (file, block) is committed at
  /// the server at its current memfs mtime.
  void NoteCommitted(std::uint64_t file, std::uint32_t block, std::uint32_t version,
                     memfs::InodeId ino);

  /// Staleness bound the polling workloads must hold (0 = no bound check);
  /// `formula` names how it was derived, for the failure message.
  void SetStalenessBound(Duration bound, std::string formula) {
    staleness_bound_ = bound;
    staleness_formula_ = std::move(formula);
  }

  /// Convergence check: every byte of `path` read through `mount` equals
  /// memfs. Counts into verify.files / verify.mismatches.
  sim::Task<void> VerifyFile(kclient::KernelClient& mount, std::string path);

  /// Emits the harness-owned metrics (latency, staleness, failures, WAN,
  /// scheduler, host work, layers, trace checks). Call after the workload
  /// finished and added its own counters.
  void Finish();

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  enum Layer { kKclient, kGvfsClient, kGvfsServer, kNfs3, kFleet, kUntagged, kLayers };
  static const char* LayerName(int layer);

  struct PhaseRecord {
    std::string name;
    host::Sample start;
    host::Sample end;
    std::uint64_t events_start = 0;
    std::uint64_t events_end = 0;
    SimTime sim_start = 0;
    SimTime sim_end = 0;
  };

  struct LayerCost {
    std::int64_t cpu_ns = 0;
    std::uint64_t allocs = 0;
    std::int64_t minflt = 0;
  };

  struct LinkTotals {
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
    std::uint64_t dropped = 0;
  };

  using Counters = std::map<std::string, double>;

  void MarkClientHosts();
  void Step();
  void TracedStep();
  void Learn(const trace::Event& event);
  int LayerOf(const trace::Event& event) const;
  LinkTotals WanTotals() const;
  /// Reads every registered component's counters.
  Counters Capture() const;
  const PhaseRecord* FindPhase(const std::string& name) const;
  void PolicyTickCost();

  Options opt_;
  Report report_;
  workloads::Testbed* bed_ = nullptr;
  trace::TraceBuffer* trace_ = nullptr;
  HostId server_host_ = gvfs::kInvalidHost;
  std::vector<bool> client_host_;  // by HostId: a host with kernel mounts
  std::map<std::uint64_t, int> node_layer_;  // (host << 32 | port) -> layer

  std::vector<std::pair<HostId, HostId>> wan_links_;
  LinkTotals wan_at_timed_start_;
  LinkTotals wan_timed_;

  std::vector<kclient::KernelClient*> mounts_;
  std::vector<proxy::ProxyClient*> proxies_;
  std::vector<proxy::ProxyServer*> servers_;
  std::vector<gvfs::fleet::InvAggregator*> aggregators_;
  std::vector<gvfs::rpc::StatsMap*> rpc_stats_;
  Counters at_timed_start_;
  Counters at_timed_end_;

  std::vector<PhaseRecord> phases_;
  bool timed_ = false;
  std::uint64_t events_ = 0;
  std::size_t pending_peak_ = 0;

  std::array<LayerCost, kLayers> layer_cost_{};
  std::int64_t last_step_cpu_ns_ = 0;
  std::uint64_t last_step_allocs_ = 0;
  std::int64_t last_minflt_ = 0;

  // Op log (timed phase only).
  std::array<std::vector<Duration>, static_cast<int>(OpType::kCount)> latency_;
  std::array<std::uint64_t, static_cast<int>(OpType::kCount)> op_failed_{};
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;

  // Staleness (timed phase only).
  std::uint64_t reads_checked_ = 0;
  std::uint64_t stale_reads_ = 0;
  std::uint64_t corrupt_reads_ = 0;
  Duration stale_max_ = 0;
  Duration staleness_bound_ = 0;
  std::string staleness_formula_;
  std::map<std::pair<std::uint64_t, std::uint32_t>, std::vector<SimTime>> commits_;

  std::uint64_t verify_files_ = 0;
  std::uint64_t verify_mismatches_ = 0;
};

}  // namespace perfbench
