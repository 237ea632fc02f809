// Experiment testbed: builds the paper's topology (§5) — one file server
// host and N client hosts joined by emulated WAN links (default 40 ms RTT,
// 4 Mbps, as in the paper's NIST Net setup) — and wires up either native NFS
// mounts or middleware-established GVFS sessions over it.
//
// This is the "middleware" role from Figure 1: sessions are created on
// demand, each with its own proxy server + per-host proxy clients +
// unmodified kernel-client mounts, and independent consistency config.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "afs/afs.h"
#include "fleet/inv_aggregator.h"
#include "fleet/shard_router.h"
#include "gvfs/proxy_client.h"
#include "gvfs/proxy_server.h"
#include "gvfs/session.h"
#include "kclient/kernel_client.h"
#include "memfs/memfs.h"
#include "metrics/registry.h"
#include "metrics/sampler.h"
#include "metrics/staleness.h"
#include "net/network.h"
#include "nfs3/server.h"
#include "obs/anomaly.h"
#include "obs/recorder.h"
#include "rpc/rpc.h"
#include "sim/scheduler.h"
#include "trace/trace.h"

namespace gvfs::workloads {

struct TestbedConfig {
  TestbedConfig() = default;
  TestbedConfig(const TestbedConfig&) = default;
  TestbedConfig& operator=(const TestbedConfig&) = default;

  /// Paper WAN: 40 ms RTT, 4 Mbps.
  net::LinkConfig wan{Milliseconds(20), 4'000'000};
  /// Paper LAN: 100 Mbps; sub-millisecond RTT.
  net::LinkConfig lan{Microseconds(250), 100'000'000};
};

/// Topology of a fleet-scale session (src/fleet): N proxy-server shards
/// beside the kernel NFS server, optionally fronted by a GETINV aggregation
/// tier.
struct FleetConfig {
  FleetConfig() = default;
  FleetConfig(const FleetConfig&) = default;
  FleetConfig(FleetConfig&&) noexcept = default;
  FleetConfig& operator=(const FleetConfig&) = default;
  FleetConfig& operator=(FleetConfig&&) noexcept = default;

  /// Number of proxy-server shards (1 = the classic single-server session).
  std::uint32_t shards = 1;

  /// When true, clients poll an InvAggregator (LAN-adjacent to the server)
  /// instead of polling every shard directly.
  bool aggregate = false;

  /// Aggregator tuning; `shards` is filled in by the testbed.
  fleet::InvAggregatorConfig aggregator;

  /// Per-shard session config; shard_addrs / shard_index / getinv_targets
  /// are filled in by the testbed.
  proxy::SessionConfig session;
};

/// One fleet-scale GVFS session: sharded servers, optional aggregation tier,
/// a proxy client per participating host, kernel mounts on the active ones.
struct FleetSession {
  std::vector<proxy::ProxyServer*> shards;
  fleet::InvAggregator* aggregator = nullptr;  // null in direct mode
  std::vector<proxy::ProxyClient*> proxies;
  /// Kernel mounts, one per ACTIVE client (the first `active_mounts` of the
  /// client list); passive clients run only the proxy's poll loop.
  std::vector<kclient::KernelClient*> mounts;
  /// Session RPCs (client upstream calls, server callbacks, GETINV fan-in,
  /// NOTIFYINV, aggregator upstream polls), by procedure.
  rpc::StatsMap* stats = nullptr;
  fleet::ShardRouter router;

  kclient::KernelClient& mount(std::size_t i) { return *mounts.at(i); }
  proxy::ProxyClient& proxy(std::size_t i) { return *proxies.at(i); }
  proxy::ProxyServer& shard(std::size_t i) { return *shards.at(i); }

  /// Flushes all proxy caches and stops background tasks (incl. the tier).
  sim::Task<void> Shutdown();
};

/// One middleware-established GVFS session (Figure 1): the smallest fleet —
/// one proxy server, no aggregation tier, a kernel mount on every client.
struct GvfsSession : FleetSession {
  proxy::ProxyServer* server = nullptr;  // == shards[0]
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig config = {});

  sim::Scheduler& sched() { return sched_; }
  net::Network& network() { return network_; }
  memfs::MemFs& fs() { return fs_; }
  nfs3::Nfs3Server& nfsd() { return *nfsd_; }
  HostId server_host() const { return server_host_; }

  /// Adds a client host connected to the server over the WAN (or LAN) link.
  int AddWanClient();
  int AddLanClient();
  int ClientCount() const { return static_cast<int>(client_hosts_.size()); }
  HostId client_host(int index) const { return client_hosts_.at(index); }

  /// A native kernel-NFS mount on client `index` (the paper's NFS baseline).
  /// Its WAN RPCs are counted in StatsOf(mount).
  kclient::KernelClient& NativeMount(int index, kclient::MountOptions options = {});

  /// Establishes a GVFS session across the given clients: a proxy server
  /// beside the kernel NFS server, a proxy client per host, and a kernel
  /// mount per host pointed at its local proxy. Background consistency tasks
  /// are started. This is CreateFleetSession with one shard and no tier; its
  /// telemetry keeps the classic names (`s<N>.` for the server).
  GvfsSession& CreateSession(const proxy::SessionConfig& config,
                             const std::vector<int>& clients,
                             kclient::MountOptions kernel_options = {});

  /// Establishes a fleet-scale session (src/fleet): `config.shards` proxy
  /// servers beside the kernel NFS server, each owning a slice of the handle
  /// space, plus — when `config.aggregate` — an InvAggregator on its own
  /// LAN-adjacent host absorbing the clients' GETINV polls. Every listed
  /// client gets a polling proxy; only the first `active_mounts` get kernel
  /// mounts (the rest model poll-only fleet members, which is what the
  /// fig_scale sweep scales to thousands of).
  FleetSession& CreateFleetSession(
      const FleetConfig& config, const std::vector<int>& clients,
      std::size_t active_mounts = static_cast<std::size_t>(-1),
      kclient::MountOptions kernel_options = {});

  /// An AFS client on client `index`, talking to a shared AFS server over
  /// the same exported tree (the Figure 6 reference DFS). The AFS server is
  /// created lazily on first use.
  afs::AfsClient& AfsMount(int index);

  /// WAN RPC counters of a native mount created with NativeMount.
  rpc::StatsMap& StatsOf(const kclient::KernelClient& mount);

  /// Runs the simulation until the event queue drains.
  void Run() { sched_.Run(); }

  /// Attaches a trace buffer to every layer (network, all RPC nodes, present
  /// and future): subsequent protocol actions are recorded as structured
  /// events. Call before driving the workload; idempotent.
  trace::TraceBuffer& EnableTracing(std::size_t capacity = 1 << 20);

  /// The attached buffer, or nullptr when tracing was never enabled.
  trace::TraceBuffer* trace_buffer() { return trace_buffer_.get(); }

  /// Turns on the consistency observatory: a metrics registry plus a
  /// sim-clock sampler snapshotting it every `period`. Sessions created
  /// after this call register their proxies' telemetry and a per-session
  /// staleness probe: CreateSession's under `s<N>.` (server),
  /// `s<N>.c<host>.` (clients) and `s<N>.staleness_us`; CreateFleetSession's
  /// under `f<N>.s<k>.`, `f<N>.agg.`, `f<N>.c<host>.` and
  /// `f<N>.staleness_us`. Call before creating sessions; idempotent (the
  /// period of the first call wins).
  metrics::Registry& EnableMetrics(Duration period = Seconds(1));

  /// The registry/sampler, or nullptr when metrics were never enabled.
  metrics::Registry* metrics_registry() { return metrics_registry_.get(); }
  metrics::Sampler* metrics_sampler() { return metrics_sampler_.get(); }

  /// Turns on the diagnosis layer (src/obs): an online anomaly watchdog
  /// polling the observatory every `config.watch_period`, plus a flight
  /// recorder that can snapshot the whole run into a .gvfsdump. Implies
  /// EnableMetrics; call EnableTracing first for trace-fed detectors
  /// (migration flap) and ring capture in dumps. Sessions created after this
  /// call register their staleness SLOs, shard-imbalance groups and
  /// protocol-state providers. Strictly opt-in: runs that never call this
  /// are byte-identical to pre-diagnosis builds. Idempotent (first config
  /// wins).
  obs::Watchdog& EnableDiagnosis(obs::ObsConfig config = {});

  /// Arms dump-on-anomaly: the first detector firing writes a flight-
  /// recorder snapshot to `path` (once per run). Implies EnableDiagnosis.
  void DumpOnAnomaly(const std::string& path);

  /// The diagnosis components, or nullptr when never enabled.
  obs::Watchdog* watchdog() { return watchdog_.get(); }
  obs::FlightRecorder* recorder() { return recorder_.get(); }

  /// Fault injection for negative tests: proxy servers and aggregators
  /// built after this call run with `hooks` (gvfs/fault_hooks.h). Without
  /// it they get a null FaultHooks pointer.
  void InjectFaults(const proxy::FaultHooks& hooks);

 private:
  /// The one session builder behind CreateSession and CreateFleetSession.
  /// Metric and state-provider names start with `tag`; shard k registers
  /// as `<tag>.s<k>`, unless `classic_names`, where the (single) server
  /// registers metrics under `<tag>.` and its state as `<tag>.server`.
  void BuildSession(FleetSession& session, const FleetConfig& config,
                    const std::string& tag, bool classic_names,
                    const std::vector<int>& clients, std::size_t active_mounts,
                    const kclient::MountOptions& kernel_options);

  TestbedConfig config_;
  sim::Scheduler sched_;
  net::Network network_;
  rpc::Domain domain_;
  memfs::MemFs fs_;
  HostId server_host_;
  rpc::RpcNode* nfsd_node_;
  std::unique_ptr<nfs3::Nfs3Server> nfsd_;

  std::vector<HostId> client_hosts_;
  std::uint32_t next_port_ = 10000;

  // Stable storage for created components.
  std::deque<std::unique_ptr<kclient::KernelClient>> mounts_;
  std::unique_ptr<afs::AfsServer> afs_server_;
  std::deque<std::unique_ptr<afs::AfsClient>> afs_clients_;
  std::deque<std::unique_ptr<proxy::ProxyClient>> proxy_clients_;
  std::deque<std::unique_ptr<proxy::ProxyServer>> proxy_servers_;
  std::deque<std::unique_ptr<fleet::InvAggregator>> aggregators_;
  std::deque<FleetSession> fleet_sessions_;
  std::deque<std::unique_ptr<rpc::StatsMap>> stats_;
  std::deque<GvfsSession> sessions_;
  std::map<const kclient::KernelClient*, rpc::StatsMap*> mount_stats_;
  std::unique_ptr<trace::TraceBuffer> trace_buffer_;
  std::unique_ptr<metrics::Registry> metrics_registry_;
  std::unique_ptr<metrics::Sampler> metrics_sampler_;
  /// Per-session staleness probes (stable addresses; indexed by session).
  std::deque<metrics::StalenessProbe> staleness_probes_;
  std::unique_ptr<obs::Watchdog> watchdog_;
  std::unique_ptr<obs::FlightRecorder> recorder_;
  std::string dump_path_;
  bool dump_written_ = false;
  std::unique_ptr<proxy::FaultHooks> faults_;
};

}  // namespace gvfs::workloads
