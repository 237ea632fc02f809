#include "workloads/testbed.h"

namespace gvfs::workloads {

namespace {
constexpr std::uint32_t kNfsdPort = 2049;
}

sim::Task<void> FleetSession::Shutdown() {
  for (auto* proxy : proxies) co_await proxy->Shutdown();
  if (aggregator != nullptr) aggregator->Stop();
}

Testbed::Testbed(TestbedConfig config)
    : config_(config),
      network_(sched_),
      domain_(sched_, network_),
      fs_(sched_.NowPtr()),
      server_host_(network_.AddHost("server")) {
  nfsd_node_ = &domain_.CreateNode(server_host_, kNfsdPort, "nfsd");
  nfsd_ = std::make_unique<nfs3::Nfs3Server>(sched_, fs_, *nfsd_node_);
}

metrics::Registry& Testbed::EnableMetrics(Duration period) {
  if (metrics_registry_ == nullptr) {
    metrics_registry_ = std::make_unique<metrics::Registry>();
    metrics_sampler_ = std::make_unique<metrics::Sampler>(
        sched_, *metrics_registry_, period);
    metrics_sampler_->Start();
  }
  return *metrics_registry_;
}

obs::Watchdog& Testbed::EnableDiagnosis(obs::ObsConfig config) {
  if (watchdog_ == nullptr) {
    metrics::Registry& registry = EnableMetrics();
    watchdog_ = std::make_unique<obs::Watchdog>(sched_, config);
    watchdog_->WatchRegistry(&registry);
    watchdog_->AttachMetrics(registry);
    if (trace_buffer_ != nullptr) {
      watchdog_->WatchTrace(trace_buffer_.get());
      watchdog_->SetTracer(
          trace::Tracer(trace_buffer_.get(), sched_.NowPtr()), server_host_);
    }
    watchdog_->Start();

    recorder_ = std::make_unique<obs::FlightRecorder>();
    recorder_->SetRegistry(&registry);
    recorder_->SetClock(sched_.NowPtr());
    recorder_->SetWatchdog(watchdog_.get());
    if (trace_buffer_ != nullptr) recorder_->SetTrace(trace_buffer_.get());
  }
  return *watchdog_;
}

void Testbed::DumpOnAnomaly(const std::string& path) {
  EnableDiagnosis();
  dump_path_ = path;
  watchdog_->SetOnAnomaly([this](const obs::Anomaly& anomaly) {
    if (dump_written_ || dump_path_.empty()) return;
    dump_written_ = true;
    recorder_->Dump(dump_path_, std::string("anomaly: ") +
                                    obs::AnomalyKindName(anomaly.kind) +
                                    " — " + anomaly.detail);
  });
}

trace::TraceBuffer& Testbed::EnableTracing(std::size_t capacity) {
  if (trace_buffer_ == nullptr) {
    trace_buffer_ = std::make_unique<trace::TraceBuffer>(capacity);
  }
  const trace::Tracer tracer(trace_buffer_.get(), sched_.NowPtr());
  network_.SetTracer(tracer);
  domain_.SetTracer(tracer);  // applies to existing and future nodes
  return *trace_buffer_;
}

int Testbed::AddWanClient() {
  const int index = ClientCount();
  std::string client_name = "c";
  client_name += std::to_string(index);
  HostId host = network_.AddHost(client_name);
  network_.Connect(host, server_host_, config_.wan);
  client_hosts_.push_back(host);
  return index;
}

int Testbed::AddLanClient() {
  const int index = ClientCount();
  HostId host = network_.AddHost("lan" + std::to_string(index));
  network_.Connect(host, server_host_, config_.lan);
  client_hosts_.push_back(host);
  return index;
}

kclient::KernelClient& Testbed::NativeMount(int index,
                                            kclient::MountOptions options) {
  HostId host = client_hosts_.at(index);
  rpc::RpcNode& node =
      domain_.CreateNode(host, next_port_++, "kclient@" + network_.HostName(host));
  stats_.push_back(std::make_unique<rpc::StatsMap>());
  node.SetStatsSink(stats_.back().get());

  mounts_.push_back(std::make_unique<kclient::KernelClient>(
      sched_, node, nfsd_node_->address(), nfsd_->RootFh(), std::move(options)));
  mount_stats_[mounts_.back().get()] = stats_.back().get();
  return *mounts_.back();
}

void Testbed::InjectFaults(const proxy::FaultHooks& hooks) {
  faults_ = std::make_unique<proxy::FaultHooks>(hooks);
}

GvfsSession& Testbed::CreateSession(const proxy::SessionConfig& config,
                                    const std::vector<int>& clients,
                                    kclient::MountOptions kernel_options) {
  FleetConfig fleet;
  fleet.session = config;
  sessions_.emplace_back();
  GvfsSession& session = sessions_.back();
  BuildSession(session, fleet, "s" + std::to_string(sessions_.size() - 1),
               /*classic_names=*/true, clients, clients.size(), kernel_options);
  session.server = session.shards[0];
  return session;
}

FleetSession& Testbed::CreateFleetSession(const FleetConfig& config,
                                          const std::vector<int>& clients,
                                          std::size_t active_mounts,
                                          kclient::MountOptions kernel_options) {
  fleet_sessions_.emplace_back();
  FleetSession& session = fleet_sessions_.back();
  BuildSession(session, config, "f" + std::to_string(fleet_sessions_.size() - 1),
               /*classic_names=*/false, clients, active_mounts, kernel_options);
  return session;
}

void Testbed::BuildSession(FleetSession& session, const FleetConfig& config,
                           const std::string& tag, bool classic_names,
                           const std::vector<int>& clients,
                           std::size_t active_mounts,
                           const kclient::MountOptions& kernel_options) {
  stats_.push_back(std::make_unique<rpc::StatsMap>());
  rpc::StatsMap* stats = stats_.back().get();
  session.stats = stats;

  // Reserve the shard ports up front: every shard (and every client) needs
  // the full ShardOf-indexed address vector before any node is created.
  const std::uint32_t shard_count = std::max<std::uint32_t>(1, config.shards);
  std::vector<net::Address> shard_addrs;
  shard_addrs.reserve(shard_count);
  for (std::uint32_t k = 0; k < shard_count; ++k) {
    shard_addrs.push_back(net::Address{server_host_, next_port_++});
  }
  const std::uint32_t agg_port = next_port_++;
  const std::uint32_t client_port = next_port_++;
  session.router = fleet::ShardRouter(shard_addrs);

  // Observatory wiring: one staleness probe per session (servers stamp
  // versions, proxy clients report cached reads into one shared histogram)
  // plus each component's telemetry under a session-scoped prefix.
  metrics::StalenessProbe* probe = nullptr;
  if (metrics_registry_ != nullptr) {
    staleness_probes_.emplace_back();
    probe = &staleness_probes_.back();
    probe->SetHistogram(&metrics_registry_->GetHistogram(tag + ".staleness_us"));
    metrics_registry_->AddProbe(tag + ".rpc_in_flight", [stats] {
      return static_cast<double>(stats->InFlight());
    });
  }

  if (watchdog_ != nullptr) {
    // Staleness SLO: polling-path sessions carry the paper's proven
    // poll_period + 2*RTT bound (adaptive sessions start in polling mode).
    if (config.session.model == proxy::ConsistencyModel::kInvalidationPolling ||
        config.session.adaptive) {
      watchdog_->AddStalenessSlo(
          tag + ".staleness_us",
          config.session.poll_period + 4 * config_.wan.one_way_latency);
    }
    if (shard_count >= 2) {
      std::vector<std::string> occupancy;
      occupancy.reserve(shard_count);
      for (std::uint32_t k = 0; k < shard_count; ++k) {
        occupancy.push_back(tag + ".s" + std::to_string(k) +
                            ".inv_buffer_entries");
      }
      watchdog_->WatchShardGroup(tag, occupancy);
    }
  }

  // Shards, all beside the kernel NFS server (loopback upstream). Each owns
  // the ShardOf slice at its index; foreign-handle mutations are forwarded
  // with NOTIFYINV.
  for (std::uint32_t k = 0; k < shard_count; ++k) {
    rpc::RpcNode& shard_node = domain_.CreateNode(
        server_host_, shard_addrs[k].port, "proxy-shard" + std::to_string(k));
    shard_node.SetStatsSink(stats);  // counts CALLBACK / recovery traffic
    proxy::SessionConfig shard_config = config.session;
    shard_config.shard_addrs = shard_addrs;
    shard_config.shard_index = k;
    proxy_servers_.push_back(std::make_unique<proxy::ProxyServer>(
        sched_, shard_node, nfsd_node_->address(), shard_config, faults_.get()));
    proxy::ProxyServer* shard = proxy_servers_.back().get();
    session.shards.push_back(shard);
    const std::string shard_tag = tag + ".s" + std::to_string(k);
    if (metrics_registry_ != nullptr) {
      shard->AttachMetrics(*metrics_registry_,
                           classic_names ? tag + "." : shard_tag + ".", probe);
    }
    if (watchdog_ != nullptr) {
      recorder_->AddStateProvider(
          classic_names ? tag + ".server" : shard_tag,
          [shard] { return shard->SnapshotState().Dump(); });
    }
  }

  // Aggregation tier: its own host, LAN-adjacent to the server so its
  // upstream polls are cheap, reached by clients over the WAN.
  net::Address agg_addr{};
  if (config.aggregate) {
    const HostId agg_host = network_.AddHost(tag + "-agg");
    network_.Connect(agg_host, server_host_, config_.lan);
    rpc::RpcNode& agg_node =
        domain_.CreateNode(agg_host, agg_port, "inv-agg");
    agg_node.SetStatsSink(stats);
    agg_addr = agg_node.address();
    fleet::InvAggregatorConfig agg_config = config.aggregator;
    agg_config.shards = shard_addrs;
    aggregators_.push_back(std::make_unique<fleet::InvAggregator>(
        sched_, agg_node, std::move(agg_config), faults_.get()));
    session.aggregator = aggregators_.back().get();
    fleet::InvAggregator* aggregator = session.aggregator;
    if (metrics_registry_ != nullptr) {
      aggregator->AttachMetrics(*metrics_registry_, tag + ".agg.");
    }
    if (watchdog_ != nullptr) {
      recorder_->AddStateProvider(tag + ".agg", [aggregator] {
        return aggregator->SnapshotState().Dump();
      });
    }
    aggregator->Start();
  }

  for (std::size_t i = 0; i < clients.size(); ++i) {
    const HostId host = client_hosts_.at(clients[i]);
    if (config.aggregate) {
      // Clients reach the aggregator over the same WAN they'd use for the
      // server; the tier's win is server-side fan-in, not client latency.
      network_.Connect(host, agg_addr.host, config_.wan);
    }
    // Proxy client: serves the local kernel client, calls the owning shard
    // across the WAN (counted), and answers callbacks.
    rpc::RpcNode& proxy_node = domain_.CreateNode(
        host, client_port, "proxy-client@" + network_.HostName(host));
    proxy_node.SetStatsSink(stats);
    proxy::SessionConfig client_config = config.session;
    client_config.shard_addrs = shard_addrs;
    if (config.aggregate) client_config.getinv_targets = {agg_addr};
    proxy_clients_.push_back(std::make_unique<proxy::ProxyClient>(
        sched_, proxy_node, shard_addrs[0], client_config));
    proxy::ProxyClient* proxy = proxy_clients_.back().get();
    const std::string client_tag = tag + ".c" + std::to_string(host);
    if (metrics_registry_ != nullptr) {
      proxy->AttachMetrics(*metrics_registry_, client_tag + ".", probe);
    }
    // Providers only for active mounts: a 4096-member poll-only fleet would
    // otherwise dominate every dump with idle client snapshots.
    if (watchdog_ != nullptr && i < active_mounts) {
      recorder_->AddStateProvider(
          client_tag, [proxy] { return proxy->SnapshotState().Dump(); });
    }
    proxy->Start();
    session.proxies.push_back(proxy);

    // Unmodified kernel client, mounted against the local proxy (loopback).
    if (i < active_mounts) {
      rpc::RpcNode& kernel_node = domain_.CreateNode(
          host, next_port_++, "kclient@" + network_.HostName(host));
      mounts_.push_back(std::make_unique<kclient::KernelClient>(
          sched_, kernel_node, proxy_node.address(), nfsd_->RootFh(),
          kernel_options));
      session.mounts.push_back(mounts_.back().get());
      mount_stats_[mounts_.back().get()] = stats;
    }
  }
}

afs::AfsClient& Testbed::AfsMount(int index) {
  if (!afs_server_) {
    rpc::RpcNode& node = domain_.CreateNode(server_host_, 7000, "afsd");
    afs_server_ = std::make_unique<afs::AfsServer>(sched_, fs_, node);
  }
  HostId host = client_hosts_.at(index);
  rpc::RpcNode& node =
      domain_.CreateNode(host, next_port_++, "afs@" + network_.HostName(host));
  afs_clients_.push_back(std::make_unique<afs::AfsClient>(
      sched_, node, net::Address{server_host_, 7000}));
  return *afs_clients_.back();
}

rpc::StatsMap& Testbed::StatsOf(const kclient::KernelClient& mount) {
  return *mount_stats_.at(&mount);
}

}  // namespace gvfs::workloads
