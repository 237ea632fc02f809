// fleet-agg: thousands of WAN clients, each with a kernel mount, re-read a
// small shared config set on a think-time cycle while one more client
// rewrites a config file every few seconds. The session is fig_scale's
// largest topology: invalidation polling through 4 proxy-server shards and
// the GETINV aggregation tier.
//
// Clients far outnumber files and payloads are ~1 KB, so the cost is per
// event and per client: GETINV fan-in and fan-out, NOTIFYINV, per-client
// buffers. The data plane is idle.
//
// The seed draws the file sizes, think times, file choices and write order,
// but the sizes and every reader's think times are stratified over their
// ranges, and the writer rewrites the files in one seeded order, round after
// round, on a fixed cadence of four writes per poll period, so no two writes
// to one file coalesce. How much work a run does barely moves with the seed:
// seeds move the interleaving, not the totals.
#include <string>
#include <vector>

#include "common/rng.h"
#include "sim/concurrency.h"
#include "sim/sync.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kReaders = 2048;
constexpr int kFiles = 16;
constexpr std::uint32_t kMinSize = 512;
constexpr std::uint32_t kMaxSize = 1536;
constexpr int kAccessesPerReader = 48;
constexpr Duration kThinkMin = gvfs::Seconds(1);
constexpr Duration kThinkMax = gvfs::Seconds(10);
constexpr int kWrites = 4 * kFiles;
constexpr Duration kPollPeriod = gvfs::Seconds(15);  // fig_scale's cadence
constexpr Duration kWriteGap = kPollPeriod / 4;

struct ConfigFile {
  std::string path;
  memfs::InodeId ino = 0;
  std::uint32_t size = 0;
  std::uint32_t version = 0;
};

struct Fleet {
  Harness* h = nullptr;
  std::uint64_t seed = 0;
  std::vector<ConfigFile> files;
  std::vector<kclient::KernelClient*> readers;
  kclient::KernelClient* writer = nullptr;
};

gvfs::Rng StreamRng(std::uint64_t seed, std::uint64_t stream) {
  return gvfs::Rng(seed * 0x9e3779b97f4a7c15ULL + stream + 1);
}

/// `n` values, one drawn from each of `n` equal slices of [lo, hi), in a
/// seeded order: their sum barely moves with the seed.
template <typename T>
std::vector<T> Spread(gvfs::Rng& rng, int n, T lo, T hi) {
  const auto slice = static_cast<std::uint64_t>(hi - lo) / static_cast<std::uint64_t>(n);
  std::vector<T> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(lo + static_cast<T>(slice * static_cast<std::uint64_t>(i) + rng.Below(slice)));
  }
  Shuffle(rng, out);
  return out;
}

/// One access, as a config watcher does it: stat, open, read the whole
/// (small) file, close.
sim::Task<void> Access(Fleet* f, kclient::KernelClient* mount, int index) {
  Harness& h = *f->h;
  const ConfigFile& file = f->files[static_cast<std::size_t>(index)];
  SimTime start = h.Now();
  auto attr = co_await mount->Stat(file.path);
  h.Op(OpType::kStat, start, attr.has_value());
  start = h.Now();
  auto fd = co_await mount->Open(file.path, kclient::OpenFlags{});
  h.Op(OpType::kOpen, start, fd.has_value());
  if (!fd) co_return;
  (void)co_await h.Read(*mount, *fd, file.ino, 0, 4096);
  start = h.Now();
  auto closed = co_await mount->Close(*fd);
  h.Op(OpType::kClose, start, closed.has_value());
}

sim::Task<void> ColdRead(Fleet* f, kclient::KernelClient* mount) {
  for (int i = 0; i < kFiles; ++i) co_await Access(f, mount, i);
}

sim::Task<void> ColdPass(Fleet* f) {
  sim::WaitGroup group(f->h->bed().sched());
  for (kclient::KernelClient* mount : f->readers) group.Spawn(ColdRead(f, mount));
  group.Spawn(ColdRead(f, f->writer));
  co_await group.Wait();
}

sim::Task<void> Reader(Fleet* f, int index) {
  gvfs::Rng rng = StreamRng(f->seed, static_cast<std::uint64_t>(index));
  kclient::KernelClient* mount = f->readers[static_cast<std::size_t>(index)];
  for (Duration think : Spread(rng, kAccessesPerReader, kThinkMin, kThinkMax)) {
    co_await sim::Sleep(f->h->bed().sched(), think);
    co_await Access(f, mount, static_cast<int>(rng.Below(kFiles)));
  }
}

sim::Task<void> Writer(Fleet* f) {
  Harness& h = *f->h;
  gvfs::Rng rng = StreamRng(f->seed, kReaders);
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < kFiles; ++i) order.push_back(i);
  Shuffle(rng, order);
  for (int w = 0; w < kWrites; ++w) {
    co_await sim::Sleep(h.bed().sched(), kWriteGap);
    const std::size_t index = order[static_cast<std::size_t>(w % kFiles)];
    ConfigFile& file = f->files[index];
    SimTime start = h.Now();
    auto fd = co_await f->writer->Open(file.path,
                                       kclient::OpenFlags{.read = true, .write = true});
    h.Op(OpType::kOpen, start, fd.has_value());
    if (!fd) continue;
    ++file.version;
    start = h.Now();
    auto written = co_await f->writer->Write(
        *fd, 0, StampedBlock(index + 1, 0, file.version, file.size));
    h.Op(OpType::kWrite, start, written.has_value());
    start = h.Now();
    auto closed = co_await f->writer->Close(*fd);
    h.Op(OpType::kClose, start, closed.has_value());
    h.NoteCommitted(index + 1, 0, file.version, file.ino);
  }
}

sim::Task<void> Timed(Fleet* f) {
  sim::WaitGroup group(f->h->bed().sched());
  for (int i = 0; i < kReaders; ++i) group.Spawn(Reader(f, i));
  group.Spawn(Writer(f));
  co_await group.Wait();
}

sim::Task<void> Verify(Fleet* f) {
  // Read the whole config set back through readers spread over the fleet.
  for (int r : {0, kReaders / 3, 2 * kReaders / 3, kReaders - 1}) {
    for (const ConfigFile& file : f->files) {
      co_await f->h->VerifyFile(*f->readers[static_cast<std::size_t>(r)], file.path);
    }
  }
}

}  // namespace

void RunFleetAgg(Harness& h) {
  if (h.opt().paper) {
    h.report().Error("fleet-agg has no paper figure to cross-check");
    return;
  }
  Fleet f;
  f.h = &h;
  f.seed = h.opt().seed;

  h.Phase("topology");
  workloads::Testbed bed;
  h.Attach(bed, std::size_t{1} << 26);
  std::vector<int> members;
  for (int i = 0; i <= kReaders; ++i) members.push_back(bed.AddWanClient());

  h.Phase("population");
  gvfs::Rng rng = StreamRng(f.seed, kReaders + 1);
  const std::vector<std::uint32_t> sizes = Spread(rng, kFiles, kMinSize, kMaxSize);
  memfs::MemFs& fs = bed.fs();
  const memfs::InodeId dir = fs.Mkdir(fs.root(), "cfg", 0755).value();
  for (int i = 0; i < kFiles; ++i) {
    ConfigFile file;
    file.path = "/cfg/f" + std::to_string(i);
    file.size = sizes[static_cast<std::size_t>(i)];
    file.ino = fs.Create(dir, "f" + std::to_string(i), 0644).value();
    (void)fs.Write(file.ino, 0, StampedBlock(static_cast<std::uint64_t>(i) + 1, 0, 0, file.size));
    f.files.push_back(file);
  }

  h.Phase("sessions");
  workloads::FleetConfig config;
  config.shards = 4;
  config.aggregate = true;
  config.session.model = proxy::ConsistencyModel::kInvalidationPolling;
  config.session.poll_period = kPollPeriod;
  config.session.poll_max_period = kPollPeriod;
  config.session.cache_mode = proxy::CacheMode::kReadOnly;
  config.aggregator.poll_period = kPollPeriod;
  workloads::FleetSession& session = bed.CreateFleetSession(config, members);
  h.AddSession(session);
  for (int i = 0; i < kReaders; ++i) f.readers.push_back(&session.mount(static_cast<std::size_t>(i)));
  f.writer = &session.mount(kReaders);
  HostId agg_host = gvfs::kInvalidHost;
  for (HostId host = 0; host < bed.network().HostCount(); ++host) {
    const std::string& name = bed.network().HostName(host);
    if (name.size() > 4 && name.compare(name.size() - 4, 4, "-agg") == 0) agg_host = host;
  }
  for (int member : members) {
    h.AddWanLink(bed.client_host(member), bed.server_host());
    h.AddWanLink(bed.client_host(member), agg_host);
  }
  // The paper's poll_period + 2*RTT bound is for a client polling the server
  // directly. Through the tier a committed write waits for the tier's
  // upstream poll and then for the client's poll of the tier, so the bound
  // holds one more poll period (reads measured up to 15.5 s stale, beyond
  // 15 s + 2*RTT).
  const Duration rtt = 2 * workloads::TestbedConfig{}.wan.one_way_latency;
  h.SetStalenessBound(kPollPeriod + config.aggregator.poll_period + 2 * rtt,
                      "client poll_period + tier poll_period + 2*RTT");

  h.Phase("cold");
  h.Drive(ColdPass(&f));

  h.Phase("timed");
  h.Drive(Timed(&f));

  h.Phase("verify");
  h.Idle(kPollPeriod + config.aggregator.poll_period + gvfs::Seconds(5));
  h.Drive(Verify(&f));

  h.report().Add("fleet.clients", static_cast<double>(members.size()), "count", Kind::kSim);
  h.Finish();
}

}  // namespace perfbench
