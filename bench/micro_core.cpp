// Microbenchmarks (google-benchmark) for the hot paths of the stack:
// XDR encoding/decoding, disk-cache operations, the simulation scheduler,
// a policy window, and full simulated NFS GETATTR and 32 KB WRITE round
// trips.
#include <benchmark/benchmark.h>

#include "gvfs/disk_cache.h"
#include "memfs/memfs.h"
#include "net/network.h"
#include "nfs3/client.h"
#include "nfs3/server.h"
#include "policy/policy.h"
#include "rpc/rpc.h"
#include "sim/scheduler.h"
#include "sim/sync.h"
#include "xdr/xdr.h"

namespace gvfs {
namespace {

void BM_XdrEncodeFattr(benchmark::State& state) {
  nfs3::Fattr attr;
  attr.size = 123456;
  attr.fileid = 42;
  for (auto _ : state) {
    xdr::Encoder enc;
    attr.Encode(enc);
    benchmark::DoNotOptimize(enc.bytes());
  }
}
BENCHMARK(BM_XdrEncodeFattr);

void BM_XdrDecodeFattr(benchmark::State& state) {
  nfs3::Fattr attr;
  attr.size = 123456;
  xdr::Encoder enc;
  attr.Encode(enc);
  const Buf wire = enc.Take();
  for (auto _ : state) {
    xdr::Decoder dec(wire);
    auto decoded = nfs3::Fattr::Decode(dec);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_XdrDecodeFattr);

void BM_XdrOpaqueRoundTrip(benchmark::State& state) {
  Bytes payload(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    xdr::Encoder enc;
    enc.PutOpaque(payload);
    xdr::Decoder dec(enc.bytes());
    auto out = dec.GetOpaque();
    benchmark::DoNotOptimize(out);
    if (out) benchmark::DoNotOptimize(out->ptr);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_XdrOpaqueRoundTrip)->Arg(1024)->Arg(32 * 1024);

void BM_DiskCacheAttrLookup(benchmark::State& state) {
  proxy::DiskCache cache;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    nfs3::Fattr attr;
    attr.fileid = i;
    cache.StoreAttr(nfs3::Fh{1, i}, attr, 0);
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.ValidAttr(nfs3::Fh{1, i % 10000}));
    ++i;
  }
}
BENCHMARK(BM_DiskCacheAttrLookup);

void BM_DiskCacheBlockWrite(benchmark::State& state) {
  proxy::DiskCache cache;
  Bytes data(32 * 1024, 0x5a);
  std::uint64_t i = 0;
  for (auto _ : state) {
    cache.StoreBlock(nfs3::Fh{1, 1}, i % 64, data, false);
    ++i;
  }
  state.SetBytesProcessed(state.iterations() * 32 * 1024);
}
BENCHMARK(BM_DiskCacheBlockWrite);

void BM_SchedulerEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    for (int i = 0; i < 1000; ++i) {
      sched.At(i, [] {});
    }
    sched.Run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerEventThroughput);

void BM_MemFsCreateWrite(benchmark::State& state) {
  SimTime now = 0;
  std::uint64_t i = 0;
  memfs::MemFs fs(&now);
  Bytes data(4096, 1);
  for (auto _ : state) {
    auto ino = fs.Create(fs.root(), "f" + std::to_string(i++), 0644);
    benchmark::DoNotOptimize(fs.Write(*ino, 0, data));
  }
}
BENCHMARK(BM_MemFsCreateWrite);

/// One policy window on an engine holding range(0) quiet read delegations,
/// 16 of which are read once per window. Tick still visits every delegated
/// file, so the cost grows with range(0); an idle polling file is forgotten
/// and costs nothing (PolicyEngine.TickCostIgnoresIdleFiles).
void BM_PolicyTick(benchmark::State& state) {
  const auto settled = static_cast<std::uint64_t>(state.range(0));
  policy::PolicyEngine engine;
  SimTime now = 0;
  // Two hot windows promote every file; a quiet third settles them all.
  for (int window = 0; window < 3; ++window) {
    for (std::uint64_t ino = 1; window < 2 && ino <= settled; ++ino) {
      for (int r = 0; r < 4; ++r) engine.OnRead({1, ino});
    }
    now += Seconds(5);
    for (const policy::Migration& m : engine.Tick(now)) {
      engine.Commit(m.file, m.to, now);
    }
  }
  std::uint64_t next = 0;
  for (auto _ : state) {
    for (int i = 0; i < 16; ++i) engine.OnRead({1, 1 + next++ % settled});
    now += Seconds(5);
    benchmark::DoNotOptimize(engine.Tick(now));
  }
}
BENCHMARK(BM_PolicyTick)->Arg(100)->Arg(100'000);

/// One full simulated GETATTR round trip: client node -> WAN -> NFS server
/// and back, including XDR, RPC framing, and event scheduling.
void BM_SimulatedGetattrRoundTrip(benchmark::State& state) {
  sim::Scheduler sched;
  net::Network network(sched);
  rpc::Domain domain(sched, network);
  memfs::MemFs fs(sched.NowPtr());
  HostId client_host = network.AddHost("c");
  HostId server_host = network.AddHost("s");
  network.Connect(client_host, server_host, net::LinkConfig{Milliseconds(20), 4'000'000});
  rpc::RpcNode& client_node = domain.CreateNode(client_host, 1, "c");
  rpc::RpcNode& server_node = domain.CreateNode(server_host, 2049, "nfsd");
  nfs3::Nfs3Server server(sched, fs, server_node);
  nfs3::Nfs3Client client(client_node, server_node.address());
  nfs3::Fh root = server.RootFh();

  for (auto _ : state) {
    bool done = false;
    sim::Spawn([](nfs3::Nfs3Client* c, nfs3::Fh fh, bool* flag) -> sim::Task<void> {
      auto res = co_await c->Call<nfs3::GetAttrRes>(nfs3::kGetAttr,
                                                    nfs3::GetAttrArgs{fh});
      benchmark::DoNotOptimize(res);
      *flag = true;
    }(&client, root, &done));
    while (!done) sched.Run(1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatedGetattrRoundTrip);

/// One full simulated 32 KB WRITE: client node -> WAN -> NFS server -> memfs
/// and back. The data plane's per-block cost: the payload's encode, the
/// packets and bodies that share it, its decode as a slice, and its storage.
void BM_SimulatedWriteRoundTrip(benchmark::State& state) {
  constexpr std::size_t kBlock = 32 * 1024;
  sim::Scheduler sched;
  net::Network network(sched);
  rpc::Domain domain(sched, network);
  memfs::MemFs fs(sched.NowPtr());
  HostId client_host = network.AddHost("c");
  HostId server_host = network.AddHost("s");
  network.Connect(client_host, server_host, net::LinkConfig{Milliseconds(20), 4'000'000});
  rpc::RpcNode& client_node = domain.CreateNode(client_host, 1, "c");
  rpc::RpcNode& server_node = domain.CreateNode(server_host, 2049, "nfsd");
  nfs3::Nfs3Server server(sched, fs, server_node);
  nfs3::Nfs3Client client(client_node, server_node.address());
  nfs3::WriteArgs args;
  args.file = server.FhFor(*fs.Create(fs.root(), "f", 0644));
  args.stable = nfs3::StableHow::kUnstable;
  args.data = Bytes(kBlock, 0x5a);

  for (auto _ : state) {
    bool done = false;
    sim::Spawn([](nfs3::Nfs3Client* c, const nfs3::WriteArgs* write,
                  bool* flag) -> sim::Task<void> {
      auto res = co_await c->Call<nfs3::WriteRes>(nfs3::kWrite, *write);
      benchmark::DoNotOptimize(res);
      *flag = true;
    }(&client, &args, &done));
    while (!done) sched.Run(1);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * kBlock));
}
BENCHMARK(BM_SimulatedWriteRoundTrip);

}  // namespace
}  // namespace gvfs

BENCHMARK_MAIN();
