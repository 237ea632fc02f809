// Deterministic .gvfsdump fixtures for the doctor ctest tier.
//
//   gvfs_doctor_fixture --clean  out.gvfsdump   exits 0; dump is healthy
//   gvfs_doctor_fixture --unsafe out.gvfsdump   exits 0; dump carries an
//                                               invariant-6 violation
//
// Both run the same adaptive two-client scenario (mirroring the policy
// fault-injection test): client 1 earns a read delegation on /hot, client 0
// keeps writing so invalidations pile up in client 1's server-side buffer
// (the poll period is far too long to drain them), then contention demotes
// the file. With --unsafe the server runs with FaultHooks::skip_drain,
// so the demotion MIGRATE skips the drain-before-switch step and the
// flight-recorder dump captures a version-discontinuous migration for
// gvfs-doctor to convict.
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "workloads/testbed.h"

namespace gvfs {
namespace {

using bench::Drive;
using workloads::Testbed;

constexpr kclient::OpenFlags kRead{};
constexpr kclient::OpenFlags kReadWrite{.read = true, .write = true};
constexpr kclient::OpenFlags kCreateWrite{
    .read = true, .write = true, .create = true};

sim::Task<void> Advance(sim::Scheduler& sched, Duration d) {
  co_await sim::Sleep(sched, d);
}

sim::Task<void> Scenario(Testbed& bed, workloads::GvfsSession& session) {
  auto& writer = session.mount(0);
  auto& reader = session.mount(1);

  auto seed = co_await writer.Open("/hot", kCreateWrite);
  if (!seed.has_value()) co_return;
  (void)co_await writer.Write(*seed, 0, Bytes(64, 1));
  (void)co_await writer.Close(*seed);

  // Promote: the reader hammers /hot until the policy engine migrates it to
  // a read delegation.
  for (int i = 0; i < 12; ++i) {
    auto fd = co_await reader.Open("/hot", kRead);
    if (fd.has_value()) {
      (void)co_await reader.Read(*fd, 0, 64);
      (void)co_await reader.Close(*fd);
    }
    co_await Advance(bed.sched(), Seconds(1));
  }

  // Contend: each round the writer mutates (buffering an invalidation for
  // the reader and recalling its grant) and the reader reads + writes, so
  // the file classifies contended and demotes back to polling.
  for (int i = 0; i < 14; ++i) {
    auto wfd = co_await writer.Open("/hot", kReadWrite);
    if (wfd.has_value()) {
      (void)co_await writer.Write(*wfd, 0, Bytes(64, 2));
      (void)co_await writer.Close(*wfd);
    }
    auto rfd = co_await reader.Open("/hot", kReadWrite);
    if (rfd.has_value()) {
      (void)co_await reader.Read(*rfd, 0, 64);
      (void)co_await reader.Write(*rfd, 0, Bytes(64, 3));
      (void)co_await reader.Close(*rfd);
    }
    co_await Advance(bed.sched(), Seconds(1));
  }
  co_await Advance(bed.sched(), Seconds(12));
  co_await session.Shutdown();
}

int Run(bool skip_drain, const std::string& out_path) {
  proxy::SessionConfig config;
  config.model = proxy::ConsistencyModel::kInvalidationPolling;
  config.adaptive = true;
  config.poll_period = Seconds(300);  // polling never beats the migration
  config.poll_max_period = Seconds(300);
  config.policy_period = Seconds(5);
  config.policy_dwell = Seconds(10);

  Testbed bed;
  bed.InjectFaults({.skip_drain = skip_drain});
  bed.AddWanClient();
  bed.AddWanClient();
  bed.EnableTracing(1 << 18);
  bed.EnableDiagnosis();
  // Keep the whole ring in the dump: the invariant-6 evidence (the buffered
  // kInvAppend without a matching delivery) predates the migration by most
  // of the run.
  bed.recorder()->SetMaxTraceEvents(1 << 18);

  kclient::MountOptions observable;
  observable.noac = true;
  observable.max_cached_bytes = 0;
  auto& session = bed.CreateSession(config, {0, 1}, observable);

  Drive(bed.sched(), Scenario(bed, session));

  const char* reason = skip_drain
                           ? "fixture: FaultHooks::skip_drain seeded "
                             "(invariant-6 violation expected)"
                           : "fixture: clean adaptive run";
  if (!bed.recorder()->Dump(out_path, reason)) {
    std::fprintf(stderr, "fixture: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("fixture: wrote %s (%s; %llu trace events, %zu anomalies)\n",
              out_path.c_str(), skip_drain ? "unsafe" : "clean",
              static_cast<unsigned long long>(bed.trace_buffer()->recorded()),
              bed.watchdog()->anomalies().size());
  return 0;
}

}  // namespace
}  // namespace gvfs

int main(int argc, char** argv) {
  const bool unsafe = gvfs::bench::HasFlag(argc, argv, "--unsafe");
  const bool clean = gvfs::bench::HasFlag(argc, argv, "--clean");
  const char* out = argc > 2 ? argv[2] : nullptr;
  if ((unsafe == clean) || out == nullptr) {
    std::fprintf(stderr,
                 "usage: gvfs_doctor_fixture (--clean|--unsafe) out.gvfsdump\n");
    return 2;
  }
  return gvfs::Run(unsafe, out);
}
