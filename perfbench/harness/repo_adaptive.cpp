// repo-adaptive: the paper's NanoMOS software repository (fig7) under an
// adaptive session. Six WAN readers run eight iterations over a ~14K-entry
// MATLAB tree plus 540 MPITB files; between iterations 4 and 5 a LAN admin
// rewrites the whole MATLAB package.
//
// Each reader's ~1.4K-file working set exceeds the kernel's 512-entry
// attribute and name caches, the update pushes ~14K invalidations per reader
// through the server's per-client buffers in poll-again batches, and the
// policy engine re-classifies every tracked file in every window. At the
// paper's parameters the per-iteration times reproduce fig7's GVFS row.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sim/sync.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kReaders = 6;
constexpr Duration kPollPeriod = gvfs::Seconds(30);
// fig7 GVFS row, whole-MATLAB update (Figure 7(a)).
constexpr double kFig7Gvfs[] = {167.1, 41.8, 41.8, 41.8, 167.2, 41.8, 41.8, 41.8};

struct RepoFile {
  std::string path;
  memfs::InodeId ino = 0;
  std::uint64_t serial = 0;
  std::uint32_t size = 0;
};

struct Repo {
  Harness* h = nullptr;
  // fig7's shape (workloads::NanomosConfig defaults).
  int matlab_dirs = 96;
  int files_per_dir = 140;
  int mpitb_files = 540;
  int working_dirs = 6;
  std::uint32_t read_bytes = 8 * 1024;
  int iterations = 8;
  int update_after = 4;
  Duration compute = gvfs::Seconds(35);
  Duration gap = gvfs::Seconds(40);

  std::vector<RepoFile> matlab;  // dir-major
  std::vector<RepoFile> mpitb;
  std::vector<const RepoFile*> working_set;  // what every reader loads, in order
  std::vector<kclient::KernelClient*> readers;
  kclient::KernelClient* admin = nullptr;
  std::vector<double> iteration_s;
};

void Populate(Repo* repo, std::uint64_t seed, bool paper) {
  gvfs::Rng rng(seed);
  auto size = [&rng, paper](std::uint32_t nominal) {
    return paper ? nominal
                 : static_cast<std::uint32_t>(rng.Range(nominal / 2, nominal * 3 / 2));
  };
  memfs::MemFs& fs = repo->h->bed().fs();
  auto add = [&fs](std::vector<RepoFile>& files, memfs::InodeId dir, std::string path,
                   const std::string& name, std::uint64_t serial, std::uint32_t bytes) {
    RepoFile file{std::move(path), fs.Create(dir, name, 0644).value(), serial, bytes};
    (void)fs.Write(file.ino, 0, StampedBlock(serial, 0, 0, bytes));
    files.push_back(std::move(file));
  };
  const memfs::InodeId matlab = fs.Mkdir(fs.root(), "matlab", 0755).value();
  for (int d = 0; d < repo->matlab_dirs; ++d) {
    const std::string dir_name = "d" + std::to_string(d);
    const memfs::InodeId dir = fs.Mkdir(matlab, dir_name, 0755).value();
    for (int i = 0; i < repo->files_per_dir; ++i) {
      const std::string name = "f" + std::to_string(i) + ".m";
      add(repo->matlab, dir, "/matlab/" + dir_name + "/" + name, name,
          repo->matlab.size() + 1, size(2 * 1024));
    }
  }
  const memfs::InodeId mpitb = fs.Mkdir(matlab, "mpitb", 0755).value();
  for (int i = 0; i < repo->mpitb_files; ++i) {
    const std::string name = "f" + std::to_string(i) + ".m";
    add(repo->mpitb, mpitb, "/matlab/mpitb/" + name, name, 1'000'000 + i, size(8 * 1024));
  }

  // The simulator loads all of MPITB, then a slice of MATLAB toolboxes: the
  // first directories in the paper run, a seeded choice otherwise.
  std::vector<int> dirs(static_cast<std::size_t>(repo->matlab_dirs));
  for (int d = 0; d < repo->matlab_dirs; ++d) dirs[static_cast<std::size_t>(d)] = d;
  if (!paper) {
    for (int i = 0; i < repo->working_dirs; ++i) {
      const auto pick = i + static_cast<int>(rng.Below(static_cast<std::uint64_t>(repo->matlab_dirs - i)));
      std::swap(dirs[static_cast<std::size_t>(i)], dirs[static_cast<std::size_t>(pick)]);
    }
  }
  for (const RepoFile& file : repo->mpitb) repo->working_set.push_back(&file);
  for (int i = 0; i < repo->working_dirs; ++i) {
    const int d = dirs[static_cast<std::size_t>(i)];
    for (int f = 0; f < repo->files_per_dir; ++f) {
      repo->working_set.push_back(
          &repo->matlab[static_cast<std::size_t>(d * repo->files_per_dir + f)]);
    }
  }
}

sim::Task<void> Load(Repo* repo, kclient::KernelClient* mount, const RepoFile* file) {
  Harness& h = *repo->h;
  SimTime start = h.Now();
  auto fd = co_await mount->Open(file->path, kclient::OpenFlags{});
  h.Op(OpType::kOpen, start, fd.has_value());
  if (!fd) co_return;
  (void)co_await h.Read(*mount, *fd, file->ino, 0, std::min(repo->read_bytes, file->size));
  start = h.Now();
  auto closed = co_await mount->Close(*fd);
  h.Op(OpType::kClose, start, closed.has_value());
}

/// One reader's iteration: load the working set, then compute.
sim::Task<void> Iteration(Repo* repo, kclient::KernelClient* mount, SimTime* finish) {
  for (const RepoFile* file : repo->working_set) co_await Load(repo, mount, file);
  co_await sim::Sleep(repo->h->bed().sched(), repo->compute);
  *finish = std::max(*finish, repo->h->Now());
}

sim::Task<void> RunIterations(Repo* repo, int first, int last) {
  sim::Scheduler& sched = repo->h->bed().sched();
  for (int iteration = first; iteration <= last; ++iteration) {
    if (iteration == repo->update_after + 1) {
      // The admin rewrites the whole package while the readers are idle.
      Harness& h = *repo->h;
      for (auto* files : {&repo->matlab, &repo->mpitb}) {
        for (const RepoFile& file : *files) {
          SimTime start = h.Now();
          auto fd = co_await repo->admin->Open(file.path,
                                               kclient::OpenFlags{.read = true, .write = true});
          h.Op(OpType::kOpen, start, fd.has_value());
          if (!fd) continue;
          start = h.Now();
          auto written =
              co_await repo->admin->Write(*fd, 0, StampedBlock(file.serial, 0, 1, file.size));
          h.Op(OpType::kWrite, start, written.has_value());
          start = h.Now();
          auto closed = co_await repo->admin->Close(*fd);
          h.Op(OpType::kClose, start, closed.has_value());
          h.NoteCommitted(file.serial, 0, 1, file.ino);
        }
      }
      co_await sim::Sleep(sched, repo->gap);
    }
    const SimTime start = sched.Now();
    SimTime finish = start;
    std::vector<sim::Task<void>> tasks;
    for (kclient::KernelClient* mount : repo->readers) {
      tasks.push_back(Iteration(repo, mount, &finish));
    }
    co_await sim::WhenAll(sched, std::move(tasks));
    repo->iteration_s.push_back(gvfs::ToSeconds(finish - start));
    if (iteration < repo->iterations) co_await sim::Sleep(sched, repo->gap);
  }
}

sim::Task<void> VerifyWorkingSet(Repo* repo, kclient::KernelClient* mount) {
  for (const RepoFile* file : repo->working_set) {
    co_await repo->h->VerifyFile(*mount, file->path);
  }
}

/// Every reader reads its working set back (concurrently, so the policy
/// loops tick through few windows meanwhile); the LAN admin reads back the
/// whole tree.
sim::Task<void> Verify(Repo* repo) {
  std::vector<sim::Task<void>> tasks;
  for (kclient::KernelClient* mount : repo->readers) {
    tasks.push_back(VerifyWorkingSet(repo, mount));
  }
  co_await sim::WhenAll(repo->h->bed().sched(), std::move(tasks));
  for (auto* files : {&repo->matlab, &repo->mpitb}) {
    for (const RepoFile& file : *files) co_await repo->h->VerifyFile(*repo->admin, file.path);
  }
}

}  // namespace

void RunRepoAdaptive(Harness& h) {
  Repo repo;
  repo.h = &h;
  const bool paper = h.opt().paper;

  h.Phase("topology");
  workloads::Testbed bed;
  h.Attach(bed, std::size_t{1} << 26);
  std::vector<int> members;
  for (int i = 0; i < kReaders; ++i) {
    members.push_back(bed.AddWanClient());
    h.AddWanLink(bed.client_host(members.back()), bed.server_host());
  }
  members.push_back(bed.AddLanClient());  // the admin

  h.Phase("population");
  Populate(&repo, paper ? 11 : h.opt().seed, paper);

  h.Phase("sessions");
  proxy::SessionConfig config;
  config.model = proxy::ConsistencyModel::kInvalidationPolling;
  config.adaptive = true;  // every file starts in polling
  config.poll_period = kPollPeriod;
  config.poll_max_period = kPollPeriod;
  config.cache_mode = proxy::CacheMode::kReadOnly;
  // Middleware tailoring: buffers sized for a package-scale update.
  config.inv_buffer_capacity = 20000;
  workloads::GvfsSession& session = bed.CreateSession(config, members);
  h.AddSession(session);
  for (int i = 0; i < kReaders; ++i) repo.readers.push_back(&session.mount(static_cast<std::size_t>(i)));
  repo.admin = &session.mount(kReaders);
  const Duration rtt = 2 * workloads::TestbedConfig{}.wan.one_way_latency;
  h.SetStalenessBound(kPollPeriod + 2 * rtt, "poll_period + 2*RTT");

  // Set-up runs every iteration before the update, the cold one and three
  // warm ones: about a second of the same work as the timed phase, which is
  // the update and the iterations after it.
  h.Phase("cold");
  h.Drive(RunIterations(&repo, 1, repo.update_after));
  h.Phase("timed");
  h.Drive(RunIterations(&repo, repo.update_after + 1, repo.iterations));

  h.Phase("verify");
  h.Idle(kPollPeriod + gvfs::Seconds(5));
  h.Drive(Verify(&repo));

  for (std::size_t i = 0; i < repo.iteration_s.size(); ++i) {
    h.report().Add("repo.iter" + std::to_string(i + 1) + "_s", repo.iteration_s[i], "s",
                   Kind::kSim);
  }
  if (paper) {
    for (std::size_t i = 0; i < repo.iteration_s.size() && i < std::size(kFig7Gvfs); ++i) {
      if (std::abs(repo.iteration_s[i] - kFig7Gvfs[i]) >= 0.05) {
        h.report().Error("iteration " + std::to_string(i + 1) + " took " +
                         std::to_string(repo.iteration_s[i]) +
                         " s; fig7's GVFS row has " + std::to_string(kFig7Gvfs[i]) + " s");
      }
    }
  }
  h.Finish();
}

}  // namespace perfbench
