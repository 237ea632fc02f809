// postmark-deleg: PostMark at the paper's parameters on one WAN client,
// through a delegation session set up like fig5's GVFS2 (noac kernel mount,
// read-ahead 8, write window 8, write-through).
//
// The generator follows workloads::RunPostmark draw for draw, so at the
// paper's 600 transactions and seed 7 it reproduces fig5's GVFS2 point; the
// only difference is the payload, which carries version stamps. The timed
// phase runs more transactions than the figure so it outweighs set-up.
#include <string>
#include <vector>

#include "common/rng.h"
#include "workloads.h"
#include "workloads/postmark.h"

namespace perfbench {
namespace {

constexpr int kBenchTransactions = 6000;
constexpr double kFig5Gvfs2At40Ms = 95.9;  // EXPERIMENTS.md, Figure 5

struct PoolFile {
  std::string path;
  std::uint64_t size = 0;
  std::uint64_t serial = 0;  // stamp identity, new on every creation
  std::uint32_t version = 0;
  bool exists = false;
};

struct Postmark {
  Harness* h = nullptr;
  kclient::KernelClient* mount = nullptr;
  workloads::PostmarkConfig config;
  gvfs::Rng rng{0};
  std::vector<PoolFile> pool;
  int next_file_id = 0;
  std::uint64_t next_serial = 1;
  SimTime transactions_started = 0;
  SimTime transactions_finished = 0;
};

/// Bytes [offset, offset + len) of a file written at `version`, with a stamp
/// at every block boundary inside the range.
Bytes StampedRange(const PoolFile& file, std::uint64_t offset, std::size_t len,
                   std::uint32_t block_size) {
  Bytes out(len, 0x50);
  std::uint64_t boundary = (offset + block_size - 1) / block_size * block_size;
  for (; boundary + kStampBytes <= offset + len; boundary += block_size) {
    const Bytes stamp = StampedBlock(
        file.serial, static_cast<std::uint32_t>(boundary / block_size), file.version,
        kStampBytes);
    std::copy(stamp.begin(), stamp.end(),
              out.begin() + static_cast<std::ptrdiff_t>(boundary - offset));
  }
  return out;
}

std::string PathFor(int subdir, int index) {
  return "/p" + std::to_string(subdir) + "/f" + std::to_string(index);
}

sim::Task<void> CreateFile(Postmark* pm, PoolFile* file) {
  Harness& h = *pm->h;
  file->path = PathFor(static_cast<int>(pm->rng.Below(pm->config.subdirectories)),
                       pm->next_file_id++);
  file->size = static_cast<std::uint64_t>(
      pm->rng.Range(pm->config.min_size, pm->config.max_size));
  file->serial = pm->next_serial++;
  file->version = 0;
  SimTime start = h.Now();
  auto fd = co_await pm->mount->Open(
      file->path, kclient::OpenFlags{.read = true, .write = true, .create = true});
  h.Op(OpType::kOpen, start, fd.has_value());
  if (!fd) co_return;
  const std::uint32_t bs = pm->config.block_size;
  for (std::uint64_t off = 0; off < file->size; off += bs) {
    const std::size_t len = std::min<std::uint64_t>(bs, file->size - off);
    const Bytes block = StampedRange(*file, off, len, bs);
    start = h.Now();
    auto written = co_await pm->mount->Write(*fd, off, block);
    h.Op(OpType::kWrite, start, written.has_value());
  }
  start = h.Now();
  auto closed = co_await pm->mount->Close(*fd);
  h.Op(OpType::kClose, start, closed.has_value());
  file->exists = true;
}

sim::Task<void> ReadFile(Postmark* pm, PoolFile* file) {
  Harness& h = *pm->h;
  const memfs::InodeId ino = h.bed().fs().ResolvePath(file->path).value_or(0);
  SimTime start = h.Now();
  auto fd = co_await pm->mount->Open(file->path, kclient::OpenFlags{});
  h.Op(OpType::kOpen, start, fd.has_value());
  if (!fd) co_return;
  const std::uint32_t bs = pm->config.block_size;
  for (std::uint64_t off = 0; off < file->size; off += bs) {
    (void)co_await h.Read(*pm->mount, *fd, ino, off, bs);
  }
  start = h.Now();
  auto closed = co_await pm->mount->Close(*fd);
  h.Op(OpType::kClose, start, closed.has_value());
}

sim::Task<void> AppendFile(Postmark* pm, PoolFile* file) {
  Harness& h = *pm->h;
  SimTime start = h.Now();
  auto fd = co_await pm->mount->Open(file->path,
                                     kclient::OpenFlags{.read = true, .write = true});
  h.Op(OpType::kOpen, start, fd.has_value());
  if (!fd) co_return;
  ++file->version;
  const Bytes block = StampedRange(*file, file->size, pm->config.block_size,
                                   pm->config.block_size);
  start = h.Now();
  auto written = co_await pm->mount->Write(*fd, file->size, block);
  h.Op(OpType::kWrite, start, written.has_value());
  file->size += pm->config.block_size;
  start = h.Now();
  auto closed = co_await pm->mount->Close(*fd);
  h.Op(OpType::kClose, start, closed.has_value());
}

sim::Task<void> DeleteFile(Postmark* pm, PoolFile* file) {
  Harness& h = *pm->h;
  const SimTime start = h.Now();
  auto removed = co_await pm->mount->Unlink(file->path);
  h.Op(OpType::kUnlink, start, removed.has_value());
  file->exists = false;
}

sim::Task<void> MakeSubdirs(Postmark* pm) {
  for (int d = 0; d < pm->config.subdirectories; ++d) {
    const SimTime start = pm->h->Now();
    auto made = co_await pm->mount->Mkdir("/p" + std::to_string(d));
    pm->h->Op(OpType::kMkdir, start, made.has_value());
  }
}

sim::Task<void> CreatePool(Postmark* pm) {
  pm->pool.assign(static_cast<std::size_t>(pm->config.files), PoolFile{});
  for (PoolFile& file : pm->pool) co_await CreateFile(pm, &file);
}

sim::Task<void> Transactions(Postmark* pm) {
  pm->transactions_started = pm->h->Now();
  const workloads::PostmarkConfig& c = pm->config;
  for (int t = 0; t < c.transactions; ++t) {
    const bool rw = static_cast<int>(pm->rng.Below(10)) < c.rw_bias;
    PoolFile* file = &pm->pool[pm->rng.Below(pm->pool.size())];
    if (rw) {
      if (!file->exists) {
        co_await CreateFile(pm, file);
        continue;
      }
      if (static_cast<int>(pm->rng.Below(10)) < c.read_bias) {
        co_await ReadFile(pm, file);
      } else {
        co_await AppendFile(pm, file);
      }
    } else if (file->exists) {
      co_await DeleteFile(pm, file);
    } else {
      co_await CreateFile(pm, file);
    }
  }
  pm->transactions_finished = pm->h->Now();
}

sim::Task<void> VerifyPool(Postmark* pm) {
  for (const PoolFile& file : pm->pool) {
    if (file.exists) co_await pm->h->VerifyFile(*pm->mount, file.path);
  }
}

/// The repository's own generator on a fresh testbed of the same shape,
/// for the exact cross-check of the paper run.
double LibraryTransactionSeconds(const workloads::PostmarkConfig& config) {
  workloads::Testbed bed;
  bed.AddWanClient();
  proxy::SessionConfig session_config;
  session_config.model = proxy::ConsistencyModel::kDelegationCallback;
  session_config.read_ahead = 8;
  session_config.wb_window = 8;
  session_config.cache_mode = proxy::CacheMode::kReadOnly;
  kclient::MountOptions kernel_options;
  kernel_options.noac = true;
  auto& session = bed.CreateSession(session_config, {0}, kernel_options);
  std::optional<workloads::PostmarkReport> report;
  sim::Spawn([](sim::Task<workloads::PostmarkReport> task,
                std::optional<workloads::PostmarkReport>* out) -> sim::Task<void> {
    *out = co_await std::move(task);
  }(workloads::RunPostmark(bed.sched(), session.mount(0), config), &report));
  while (!report.has_value() && !bed.sched().Idle()) bed.sched().Run(1);
  return report.has_value() ? report->TransactionSeconds() : -1;
}

}  // namespace

void RunPostmarkDeleg(Harness& h) {
  Postmark pm;
  pm.h = &h;
  // Paper parameters (PostmarkConfig defaults: 600 files of 32-640 KB, 100
  // subdirectories, 32 KB blocks, biases 9 and 5).
  if (h.opt().paper) {
    pm.config.seed = 7;
  } else {
    pm.config.seed = h.opt().seed;
    pm.config.transactions = kBenchTransactions;
  }
  pm.rng = gvfs::Rng(pm.config.seed);

  h.Phase("topology");
  workloads::Testbed bed;  // paper WAN: 40 ms RTT, 4 Mbps
  h.Attach(bed, std::size_t{1} << 25);
  const int client = bed.AddWanClient();
  h.AddWanLink(bed.client_host(client), bed.server_host());

  h.Phase("sessions");
  proxy::SessionConfig session_config;
  session_config.model = proxy::ConsistencyModel::kDelegationCallback;
  session_config.read_ahead = 8;
  session_config.wb_window = 8;
  session_config.cache_mode = proxy::CacheMode::kReadOnly;  // write-through
  kclient::MountOptions kernel_options;
  kernel_options.noac = true;
  workloads::GvfsSession& session =
      bed.CreateSession(session_config, {client}, kernel_options);
  h.AddSession(session);
  pm.mount = &session.mount(0);

  h.Phase("population");
  h.Drive(MakeSubdirs(&pm));
  h.Phase("cold");
  h.Drive(CreatePool(&pm));

  h.Phase("timed");
  h.Drive(Transactions(&pm));

  h.Phase("verify");
  h.Drive(session.proxy(0).FlushAll());
  h.Drive(VerifyPool(&pm));

  const double transaction_s =
      gvfs::ToSeconds(pm.transactions_finished - pm.transactions_started);
  if (h.opt().paper) {
    const double library_s = LibraryTransactionSeconds(pm.config);
    h.report().Add("paper.transaction_s", transaction_s, "s", Kind::kSim);
    h.report().Add("paper.library_transaction_s", library_s, "s", Kind::kSim);
    h.report().Add("paper.fig5_gvfs2_s", kFig5Gvfs2At40Ms, "s", Kind::kSim);
    if (transaction_s != library_s) {
      h.report().Error("postmark generator drifted from workloads::RunPostmark: " +
                       std::to_string(transaction_s) + " s vs " + std::to_string(library_s) +
                       " s");
    }
    if (std::abs(transaction_s - kFig5Gvfs2At40Ms) >= 0.05) {
      h.report().Error("transaction phase " + std::to_string(transaction_s) +
                       " s does not reproduce fig5 GVFS2 @ 40 ms (95.9 s)");
    }
  }
  h.Finish();
}

}  // namespace perfbench
