// The kernel NFSv3 server: serves the full procedure set over an RpcNode,
// backed by a MemFs export. Stands in for the paper's kernel nfsd; the GVFS
// proxy server (src/gvfs) forwards to it over the server host's loopback.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "memfs/memfs.h"
#include "nfs3/proto.h"
#include "rpc/rpc.h"
#include "sim/scheduler.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace gvfs::nfs3 {

/// Filesystem id stamped into every handle the server hands out.
inline constexpr std::uint64_t kFsid = 1;

class Nfs3Server {
 public:
  /// Registers handlers for all supported procedures on `node`. The server
  /// must outlive the node's last in-flight request.
  Nfs3Server(sim::Scheduler& sched, memfs::MemFs& fs, rpc::RpcNode& node);

  /// The exported root handle clients mount.
  Fh RootFh() const { return FhFor(fs_.root()); }

  Fh FhFor(memfs::InodeId ino) const { return Fh{kFsid, ino}; }

  memfs::MemFs& fs() { return fs_; }

  /// Total requests served, by procedure (server-side view).
  const rpc::StatsMap& served() const { return served_; }

 private:
  sim::Task<Buf> HandleGetAttr(rpc::Body args);
  sim::Task<Buf> HandleSetAttr(rpc::Body args);
  sim::Task<Buf> HandleLookup(rpc::Body args);
  sim::Task<Buf> HandleAccess(rpc::Body args);
  sim::Task<Buf> HandleRead(rpc::Body args);
  sim::Task<Buf> HandleWrite(rpc::Body args);
  sim::Task<Buf> HandleCreate(rpc::Body args);
  sim::Task<Buf> HandleMkdir(rpc::Body args);
  sim::Task<Buf> HandleRemove(rpc::Body args);
  sim::Task<Buf> HandleRmdir(rpc::Body args);
  sim::Task<Buf> HandleRename(rpc::Body args);
  sim::Task<Buf> HandleLink(rpc::Body args);
  sim::Task<Buf> HandleReadDir(rpc::Body args);
  sim::Task<Buf> HandleFsStat(rpc::Body args);
  sim::Task<Buf> HandleCommit(rpc::Body args);

  /// Charges base service time (plus per-block time for `blocks` blocks).
  /// Returns the Sleep awaitable directly — a full coroutine frame per
  /// request just to forward one sleep would be pure overhead.
  sim::Sleep Service(std::uint64_t blocks = 0);

  PostOpAttr AttrOf(memfs::InodeId ino) const;

  sim::Scheduler& sched_;
  memfs::MemFs& fs_;
  rpc::StatsMap served_;
};

}  // namespace gvfs::nfs3
