// AFS-style distributed file system (reference point for the paper's lock
// benchmark, §5.1.2, where OpenAFS 1.2.11 is the traditional
// strong-consistency DFS).
//
// Modeled behaviours:
//  - Whole-file caching: open fetches the entire file; close stores it back
//    if modified (store-on-close semantics).
//  - Callback promises: the server remembers which clients cache each path's
//    status/data and breaks the promise (server-to-client RPC) whenever
//    another client mutates it, so cached entries are valid until broken.
//
// Names (paths) identify objects on the wire — a simplification over AFS
// FIDs that preserves the consistency behaviour the benchmark measures.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "kclient/vfs.h"
#include "memfs/memfs.h"
#include "nfs3/proto.h"
#include "rpc/rpc.h"
#include "sim/scheduler.h"
#include "sim/task.h"

namespace gvfs::afs {

constexpr std::uint32_t kAfsProgram = 500100;

enum AfsProc : std::uint32_t {
  kFetchStatus = 1,   // path -> attrs (registers a callback promise)
  kFetchData = 2,     // path -> whole file contents (+ promise)
  kStoreData = 3,     // path + contents (breaks other promises)
  kCreateFile = 4,
  kRemoveFile = 5,
  kHardLink = 6,
  kMakeDir = 7,
  kRemoveDir = 8,
  kListDir = 9,
  kCallbackBreak = 20,  // server -> client: path's promise is void
};

// Messages. Each lists its XDR fields once, like the NFSv3 ones, and goes
// through nfs3::Serialize/Parse. A CALLBACK_BREAK reply is empty.

/// Every procedure but STOREDATA and LINK names one path; so does
/// CALLBACK_BREAK.
struct PathArgs {
  std::string path;
  static void Xdr(auto& io, auto& m) { io(m.path); }
};

struct StoreDataArgs {
  std::string path;
  Buf data;  // the whole file
  static void Xdr(auto& io, auto& m) { io(m.path, m.data); }
};

struct LinkArgs {
  std::string target;
  std::string new_path;
  static void Xdr(auto& io, auto& m) { io(m.target, m.new_path); }
};

/// The reply of STOREDATA and of every namespace mutation.
struct StatusRes {
  nfs3::Status status = nfs3::Status::kOk;
  static void Xdr(auto& io, auto& m) { io(m.status); }
};

struct FetchStatusRes {
  nfs3::Status status = nfs3::Status::kOk;
  nfs3::Fattr attr;
  static void Xdr(auto& io, auto& m) {
    io(m.status);
    if (m.status == nfs3::Status::kOk) io(m.attr);
  }
};

struct FetchDataRes {
  nfs3::Status status = nfs3::Status::kOk;
  nfs3::Fattr attr;
  Buf data;
  static void Xdr(auto& io, auto& m) {
    io(m.status);
    if (m.status == nfs3::Status::kOk) io(m.attr, m.data);
  }
};

struct ListDirRes {
  nfs3::Status status = nfs3::Status::kOk;
  std::vector<std::string> names;
  static void Xdr(auto& io, auto& m) {
    io(m.status);
    if (m.status == nfs3::Status::kOk) io(m.names);
  }
};

struct AfsServerStats {
  std::uint64_t fetches = 0;
  std::uint64_t stores = 0;
  std::uint64_t callback_breaks = 0;
};

/// The AFS file server: memfs-backed, path-addressed, with per-path callback
/// promises.
class AfsServer {
 public:
  AfsServer(sim::Scheduler& sched, memfs::MemFs& fs, rpc::RpcNode& node);

  const AfsServerStats& stats() const { return stats_; }

 private:
  sim::Task<Buf> HandleFetchStatus(rpc::CallContext ctx, rpc::Body args);
  sim::Task<Buf> HandleFetchData(rpc::CallContext ctx, rpc::Body args);
  sim::Task<Buf> HandleStoreData(rpc::CallContext ctx, rpc::Body args);
  sim::Task<Buf> HandleCreate(rpc::CallContext ctx, rpc::Body args);
  sim::Task<Buf> HandleRemove(rpc::CallContext ctx, rpc::Body args);
  sim::Task<Buf> HandleLink(rpc::CallContext ctx, rpc::Body args);
  sim::Task<Buf> HandleMkdir(rpc::CallContext ctx, rpc::Body args);
  sim::Task<Buf> HandleRmdir(rpc::CallContext ctx, rpc::Body args);
  sim::Task<Buf> HandleListDir(rpc::CallContext ctx, rpc::Body args);

  void AddPromise(const std::string& path, net::Address client);
  /// Breaks every other client's promise on `path` (awaited: AFS breaks
  /// callbacks before completing the mutation).
  sim::Task<void> BreakPromises(std::string path, net::Address mutator);

  /// Resolves a path's parent directory + leaf.
  Expected<std::pair<memfs::InodeId, std::string>, nfs3::Status> Parent(
      const std::string& path) const;

  sim::Scheduler& sched_;
  memfs::MemFs& fs_;
  rpc::RpcNode& node_;
  std::map<std::string, std::set<net::Address>> promises_;
  AfsServerStats stats_;
};

/// The AFS cache-manager client: whole-file cache + status cache, both valid
/// until the server breaks the callback promise.
class AfsClient : public kclient::Vfs {
 public:
  AfsClient(sim::Scheduler& sched, rpc::RpcNode& node, net::Address server);

  sim::Task<kclient::VfsResult<kclient::Fd>> Open(std::string path,
                                                  kclient::OpenFlags flags) override;
  sim::Task<kclient::VfsResult<void>> Close(kclient::Fd fd) override;
  sim::Task<kclient::VfsResult<Bytes>> Read(kclient::Fd fd, std::uint64_t offset,
                                            std::uint32_t count) override;
  sim::Task<kclient::VfsResult<std::uint32_t>> Write(kclient::Fd fd,
                                                     std::uint64_t offset,
                                                     const Bytes& data) override;
  sim::Task<kclient::VfsResult<nfs3::Fattr>> Stat(std::string path) override;
  sim::Task<kclient::VfsResult<bool>> Exists(std::string path) override;
  sim::Task<kclient::VfsResult<void>> Unlink(std::string path) override;
  sim::Task<kclient::VfsResult<void>> Mkdir(std::string path) override;
  sim::Task<kclient::VfsResult<void>> Rmdir(std::string path) override;
  sim::Task<kclient::VfsResult<void>> Link(std::string target_path,
                                           std::string new_path) override;
  sim::Task<kclient::VfsResult<void>> Rename(std::string from, std::string to) override;
  sim::Task<kclient::VfsResult<std::vector<std::string>>> ReadDir(
      const std::string& path) override;

  std::uint64_t status_cache_hits() const { return status_hits_; }
  std::uint64_t callback_breaks_received() const { return breaks_received_; }

 private:
  struct CachedStatus {
    bool exists = false;
    nfs3::Fattr attr;
  };

  struct CachedFile {
    Buf data;
    bool valid = false;
  };

  struct OpenFile {
    std::string path;
    bool writable = false;
    bool dirty = false;
  };

  sim::Task<Buf> HandleCallbackBreak(rpc::CallContext ctx, rpc::Body args);
  /// Status via cache or FETCHSTATUS RPC. nullopt = transport failure.
  sim::Task<kclient::VfsResult<CachedStatus>> FetchStatus(std::string path);

  sim::Scheduler& sched_;
  rpc::RpcNode& node_;
  net::Address server_;

  std::map<std::string, CachedStatus> status_cache_;  // valid until broken
  std::map<std::string, CachedFile> file_cache_;
  std::map<kclient::Fd, OpenFile> open_files_;
  kclient::Fd next_fd_ = 3;

  std::uint64_t status_hits_ = 0;
  std::uint64_t breaks_received_ = 0;
};

}  // namespace gvfs::afs
