// Kernel NFSv3 client emulation.
//
// Models the client-side machinery whose WAN cost the paper measures:
//  - attribute cache with a fixed revalidation period (`actimeo`, paper: 30 s)
//    or disabled entirely (`noac`),
//  - lookup (dnlc) cache whose entries are validated against the cached
//    directory mtime,
//  - a block page cache (32 KB blocks) invalidated when a file's server
//    mtime changes,
//  - close-to-open semantics: GETATTR revalidation on open, write-back of
//    dirty pages (WRITE + COMMIT) on close.
//
// The same class is used for native NFS (pointed at the remote server) and
// for GVFS (pointed at the local user-level proxy client).
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <string>
#include <vector>

#include "common/expected.h"
#include "common/flat_map.h"
#include "common/types.h"
#include "kclient/caches.h"
#include "kclient/vfs.h"
#include "nfs3/client.h"
#include "nfs3/proto.h"
#include "sim/scheduler.h"
#include "sim/task.h"

namespace gvfs::kclient {

struct MountOptions {
  MountOptions() = default;
  MountOptions(const MountOptions&) = default;
  MountOptions(MountOptions&&) noexcept = default;
  MountOptions& operator=(const MountOptions&) = default;
  MountOptions& operator=(MountOptions&&) noexcept = default;

  /// Attribute cache validity period (actimeo). Ignored when noac is set.
  Duration attr_timeout = Seconds(30);
  /// Disable the attribute cache entirely ("-o noac").
  bool noac = false;
  // The paper's clients are 256 MB VMs; the page cache gets a fraction.
  std::size_t max_cached_bytes = 160ull * 1024 * 1024;
};

/// Client-side cache counters, used by tests and the experiment harnesses.
struct ClientStats {
  std::uint64_t attr_hits = 0;
  std::uint64_t attr_misses = 0;
  std::uint64_t dnlc_hits = 0;
  std::uint64_t dnlc_misses = 0;
  std::uint64_t page_hits = 0;
  std::uint64_t page_misses = 0;
};

class KernelClient : public Vfs {
 public:
  KernelClient(sim::Scheduler& sched, rpc::RpcNode& node, net::Address server,
               nfs3::Fh root, MountOptions options = {});

  // --- POSIX-ish surface (paths are absolute within the mount, "/a/b") ---

  sim::Task<VfsResult<Fd>> Open(std::string path, OpenFlags flags) override;
  sim::Task<VfsResult<void>> Close(Fd fd) override;
  /// Reads up to `count` bytes at `offset`; short only at EOF.
  sim::Task<VfsResult<Bytes>> Read(Fd fd, std::uint64_t offset, std::uint32_t count) override;
  sim::Task<VfsResult<std::uint32_t>> Write(Fd fd, std::uint64_t offset,
                                            const Bytes& data) override;
  /// Flushes this file's dirty pages to the server (fsync).
  sim::Task<VfsResult<void>> Fsync(Fd fd);

  sim::Task<VfsResult<nfs3::Fattr>> Stat(std::string path) override;
  sim::Task<VfsResult<bool>> Exists(std::string path) override;
  sim::Task<VfsResult<void>> Unlink(std::string path) override;
  sim::Task<VfsResult<void>> Mkdir(std::string path) override;
  sim::Task<VfsResult<void>> Rmdir(std::string path) override;
  /// Hard link: new_path -> existing target.
  sim::Task<VfsResult<void>> Link(std::string target_path,
                                  std::string new_path) override;
  sim::Task<VfsResult<void>> Rename(std::string from, std::string to) override;
  sim::Task<VfsResult<std::vector<std::string>>> ReadDir(const std::string& path) override;

  // --- cache management / introspection ---

  /// Simulates `umount && mount` + dropped caches (cold start).
  void DropCaches();

  const ClientStats& stats() const { return stats_; }
  const MountOptions& options() const { return options_; }
  std::size_t CachedBytes() const { return cached_bytes_; }
  std::size_t OpenFileCount() const { return open_files_.size(); }

 private:
  /// Eviction order of cached blocks: insertion order (a hit does not move
  /// a block), one entry per cached block.
  using EvictionList = std::list<std::pair<nfs3::Fh, std::uint64_t>>;

  struct CachedBlock {
    Buf data;
    bool dirty = false;
    EvictionList::iterator queued;  // this block's entry in evict_order_
  };

  // gvfs-lint: allow(hot-path-type): dirty blocks are written back in offset order
  using BlockMap = std::map<std::uint64_t, CachedBlock>;  // block index -> block

  struct FileCache {
    SimTime mtime_seen = 0;
    std::uint64_t size_seen = 0;
    BlockMap blocks;
  };

  struct OpenFile {
    nfs3::Fh fh;
    OpenFlags flags;
  };

  // -- attribute cache --
  bool AttrFresh(const nfs3::Fh& fh) const;
  const nfs3::Fattr* CachedAttr(const nfs3::Fh& fh) const;
  /// Installs freshly fetched attributes; detects data-cache staleness.
  void StoreAttr(const nfs3::Fh& fh, const nfs3::Fattr& attr, bool own_write);
  void StoreAttr(const nfs3::Fh& fh, const nfs3::PostOpAttr& attr, bool own_write);
  void InvalidateAttr(const nfs3::Fh& fh);
  /// Returns fresh attributes, via cache or GETATTR RPC.
  sim::Task<VfsResult<nfs3::Fattr>> GetAttr(nfs3::Fh fh, bool force_fresh);

  // -- name cache --
  sim::Task<VfsResult<nfs3::Fh>> LookupChild(nfs3::Fh dir, std::string name);
  /// Resolves all components; on success the final Fh.
  sim::Task<VfsResult<nfs3::Fh>> ResolvePath(std::string path);
  /// Resolves the parent directory; returns (dir fh) and sets leaf name.
  sim::Task<VfsResult<nfs3::Fh>> ResolveParent(std::string path, std::string* leaf);
  void StoreDnlc(const nfs3::Fh& dir, const std::string& name, const nfs3::Fh& child);
  void DropDnlc(const nfs3::Fh& dir, const std::string& name);

  // -- page cache --
  /// Adds a block fetched or first written at `index`; an existing block
  /// (one a concurrent frame added during this frame's await) wins.
  BlockMap::iterator AddBlock(FileCache& fc, const nfs3::Fh& fh,
                              std::uint64_t index, Buf data);
  /// Drops one cached block; the caller erases it from its file's map.
  void ForgetBlock(CachedBlock& block);
  void DropFileData(const nfs3::Fh& fh);
  void EvictIfNeeded();

  // -- write-back --
  sim::Task<VfsResult<void>> FlushFile(nfs3::Fh fh);

  static std::vector<std::string> SplitPath(const std::string& path);

  sim::Scheduler& sched_;
  nfs3::Nfs3Client client_;
  nfs3::Fh root_;
  MountOptions options_;

  // Pointers into these tables follow FlatMap's rule (common/flat_map.h):
  // valid until the next insert or erase on the same table.
  AttrCache attr_cache_;
  NameCache dnlc_;
  FlatMap<nfs3::Fh, FileCache, nfs3::FhHash> file_cache_;
  std::size_t cached_bytes_ = 0;
  EvictionList evict_order_;  // clean blocks are evicted front first

  // gvfs-lint: allow(hot-path-type): a mount holds a few descriptors at a time; an empty tree costs nothing, where a FlatMap would keep 16 slots per mount
  std::map<Fd, OpenFile> open_files_;
  Fd next_fd_ = 3;

  ClientStats stats_;
};

}  // namespace gvfs::kclient
