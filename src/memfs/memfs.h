// In-memory inode filesystem: the storage backend exported by the simulated
// NFS server (stands in for the paper's server-side ext3 export).
//
// Supports regular files, directories, and hard links with POSIX-ish
// semantics: link counts, mtime/ctime maintenance, monotonically increasing
// inode numbers (never reused, so a stale NFS handle reliably maps to
// ESTALE), and deterministic readdir ordering.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/buf.h"
#include "common/expected.h"
#include "common/flat_map.h"
#include "common/types.h"

namespace gvfs::memfs {

using InodeId = std::uint64_t;

/// The one block size of the data plane: memfs stores files in blocks of
/// this many bytes, the kernel client reads and writes them (rsize/wsize),
/// the proxy disk cache keeps them, and nfsd charges its per-block service
/// time per block moved.
inline constexpr std::uint64_t kBlockSize = 32 * 1024;

enum class FsError {
  kNoEnt,     // no such file or directory
  kExist,     // name already exists
  kNotDir,    // path component is not a directory
  kIsDir,     // operation not valid on a directory
  kNotEmpty,  // directory not empty
  kStale,     // inode id no longer exists
  kInval,     // invalid argument
};

const char* FsErrorName(FsError e);

enum class FileType { kRegular, kDirectory };

struct InodeAttr {
  FileType type = FileType::kRegular;
  std::uint32_t mode = 0644;
  std::uint32_t nlink = 1;
  std::uint32_t uid = 0;
  std::uint32_t gid = 0;
  std::uint64_t size = 0;
  InodeId fileid = 0;
  SimTime atime = 0;
  SimTime mtime = 0;
  SimTime ctime = 0;
};

struct DirEntry {
  std::string name;
  InodeId inode = 0;
  std::uint64_t cookie = 0;  // opaque resume position for the *next* call
};

struct ReadResult {
  Bytes data;
  bool eof = false;
};

/// A read that shares the stored bytes: a slice of one block when the range
/// lies inside it, else one copy.
struct SharedRead {
  Buf data;
  bool eof = false;
};

/// Requested attribute changes; unset fields are left alone.
struct SetAttrRequest {
  std::optional<std::uint32_t> mode;
  std::optional<std::uint64_t> size;  // truncate/extend
  std::optional<SimTime> mtime;
};

template <typename T>
using FsResult = Expected<T, FsError>;

class MemFs {
 public:
  /// `clock` supplies timestamps for ctime/mtime/atime; it must outlive the
  /// filesystem (pass the simulation clock).
  explicit MemFs(const SimTime* clock);

  InodeId root() const { return root_; }

  FsResult<InodeAttr> GetAttr(InodeId id) const;
  FsResult<InodeAttr> SetAttr(InodeId id, const SetAttrRequest& req);

  FsResult<InodeId> Lookup(InodeId dir, const std::string& name) const;

  FsResult<InodeId> Create(InodeId dir, const std::string& name, std::uint32_t mode);
  FsResult<InodeId> Mkdir(InodeId dir, const std::string& name, std::uint32_t mode);

  /// Unlinks a regular file name (decrements link count; frees at zero).
  FsResult<void> Remove(InodeId dir, const std::string& name);
  /// Removes an empty directory.
  FsResult<void> Rmdir(InodeId dir, const std::string& name);

  FsResult<void> Rename(InodeId from_dir, const std::string& from_name,
                        InodeId to_dir, const std::string& to_name);

  /// Hard link: adds `name` in `dir` referring to existing regular file.
  FsResult<void> Link(InodeId file, InodeId dir, const std::string& name);

  /// An owned copy of [offset, offset + count), short at EOF.
  FsResult<ReadResult> Read(InodeId id, std::uint64_t offset, std::uint32_t count) const;
  FsResult<SharedRead> ReadShared(InodeId id, std::uint64_t offset,
                                  std::uint32_t count) const;

  /// Returns the file size after the write. A block the write covers, or
  /// starts and outgrows, keeps a slice of `data`; a partial overwrite
  /// copies the block unless memfs holds its only reference.
  FsResult<std::uint64_t> Write(InodeId id, std::uint64_t offset, const Buf& data);

  /// Lists entries starting after `cookie` (0 = from the beginning), at most
  /// max_entries. Deterministic (name-sorted) order.
  FsResult<std::vector<DirEntry>> ReadDir(InodeId dir, std::uint64_t cookie,
                                          std::uint32_t max_entries) const;

  /// Convenience for tests/workload setup: resolves an absolute slash path.
  FsResult<InodeId> ResolvePath(const std::string& path) const;

  /// Total bytes of file content, holes included (for FSSTAT).
  std::uint64_t TotalBytes() const { return total_bytes_; }

  std::uint64_t InodeCount() const { return inodes_.Size(); }

 private:
  struct Inode {
    InodeAttr attr;
    /// Regular files: block i holds bytes [i, i + 1) * kBlockSize. A block
    /// shorter than that, or missing, reads as zeros up to the file size.
    std::vector<Buf> blocks;
    // gvfs-lint: allow(hot-path-type): READDIR hands out cookies in name order and resumes from them
    std::map<std::string, InodeId> entries;  // directories
  };

  SimTime Now() const { return *clock_; }

  Inode* Find(InodeId id);
  const Inode* Find(InodeId id) const;
  FsResult<Inode*> FindDir(InodeId id);
  FsResult<const Inode*> FindDir(InodeId id) const;

  /// Copies [offset, offset + len) of a file, which the size covers.
  static void CopyOut(const Inode& node, std::uint64_t offset, std::uint64_t len,
                      std::uint8_t* out);
  /// Sets a regular file's size: shorter drops the bytes past it, longer
  /// reads as zeros.
  void Resize(Inode& node, std::uint64_t size);

  InodeId NewInode(FileType type, std::uint32_t mode);
  void TouchDir(Inode& dir);
  void Unref(InodeId id);

  const SimTime* clock_;
  /// Never iterated. Values are heap nodes, so an Inode* survives the
  /// table's growth and erases.
  FlatMap<InodeId, std::unique_ptr<Inode>> inodes_;
  InodeId next_id_ = 1;
  InodeId root_ = 0;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace gvfs::memfs
