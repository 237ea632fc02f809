// Per-session client-side disk cache used by the GVFS proxy client: file
// attributes, name lookups, and data blocks (with dirty tracking for
// write-back caching).
//
// Unlike the kernel client's memory caches, validity is not time-based:
// entries stay valid until the session's consistency machinery invalidates
// them (GETINV results, delegation recalls). Blocks are memfs::kBlockSize
// bytes, the NFS transfer size. The cache is "disk"-backed in the paper's
// design, so it is large and survives client crashes — Crash() here
// preserves data but marks everything invalid, exactly the recovery
// behaviour of §4.3.4.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/flat_map.h"
#include "common/name_list.h"
#include "common/types.h"
#include "nfs3/proto.h"

namespace gvfs::proxy {

class DiskCache {
 public:
  struct AttrEntry {
    nfs3::Fattr attr;
    bool valid = false;
    SimTime fetched_at = 0;
  };

  struct Block {
    Buf data;
    bool dirty = false;
  };

  struct FileEntry {
    SimTime mtime_seen = 0;
    std::uint64_t size_seen = 0;
    // gvfs-lint: allow(hot-path-type): dirty blocks are written back in offset order
    std::map<std::uint64_t, Block> blocks;  // block index -> block
    /// Last block index read through the proxy (read-ahead detection).
    std::uint64_t last_read_index = kNoReadYet;
  };

  static constexpr std::uint64_t kNoReadYet = ~std::uint64_t{0};

  // Pointers and references the accessors below return follow FlatMap's
  // rule: valid until the next insert or erase on the same table. A Block
  // lives in its file's std::map node, so it survives the FileEntry moving;
  // only erasing that block (a drop) ends it.

  // -- attributes --

  /// Returns the entry if present AND valid; nullptr otherwise.
  const AttrEntry* ValidAttr(const nfs3::Fh& fh) const;
  /// Returns the entry even if invalidated (recovery paths).
  AttrEntry* AnyAttr(const nfs3::Fh& fh);
  void StoreAttr(const nfs3::Fh& fh, const nfs3::Fattr& attr, SimTime now);
  /// Marks one file's attributes invalid (future reads revalidate).
  void InvalidateAttr(const nfs3::Fh& fh);
  /// Marks every cached attribute invalid (force-invalidate / recovery).
  void InvalidateAllAttrs();

  /// Applies a server-side mtime change: drops clean data if stale.
  void ObserveMtime(const nfs3::Fh& fh, SimTime mtime, std::uint64_t size,
                    bool own_write);

  // -- name lookups --

  /// Valid only while the directory's attr entry is valid AND its mtime
  /// still matches what the entry saw (like the kernel dnlc).
  const nfs3::Fh* ValidLookup(const nfs3::Fh& dir, const std::string& name) const;
  /// The handle last recorded under (dir, name), however stale; nullptr if
  /// none was.
  const nfs3::Fh* RecordedLookup(const nfs3::Fh& dir, const std::string& name) const;
  void StoreLookup(const nfs3::Fh& dir, const std::string& name, const nfs3::Fh& child);
  void DropLookup(const nfs3::Fh& dir, const std::string& name);
  /// True if any (possibly stale) name entries are recorded under `dir`.
  bool HasLookupEntries(const nfs3::Fh& dir) const;
  /// Drops every name entry under `dir` (before a READDIR-driven rebuild).
  void ClearLookups(const nfs3::Fh& dir);

  // -- data blocks --

  FileEntry* FindFile(const nfs3::Fh& fh);
  FileEntry& FileFor(const nfs3::Fh& fh) { return files_[fh]; }
  const Block* FindBlock(const nfs3::Fh& fh, std::uint64_t index) const;
  void StoreBlock(const nfs3::Fh& fh, std::uint64_t index, Buf data, bool dirty);
  /// Merges `data` into the block at byte offset `in_block`, marking dirty.
  /// A write that starts the block and covers what it held shares `data`;
  /// any other copies the block unless the cache holds its only reference.
  void WriteIntoBlock(const nfs3::Fh& fh, std::uint64_t index,
                      std::uint64_t in_block, const Buf& data);
  void DropFileData(const nfs3::Fh& fh);
  /// Drops a file's clean blocks, and its entry once no dirty block is left.
  void DropCleanData(const nfs3::Fh& fh);
  /// Clears a block's dirty flag after successful write-back.
  void MarkClean(const nfs3::Fh& fh, std::uint64_t index);

  /// Records a block read at `index` and reports whether the access
  /// continues a sequential run (read-ahead trigger). Repeated reads of the
  /// same block neither extend nor break the run.
  bool NoteReadAccess(const nfs3::Fh& fh, std::uint64_t index);

  /// Byte offsets (block-aligned) of this file's dirty blocks, in order.
  std::vector<std::uint64_t> DirtyOffsets(const nfs3::Fh& fh) const;
  std::size_t DirtyBlockCount(const nfs3::Fh& fh) const;
  /// Dirty blocks across every cached file (write-back queue depth).
  std::size_t TotalDirtyBlocks() const;
  /// All files that currently hold at least one dirty block, in handle
  /// order: the flush order and the recovery order.
  std::vector<nfs3::Fh> FilesWithDirtyData() const;

  // -- lifecycle --

  /// Client crash: disk contents survive, but validity metadata is lost.
  /// All attributes become invalid; dirty flags are reconstructed by a scan
  /// (we keep them — the scan is what the paper describes).
  void Crash();

  std::size_t AttrCount() const { return attrs_.Size(); }
  std::uint64_t CachedBytes() const { return cached_bytes_; }

 private:
  void DropCleanBlocks(FileEntry& file);

  struct LookupEntry {
    nfs3::Fh child;
    SimTime dir_mtime = 0;  // entry valid only while the dir mtime matches
  };

  FlatMap<nfs3::Fh, AttrEntry, nfs3::FhHash> attrs_;
  /// Names per directory handle; a directory with no names has no entry.
  FlatMap<nfs3::Fh, NameList<LookupEntry>, nfs3::FhHash> lookups_;
  FlatMap<nfs3::Fh, FileEntry, nfs3::FhHash> files_;
  std::uint64_t cached_bytes_ = 0;
};

}  // namespace gvfs::proxy
