#include "gvfs/disk_cache.h"

#include <algorithm>

namespace gvfs::proxy {

const DiskCache::AttrEntry* DiskCache::ValidAttr(const nfs3::Fh& fh) const {
  auto it = attrs_.find(fh);
  if (it == attrs_.end() || !it->second.valid) return nullptr;
  return &it->second;
}

DiskCache::AttrEntry* DiskCache::AnyAttr(const nfs3::Fh& fh) {
  auto it = attrs_.find(fh);
  return it == attrs_.end() ? nullptr : &it->second;
}

void DiskCache::StoreAttr(const nfs3::Fh& fh, const nfs3::Fattr& attr, SimTime now) {
  auto& entry = attrs_[fh];
  entry.attr = attr;
  entry.valid = true;
  entry.fetched_at = now;
}

void DiskCache::InvalidateAttr(const nfs3::Fh& fh) {
  auto it = attrs_.find(fh);
  if (it != attrs_.end()) it->second.valid = false;
}

void DiskCache::InvalidateAllAttrs() {
  for (auto& [fh, entry] : attrs_) entry.valid = false;
}

void DiskCache::ObserveMtime(const nfs3::Fh& fh, SimTime mtime, std::uint64_t size,
                             bool own_write) {
  auto it = files_.find(fh);
  if (it == files_.end()) return;
  if (!own_write && mtime != it->second.mtime_seen) {
    DropCleanBlocks(it->second);
    it->second.size_seen = size;
  }
  it->second.mtime_seen = mtime;
  if (own_write) it->second.size_seen = std::max(it->second.size_seen, size);
}

const nfs3::Fh* DiskCache::RecordedLookup(const nfs3::Fh& dir,
                                          const std::string& name) const {
  auto it = lookups_.find({dir, name});
  return it == lookups_.end() ? nullptr : &it->second.child;
}

const nfs3::Fh* DiskCache::ValidLookup(const nfs3::Fh& dir,
                                       const std::string& name) const {
  const AttrEntry* dir_attr = ValidAttr(dir);
  if (dir_attr == nullptr) return nullptr;  // dir state unknown
  auto it = lookups_.find({dir, name});
  if (it == lookups_.end()) return nullptr;
  if (it->second.dir_mtime != dir_attr->attr.mtime) return nullptr;  // stale
  return &it->second.child;
}

void DiskCache::StoreLookup(const nfs3::Fh& dir, const std::string& name,
                            const nfs3::Fh& child) {
  auto attr = attrs_.find(dir);
  if (attr == attrs_.end() || !attr->second.valid) return;  // unvalidatable
  lookups_[{dir, name}] = LookupEntry{child, attr->second.attr.mtime};
}

void DiskCache::DropLookup(const nfs3::Fh& dir, const std::string& name) {
  lookups_.erase({dir, name});
}

bool DiskCache::HasLookupEntries(const nfs3::Fh& dir) const {
  auto it = lookups_.lower_bound({dir, ""});
  return it != lookups_.end() && it->first.first == dir;
}

void DiskCache::ClearLookups(const nfs3::Fh& dir) {
  auto begin = lookups_.lower_bound({dir, ""});
  auto end = begin;
  while (end != lookups_.end() && end->first.first == dir) ++end;
  lookups_.erase(begin, end);
}

DiskCache::FileEntry* DiskCache::FindFile(const nfs3::Fh& fh) {
  auto it = files_.find(fh);
  return it == files_.end() ? nullptr : &it->second;
}

const DiskCache::Block* DiskCache::FindBlock(const nfs3::Fh& fh,
                                             std::uint64_t index) const {
  auto it = files_.find(fh);
  if (it == files_.end()) return nullptr;
  auto b = it->second.blocks.find(index);
  return b == it->second.blocks.end() ? nullptr : &b->second;
}

void DiskCache::StoreBlock(const nfs3::Fh& fh, std::uint64_t index, Buf data,
                           bool dirty) {
  auto& block = files_[fh].blocks[index];
  cached_bytes_ -= block.data.size();
  block.data = std::move(data);
  block.dirty = dirty;
  cached_bytes_ += block.data.size();
}

void DiskCache::WriteIntoBlock(const nfs3::Fh& fh, std::uint64_t index,
                               std::uint64_t in_block, const Buf& data) {
  auto& block = files_[fh].blocks[index];
  cached_bytes_ -= block.data.size();
  block.data.WriteShared(in_block, data);
  cached_bytes_ += block.data.size();
  block.dirty = true;
}

void DiskCache::DropFileData(const nfs3::Fh& fh) {
  auto it = files_.find(fh);
  if (it == files_.end()) return;
  for (const auto& [index, block] : it->second.blocks) {
    cached_bytes_ -= block.data.size();
  }
  files_.erase(it);
}

void DiskCache::DropCleanData(const nfs3::Fh& fh) {
  auto it = files_.find(fh);
  if (it == files_.end()) return;
  DropCleanBlocks(it->second);
  if (it->second.blocks.empty()) files_.erase(it);
}

void DiskCache::DropCleanBlocks(FileEntry& file) {
  for (auto b = file.blocks.begin(); b != file.blocks.end();) {
    if (!b->second.dirty) {
      cached_bytes_ -= b->second.data.size();
      b = file.blocks.erase(b);
    } else {
      ++b;
    }
  }
}

void DiskCache::MarkClean(const nfs3::Fh& fh, std::uint64_t index) {
  auto it = files_.find(fh);
  if (it == files_.end()) return;
  auto b = it->second.blocks.find(index);
  if (b != it->second.blocks.end()) b->second.dirty = false;
}

bool DiskCache::NoteReadAccess(const nfs3::Fh& fh, std::uint64_t index) {
  auto& entry = files_[fh];
  if (entry.last_read_index == index) return false;  // same-block re-read
  const bool sequential =
      entry.last_read_index != kNoReadYet && index == entry.last_read_index + 1;
  entry.last_read_index = index;
  return sequential;
}

std::vector<std::uint64_t> DiskCache::DirtyOffsets(const nfs3::Fh& fh) const {
  std::vector<std::uint64_t> out;
  auto it = files_.find(fh);
  if (it == files_.end()) return out;
  for (const auto& [index, block] : it->second.blocks) {
    if (block.dirty) out.push_back(index * memfs::kBlockSize);
  }
  return out;
}

std::size_t DiskCache::DirtyBlockCount(const nfs3::Fh& fh) const {
  auto it = files_.find(fh);
  if (it == files_.end()) return 0;
  std::size_t count = 0;
  for (const auto& [index, block] : it->second.blocks) {
    if (block.dirty) ++count;
  }
  return count;
}

std::size_t DiskCache::TotalDirtyBlocks() const {
  std::size_t count = 0;
  for (const auto& [fh, file] : files_) {
    for (const auto& [index, block] : file.blocks) {
      if (block.dirty) ++count;
    }
  }
  return count;
}

std::vector<nfs3::Fh> DiskCache::FilesWithDirtyData() const {
  std::vector<nfs3::Fh> out;
  for (const auto& [fh, file] : files_) {
    for (const auto& [index, block] : file.blocks) {
      if (block.dirty) {
        out.push_back(fh);
        break;
      }
    }
  }
  return out;
}

void DiskCache::Crash() {
  // Disk contents (blocks, dirty flags) survive; in-memory validity does not.
  for (auto& [fh, entry] : attrs_) entry.valid = false;
  lookups_.clear();
}

}  // namespace gvfs::proxy
