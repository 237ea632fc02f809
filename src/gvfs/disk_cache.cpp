#include "gvfs/disk_cache.h"

#include <algorithm>

namespace gvfs::proxy {

const DiskCache::AttrEntry* DiskCache::ValidAttr(const nfs3::Fh& fh) const {
  const AttrEntry* entry = attrs_.Find(fh);
  return entry == nullptr || !entry->valid ? nullptr : entry;
}

DiskCache::AttrEntry* DiskCache::AnyAttr(const nfs3::Fh& fh) { return attrs_.Find(fh); }

void DiskCache::StoreAttr(const nfs3::Fh& fh, const nfs3::Fattr& attr, SimTime now) {
  auto& entry = attrs_[fh];
  entry.attr = attr;
  entry.valid = true;
  entry.fetched_at = now;
}

void DiskCache::InvalidateAttr(const nfs3::Fh& fh) {
  if (AttrEntry* entry = attrs_.Find(fh)) entry->valid = false;
}

void DiskCache::InvalidateAllAttrs() {
  attrs_.ForEach([](const nfs3::Fh&, AttrEntry& entry) { entry.valid = false; });
}

void DiskCache::ObserveMtime(const nfs3::Fh& fh, SimTime mtime, std::uint64_t size,
                             bool own_write) {
  FileEntry* file = files_.Find(fh);
  if (file == nullptr) return;
  if (!own_write && mtime != file->mtime_seen) {
    DropCleanBlocks(*file);
    file->size_seen = size;
  }
  file->mtime_seen = mtime;
  if (own_write) file->size_seen = std::max(file->size_seen, size);
}

const nfs3::Fh* DiskCache::RecordedLookup(const nfs3::Fh& dir,
                                          const std::string& name) const {
  const NameList<LookupEntry>* names = lookups_.Find(dir);
  const LookupEntry* entry = names == nullptr ? nullptr : names->Find(name);
  return entry == nullptr ? nullptr : &entry->child;
}

const nfs3::Fh* DiskCache::ValidLookup(const nfs3::Fh& dir,
                                       const std::string& name) const {
  const AttrEntry* dir_attr = ValidAttr(dir);
  if (dir_attr == nullptr) return nullptr;  // dir state unknown
  const NameList<LookupEntry>* names = lookups_.Find(dir);
  const LookupEntry* entry = names == nullptr ? nullptr : names->Find(name);
  if (entry == nullptr) return nullptr;
  if (entry->dir_mtime != dir_attr->attr.mtime) return nullptr;  // stale
  return &entry->child;
}

void DiskCache::StoreLookup(const nfs3::Fh& dir, const std::string& name,
                            const nfs3::Fh& child) {
  const AttrEntry* attr = ValidAttr(dir);
  if (attr == nullptr) return;  // unvalidatable
  lookups_[dir].Put(name, LookupEntry{child, attr->attr.mtime});
}

void DiskCache::DropLookup(const nfs3::Fh& dir, const std::string& name) {
  NameList<LookupEntry>* names = lookups_.Find(dir);
  if (names != nullptr && names->Erase(name) && names->Empty()) lookups_.Erase(dir);
}

bool DiskCache::HasLookupEntries(const nfs3::Fh& dir) const {
  return lookups_.Find(dir) != nullptr;
}

void DiskCache::ClearLookups(const nfs3::Fh& dir) { lookups_.Erase(dir); }

DiskCache::FileEntry* DiskCache::FindFile(const nfs3::Fh& fh) { return files_.Find(fh); }

const DiskCache::Block* DiskCache::FindBlock(const nfs3::Fh& fh,
                                             std::uint64_t index) const {
  const FileEntry* file = files_.Find(fh);
  if (file == nullptr) return nullptr;
  auto b = file->blocks.find(index);
  return b == file->blocks.end() ? nullptr : &b->second;
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
  FileEntry file;
  if (!files_.Extract(fh, &file)) return;
  for (const auto& [index, block] : file.blocks) {
    cached_bytes_ -= block.data.size();
  }
}

void DiskCache::DropCleanData(const nfs3::Fh& fh) {
  FileEntry* file = files_.Find(fh);
  if (file == nullptr) return;
  DropCleanBlocks(*file);
  if (file->blocks.empty()) files_.Erase(fh);
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
  FileEntry* file = files_.Find(fh);
  if (file == nullptr) return;
  auto b = file->blocks.find(index);
  if (b != file->blocks.end()) b->second.dirty = false;
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
  const FileEntry* file = files_.Find(fh);
  if (file == nullptr) return out;
  for (const auto& [index, block] : file->blocks) {
    if (block.dirty) out.push_back(index * memfs::kBlockSize);
  }
  return out;
}

std::size_t DiskCache::DirtyBlockCount(const nfs3::Fh& fh) const {
  const FileEntry* file = files_.Find(fh);
  if (file == nullptr) return 0;
  std::size_t count = 0;
  for (const auto& [index, block] : file->blocks) {
    if (block.dirty) ++count;
  }
  return count;
}

std::size_t DiskCache::TotalDirtyBlocks() const {
  std::size_t count = 0;
  files_.ForEach([&](const nfs3::Fh&, const FileEntry& file) {
    for (const auto& [index, block] : file.blocks) {
      if (block.dirty) ++count;
    }
  });
  return count;
}

std::vector<nfs3::Fh> DiskCache::FilesWithDirtyData() const {
  std::vector<nfs3::Fh> out;
  files_.ForEach([&](const nfs3::Fh& fh, const FileEntry& file) {
    for (const auto& [index, block] : file.blocks) {
      if (block.dirty) {
        out.push_back(fh);
        break;
      }
    }
  });
  std::sort(out.begin(), out.end());  // the table iterates in hash order
  return out;
}

void DiskCache::Crash() {
  // Disk contents (blocks, dirty flags) survive; in-memory validity does not.
  InvalidateAllAttrs();
  lookups_.Clear();
}

}  // namespace gvfs::proxy
