#include "memfs/memfs.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace gvfs::memfs {

const char* FsErrorName(FsError e) {
  switch (e) {
    case FsError::kNoEnt:
      return "ENOENT";
    case FsError::kExist:
      return "EEXIST";
    case FsError::kNotDir:
      return "ENOTDIR";
    case FsError::kIsDir:
      return "EISDIR";
    case FsError::kNotEmpty:
      return "ENOTEMPTY";
    case FsError::kStale:
      return "ESTALE";
    case FsError::kInval:
      return "EINVAL";
  }
  return "?";
}

MemFs::MemFs(const SimTime* clock) : clock_(clock) {
  root_ = NewInode(FileType::kDirectory, 0755);
  Find(root_)->attr.nlink = 2;
}

MemFs::Inode* MemFs::Find(InodeId id) {
  std::unique_ptr<Inode>* slot = inodes_.Find(id);
  return slot == nullptr ? nullptr : slot->get();
}

const MemFs::Inode* MemFs::Find(InodeId id) const {
  const std::unique_ptr<Inode>* slot = inodes_.Find(id);
  return slot == nullptr ? nullptr : slot->get();
}

FsResult<MemFs::Inode*> MemFs::FindDir(InodeId id) {
  Inode* node = Find(id);
  if (node == nullptr) return Unexpected(FsError::kStale);
  if (node->attr.type != FileType::kDirectory) return Unexpected(FsError::kNotDir);
  return node;
}

FsResult<const MemFs::Inode*> MemFs::FindDir(InodeId id) const {
  const Inode* node = Find(id);
  if (node == nullptr) return Unexpected(FsError::kStale);
  if (node->attr.type != FileType::kDirectory) return Unexpected(FsError::kNotDir);
  return node;
}

InodeId MemFs::NewInode(FileType type, std::uint32_t mode) {
  const InodeId id = next_id_++;
  auto inode = std::make_unique<Inode>();
  inode->attr.type = type;
  inode->attr.mode = mode;
  inode->attr.fileid = id;
  inode->attr.nlink = type == FileType::kDirectory ? 2 : 1;
  inode->attr.atime = inode->attr.mtime = inode->attr.ctime = Now();
  inodes_[id] = std::move(inode);
  return id;
}

void MemFs::TouchDir(Inode& dir) {
  dir.attr.mtime = dir.attr.ctime = Now();
}

void MemFs::Unref(InodeId id) {
  Inode* node = Find(id);
  assert(node != nullptr && node->attr.nlink > 0);
  --node->attr.nlink;
  node->attr.ctime = Now();
  if (node->attr.nlink == 0) {
    total_bytes_ -= node->attr.size;
    inodes_.Erase(id);
  }
}

FsResult<InodeAttr> MemFs::GetAttr(InodeId id) const {
  const Inode* node = Find(id);
  if (node == nullptr) return Unexpected(FsError::kStale);
  return node->attr;
}

FsResult<InodeAttr> MemFs::SetAttr(InodeId id, const SetAttrRequest& req) {
  Inode* node = Find(id);
  if (node == nullptr) return Unexpected(FsError::kStale);
  if (req.size.has_value()) {
    if (node->attr.type == FileType::kDirectory) return Unexpected(FsError::kIsDir);
    Resize(*node, *req.size);
    node->attr.mtime = Now();
  }
  if (req.mode.has_value()) node->attr.mode = *req.mode;
  if (req.mtime.has_value()) node->attr.mtime = *req.mtime;
  node->attr.ctime = Now();
  return node->attr;
}

FsResult<InodeId> MemFs::Lookup(InodeId dir, const std::string& name) const {
  auto d = FindDir(dir);
  if (!d) return Unexpected(d.error());
  auto it = (*d)->entries.find(name);
  if (it == (*d)->entries.end()) return Unexpected(FsError::kNoEnt);
  return it->second;
}

FsResult<InodeId> MemFs::Create(InodeId dir, const std::string& name,
                                std::uint32_t mode) {
  auto d = FindDir(dir);
  if (!d) return Unexpected(d.error());
  if (name.empty() || name == "." || name == "..") return Unexpected(FsError::kInval);
  if ((*d)->entries.count(name) != 0) return Unexpected(FsError::kExist);
  const InodeId id = NewInode(FileType::kRegular, mode);
  (*d)->entries[name] = id;
  TouchDir(**d);
  return id;
}

FsResult<InodeId> MemFs::Mkdir(InodeId dir, const std::string& name,
                               std::uint32_t mode) {
  auto d = FindDir(dir);
  if (!d) return Unexpected(d.error());
  if (name.empty() || name == "." || name == "..") return Unexpected(FsError::kInval);
  if ((*d)->entries.count(name) != 0) return Unexpected(FsError::kExist);
  const InodeId id = NewInode(FileType::kDirectory, mode);
  (*d)->entries[name] = id;
  ++(*d)->attr.nlink;  // child's ".."
  TouchDir(**d);
  return id;
}

FsResult<void> MemFs::Remove(InodeId dir, const std::string& name) {
  auto d = FindDir(dir);
  if (!d) return Unexpected(d.error());
  auto it = (*d)->entries.find(name);
  if (it == (*d)->entries.end()) return Unexpected(FsError::kNoEnt);
  Inode* target = Find(it->second);
  assert(target != nullptr);
  if (target->attr.type == FileType::kDirectory) return Unexpected(FsError::kIsDir);
  const InodeId id = it->second;
  (*d)->entries.erase(it);
  TouchDir(**d);
  Unref(id);
  return Ok{};
}

FsResult<void> MemFs::Rmdir(InodeId dir, const std::string& name) {
  auto d = FindDir(dir);
  if (!d) return Unexpected(d.error());
  auto it = (*d)->entries.find(name);
  if (it == (*d)->entries.end()) return Unexpected(FsError::kNoEnt);
  Inode* target = Find(it->second);
  assert(target != nullptr);
  if (target->attr.type != FileType::kDirectory) return Unexpected(FsError::kNotDir);
  if (!target->entries.empty()) return Unexpected(FsError::kNotEmpty);
  const InodeId id = it->second;
  (*d)->entries.erase(it);
  --(*d)->attr.nlink;
  TouchDir(**d);
  // Directories hold nlink 2 (self + "."); drop both references.
  target->attr.nlink = 0;
  inodes_.Erase(id);
  return Ok{};
}

FsResult<void> MemFs::Rename(InodeId from_dir, const std::string& from_name,
                             InodeId to_dir, const std::string& to_name) {
  auto from = FindDir(from_dir);
  if (!from) return Unexpected(from.error());
  auto to = FindDir(to_dir);
  if (!to) return Unexpected(to.error());
  auto it = (*from)->entries.find(from_name);
  if (it == (*from)->entries.end()) return Unexpected(FsError::kNoEnt);
  const InodeId moving = it->second;

  auto existing = (*to)->entries.find(to_name);
  if (existing != (*to)->entries.end()) {
    if (existing->second == moving) return Ok{};  // same file; no-op
    Inode* target = Find(existing->second);
    if (target->attr.type == FileType::kDirectory) {
      if (!target->entries.empty()) return Unexpected(FsError::kNotEmpty);
      --(*to)->attr.nlink;
      inodes_.Erase(existing->second);
    } else {
      const InodeId replaced = existing->second;
      (*to)->entries.erase(existing);
      Unref(replaced);
    }
  }

  (*from)->entries.erase(from_name);
  (*to)->entries[to_name] = moving;
  Inode* moved = Find(moving);
  if (moved->attr.type == FileType::kDirectory && from_dir != to_dir) {
    --(*from)->attr.nlink;
    ++(*to)->attr.nlink;
  }
  TouchDir(**from);
  if (from_dir != to_dir) TouchDir(**to);
  moved->attr.ctime = Now();
  return Ok{};
}

FsResult<void> MemFs::Link(InodeId file, InodeId dir, const std::string& name) {
  Inode* target = Find(file);
  if (target == nullptr) return Unexpected(FsError::kStale);
  if (target->attr.type == FileType::kDirectory) return Unexpected(FsError::kIsDir);
  auto d = FindDir(dir);
  if (!d) return Unexpected(d.error());
  if ((*d)->entries.count(name) != 0) return Unexpected(FsError::kExist);
  (*d)->entries[name] = file;
  ++target->attr.nlink;
  target->attr.ctime = Now();
  TouchDir(**d);
  return Ok{};
}

void MemFs::CopyOut(const Inode& node, std::uint64_t offset, std::uint64_t len,
                    std::uint8_t* out) {
  while (len > 0) {
    const std::uint64_t index = offset / kBlockSize;
    const std::uint64_t in_block = offset - index * kBlockSize;
    const std::uint64_t take = std::min(kBlockSize - in_block, len);
    const Buf* block = index < node.blocks.size() ? &node.blocks[index] : nullptr;
    const std::uint64_t stored =
        block != nullptr && block->size() > in_block
            ? std::min<std::uint64_t>(block->size() - in_block, take)
            : 0;
    if (stored != 0) std::memcpy(out, block->data() + in_block, stored);
    std::memset(out + stored, 0, take - stored);
    out += take;
    offset += take;
    len -= take;
  }
}

void MemFs::Resize(Inode& node, std::uint64_t size) {
  if (size < node.attr.size) {
    const std::uint64_t keep = (size + kBlockSize - 1) / kBlockSize;
    if (node.blocks.size() > keep) node.blocks.resize(keep);
    if (keep != 0 && node.blocks.size() == keep) {
      Buf& last = node.blocks.back();
      const std::uint64_t last_len = size - (keep - 1) * kBlockSize;
      if (last.size() > last_len) last = last.Slice(0, last_len);
    }
  }
  total_bytes_ = total_bytes_ - node.attr.size + size;
  node.attr.size = size;
}

FsResult<ReadResult> MemFs::Read(InodeId id, std::uint64_t offset,
                                 std::uint32_t count) const {
  const Inode* node = Find(id);
  if (node == nullptr) return Unexpected(FsError::kStale);
  if (node->attr.type == FileType::kDirectory) return Unexpected(FsError::kIsDir);
  ReadResult result;
  if (offset >= node->attr.size) {
    result.eof = true;
    return result;
  }
  const std::uint64_t end = std::min<std::uint64_t>(offset + count, node->attr.size);
  result.data.resize(end - offset);
  CopyOut(*node, offset, end - offset, result.data.data());
  result.eof = end == node->attr.size;
  return result;
}

FsResult<SharedRead> MemFs::ReadShared(InodeId id, std::uint64_t offset,
                                       std::uint32_t count) const {
  const Inode* node = Find(id);
  if (node == nullptr) return Unexpected(FsError::kStale);
  if (node->attr.type == FileType::kDirectory) return Unexpected(FsError::kIsDir);
  SharedRead result;
  if (offset >= node->attr.size) {
    result.eof = true;
    return result;
  }
  const std::uint64_t end = std::min<std::uint64_t>(offset + count, node->attr.size);
  const std::uint64_t len = end - offset;
  const std::uint64_t index = offset / kBlockSize;
  const std::uint64_t in_block = offset - index * kBlockSize;
  if (in_block + len <= kBlockSize && index < node->blocks.size() &&
      node->blocks[index].size() >= in_block + len) {
    result.data = node->blocks[index].Slice(in_block, len);
  } else {
    result.data = Buf::Build(len, [&](std::uint8_t* p) { CopyOut(*node, offset, len, p); });
  }
  result.eof = end == node->attr.size;
  return result;
}

FsResult<std::uint64_t> MemFs::Write(InodeId id, std::uint64_t offset,
                                     const Buf& data) {
  Inode* node = Find(id);
  if (node == nullptr) return Unexpected(FsError::kStale);
  if (node->attr.type == FileType::kDirectory) return Unexpected(FsError::kIsDir);
  const std::uint64_t end = offset + data.size();
  if (end > node->attr.size) Resize(*node, end);
  for (std::uint64_t pos = offset; pos < end;) {
    const std::uint64_t index = pos / kBlockSize;
    const std::uint64_t in_block = pos - index * kBlockSize;
    const std::uint64_t take = std::min(kBlockSize - in_block, end - pos);
    if (node->blocks.size() <= index) node->blocks.resize(index + 1);
    node->blocks[index].WriteShared(in_block, data.Slice(pos - offset, take));
    pos += take;
  }
  node->attr.mtime = node->attr.ctime = Now();
  return node->attr.size;
}

FsResult<std::vector<DirEntry>> MemFs::ReadDir(InodeId dir, std::uint64_t cookie,
                                               std::uint32_t max_entries) const {
  auto d = FindDir(dir);
  if (!d) return Unexpected(d.error());
  std::vector<DirEntry> out;
  std::uint64_t index = 0;
  for (const auto& [name, inode] : (*d)->entries) {
    ++index;  // cookies are 1-based positions in sorted order
    if (index <= cookie) continue;
    out.push_back(DirEntry{name, inode, index});
    if (out.size() >= max_entries) break;
  }
  return out;
}

FsResult<InodeId> MemFs::ResolvePath(const std::string& path) const {
  InodeId current = root_;
  std::size_t pos = 0;
  while (pos < path.size()) {
    if (path[pos] == '/') {
      ++pos;
      continue;
    }
    const std::size_t next = path.find('/', pos);
    const std::string component =
        path.substr(pos, next == std::string::npos ? std::string::npos : next - pos);
    auto looked_up = Lookup(current, component);
    if (!looked_up) return Unexpected(looked_up.error());
    current = *looked_up;
    if (next == std::string::npos) break;
    pos = next;
  }
  return current;
}

}  // namespace gvfs::memfs
