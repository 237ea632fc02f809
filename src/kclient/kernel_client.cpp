#include "kclient/kernel_client.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"

namespace gvfs::kclient {

using nfs3::Fh;
using nfs3::Status;

namespace {

/// Bounded client memory caches (the proxy's disk cache is much larger —
/// the asymmetry the paper exploits).
constexpr std::size_t kMaxAttrEntries = 512;
constexpr std::size_t kMaxDnlcEntries = 512;

/// Every call has hard-mount semantics (generous retransmission), as in the
/// paper's setup.
const rpc::CallOptions kHardMount = [] {
  rpc::CallOptions opts;
  opts.max_retries = 100;
  return opts;
}();

using memfs::kBlockSize;

}  // namespace

KernelClient::KernelClient(sim::Scheduler& sched, rpc::RpcNode& node,
                           net::Address server, nfs3::Fh root, MountOptions options)
    : sched_(sched),
      client_(node, server),
      root_(root),
      options_(std::move(options)),
      attr_cache_(kMaxAttrEntries),
      dnlc_(kMaxDnlcEntries) {}

// ---------------------------------------------------------------------------
// Attribute cache
// ---------------------------------------------------------------------------

bool KernelClient::AttrFresh(const Fh& fh) const {
  if (options_.noac) return false;
  const AttrEntry* entry = attr_cache_.Find(fh);
  if (entry == nullptr) return false;
  return sched_.Now() - entry->fetched_at <= options_.attr_timeout;
}

const nfs3::Fattr* KernelClient::CachedAttr(const Fh& fh) const {
  const AttrEntry* entry = attr_cache_.Find(fh);
  return entry == nullptr ? nullptr : &entry->attr;
}

void KernelClient::StoreAttr(const Fh& fh, const nfs3::Fattr& attr, bool own_write) {
  if (FileCache* fc = file_cache_.Find(fh)) {
    if (!own_write && attr.mtime != fc->mtime_seen) {
      // Another client changed the file: cached data is stale. Clean blocks
      // are dropped; dirty blocks survive (the kernel client's usual weak
      // write-sharing semantics).
      auto& blocks = fc->blocks;
      for (auto it = blocks.begin(); it != blocks.end();) {
        if (!it->second.dirty) {
          ForgetBlock(it->second);
          it = blocks.erase(it);
        } else {
          ++it;
        }
      }
      fc->size_seen = attr.size;
    }
    fc->mtime_seen = attr.mtime;
    if (own_write) fc->size_seen = std::max(fc->size_seen, attr.size);
  }

  AttrEntry& entry = attr_cache_.Store(fh);
  entry.attr = attr;
  entry.fetched_at = sched_.Now();
}

void KernelClient::StoreAttr(const Fh& fh, const nfs3::PostOpAttr& attr,
                             bool own_write) {
  if (attr.has_value()) StoreAttr(fh, *attr, own_write);
}

void KernelClient::InvalidateAttr(const Fh& fh) { attr_cache_.Erase(fh); }

sim::Task<VfsResult<nfs3::Fattr>> KernelClient::GetAttr(Fh fh, bool force_fresh) {
  if (!force_fresh && AttrFresh(fh)) {
    ++stats_.attr_hits;
    co_return *CachedAttr(fh);
  }
  ++stats_.attr_misses;
  auto res = co_await client_.Call<nfs3::GetAttrRes>(
      nfs3::kGetAttr, nfs3::GetAttrArgs{fh}, kHardMount);
  if (!res) co_return Unexpected(Status::kIo);
  if (res->status != Status::kOk) {
    InvalidateAttr(fh);
    DropFileData(fh);
    co_return Unexpected(res->status);
  }
  StoreAttr(fh, res->attr, /*own_write=*/false);
  co_return res->attr;
}

// ---------------------------------------------------------------------------
// Name (dnlc) cache
// ---------------------------------------------------------------------------

void KernelClient::StoreDnlc(const Fh& dir, const std::string& name,
                             const Fh& child) {
  const nfs3::Fattr* dir_attr = CachedAttr(dir);
  if (dir_attr == nullptr) return;  // cannot validate later; skip caching
  dnlc_.Store(dir, name, DnlcEntry{child, dir_attr->mtime});
}

void KernelClient::DropDnlc(const Fh& dir, const std::string& name) {
  dnlc_.Erase(dir, name);
}

sim::Task<VfsResult<Fh>> KernelClient::LookupChild(Fh dir, std::string name) {
  // dnlc entries are trusted only while the cached directory attributes are
  // fresh and the directory mtime matches what the entry saw.
  auto dir_attr = co_await GetAttr(dir, /*force_fresh=*/false);
  if (!dir_attr) co_return Unexpected(dir_attr.error());

  if (const DnlcEntry* entry = dnlc_.Find(dir, name)) {
    if (entry->dir_mtime_seen == dir_attr->mtime) {
      ++stats_.dnlc_hits;
      co_return entry->child;
    }
    dnlc_.Erase(dir, name);
  }
  ++stats_.dnlc_misses;

  nfs3::LookupArgs args;
  args.dir = dir;
  args.name = name;
  auto res = co_await client_.Call<nfs3::LookupRes>(nfs3::kLookup, args, kHardMount);
  if (!res) co_return Unexpected(Status::kIo);
  StoreAttr(dir, res->dir_attr, /*own_write=*/false);
  if (res->status != Status::kOk) co_return Unexpected(res->status);
  StoreAttr(res->object, res->obj_attr, /*own_write=*/false);
  StoreDnlc(dir, name, res->object);
  co_return res->object;
}

std::vector<std::string> KernelClient::SplitPath(const std::string& path) {
  std::vector<std::string> parts;
  std::size_t pos = 0;
  while (pos < path.size()) {
    if (path[pos] == '/') {
      ++pos;
      continue;
    }
    std::size_t next = path.find('/', pos);
    if (next == std::string::npos) next = path.size();
    parts.push_back(path.substr(pos, next - pos));
    pos = next;
  }
  return parts;
}

sim::Task<VfsResult<Fh>> KernelClient::ResolvePath(std::string path) {
  Fh current = root_;
  for (const auto& component : SplitPath(path)) {
    auto next = co_await LookupChild(current, component);
    if (!next) co_return Unexpected(next.error());
    current = *next;
  }
  co_return current;
}

sim::Task<VfsResult<Fh>> KernelClient::ResolveParent(std::string path,
                                                     std::string* leaf) {
  auto parts = SplitPath(path);
  if (parts.empty()) co_return Unexpected(Status::kInval);
  *leaf = parts.back();
  Fh current = root_;
  for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
    auto next = co_await LookupChild(current, parts[i]);
    if (!next) co_return Unexpected(next.error());
    current = *next;
  }
  co_return current;
}

// ---------------------------------------------------------------------------
// Page cache
// ---------------------------------------------------------------------------

KernelClient::BlockMap::iterator KernelClient::AddBlock(FileCache& fc, const Fh& fh,
                                                       std::uint64_t index, Buf data) {
  auto [it, added] = fc.blocks.try_emplace(index);
  if (added) {
    it->second.data = std::move(data);
    cached_bytes_ += it->second.data.size();
    it->second.queued = evict_order_.insert(evict_order_.end(), {fh, index});
  }
  return it;
}

void KernelClient::ForgetBlock(CachedBlock& block) {
  cached_bytes_ -= block.data.size();
  evict_order_.erase(block.queued);
}

void KernelClient::DropFileData(const Fh& fh) {
  FileCache fc;
  if (!file_cache_.Extract(fh, &fc)) return;
  for (auto& [index, block] : fc.blocks) ForgetBlock(block);
}

void KernelClient::EvictIfNeeded() {
  std::size_t scanned = 0;
  const std::size_t limit = evict_order_.size();
  while (cached_bytes_ > options_.max_cached_bytes && scanned < limit) {
    ++scanned;
    // Every entry names a cached block: each drop removes its own entry.
    const auto [fh, index] = evict_order_.front();
    auto& blocks = file_cache_.Find(fh)->blocks;
    auto block = blocks.find(index);
    if (block->second.dirty) {
      // Cannot evict dirty data: requeue it at the back.
      evict_order_.splice(evict_order_.end(), evict_order_, evict_order_.begin());
      continue;
    }
    ForgetBlock(block->second);
    blocks.erase(block);
  }
}

// ---------------------------------------------------------------------------
// Write-back
// ---------------------------------------------------------------------------

sim::Task<VfsResult<void>> KernelClient::FlushFile(Fh fh) {
  const FileCache* fc = file_cache_.Find(fh);
  if (fc == nullptr) co_return Ok{};

  // Snapshot the dirty block indices: the WRITE awaits below park this
  // frame, and a concurrent Remove/truncate can DropFileData(fh) meanwhile,
  // erasing the entry (and every block) a live range-for iterator would
  // still point into.
  std::vector<std::uint64_t> dirty;
  for (const auto& [index, block] : fc->blocks) {
    if (block.dirty) dirty.push_back(index);
  }

  bool wrote = false;
  for (const std::uint64_t index : dirty) {
    const FileCache* file = file_cache_.Find(fh);
    if (file == nullptr) co_return Ok{};  // dropped mid-flush
    auto blk = file->blocks.find(index);
    if (blk == file->blocks.end() || !blk->second.dirty) continue;
    nfs3::WriteArgs args;
    args.file = fh;
    args.offset = index * kBlockSize;
    args.stable = nfs3::StableHow::kUnstable;
    args.data = blk->second.data;
    auto res = co_await client_.Call<nfs3::WriteRes>(nfs3::kWrite, args, kHardMount);
    if (!res) co_return Unexpected(Status::kIo);
    if (res->status != Status::kOk) co_return Unexpected(res->status);
    StoreAttr(fh, res->attr, /*own_write=*/true);
    if (FileCache* after = file_cache_.Find(fh)) {
      auto written = after->blocks.find(index);
      if (written != after->blocks.end()) written->second.dirty = false;
    }
    wrote = true;
  }
  if (wrote) {
    auto commit = co_await client_.Call<nfs3::CommitRes>(
        nfs3::kCommit, nfs3::CommitArgs{fh, 0, 0}, kHardMount);
    if (!commit) co_return Unexpected(Status::kIo);
    if (commit->status != Status::kOk) co_return Unexpected(commit->status);
    StoreAttr(fh, commit->attr, /*own_write=*/true);
  }
  co_return Ok{};
}

// ---------------------------------------------------------------------------
// POSIX-ish operations
// ---------------------------------------------------------------------------

sim::Task<VfsResult<Fd>> KernelClient::Open(std::string path, OpenFlags flags) {
  std::string leaf;
  auto dir = co_await ResolveParent(path, &leaf);
  if (!dir) co_return Unexpected(dir.error());

  Fh fh;
  bool created = false;
  if (flags.create) {
    nfs3::CreateArgs args;
    args.dir = *dir;
    args.name = leaf;
    args.exclusive = flags.exclusive;
    auto res = co_await client_.Call<nfs3::CreateRes>(nfs3::kCreate, args,
                                                      kHardMount);
    if (!res) co_return Unexpected(Status::kIo);
    StoreAttr(*dir, res->dir_attr, /*own_write=*/true);
    if (res->dir_attr.has_value()) {
      // Our own mutation: existing dnlc entries under this dir stay valid.
      dnlc_.RefreshDir(*dir, res->dir_attr->mtime);
    }
    if (res->status != Status::kOk) co_return Unexpected(res->status);
    fh = res->object;
    StoreAttr(fh, res->obj_attr, /*own_write=*/false);
    StoreDnlc(*dir, leaf, fh);
    // The CREATE reply carried fresh post-op attributes, so the close-to-open
    // GETATTR below would be redundant whether or not the file pre-existed.
    created = true;
  } else {
    auto looked_up = co_await LookupChild(*dir, leaf);
    if (!looked_up) co_return Unexpected(looked_up.error());
    fh = *looked_up;
  }

  // Close-to-open: opening a file revalidates its attributes with the
  // server regardless of the attribute cache (the GETATTR storm the paper
  // measures in the Make benchmark).
  if (!created) {
    auto attr = co_await GetAttr(fh, /*force_fresh=*/true);
    if (!attr) co_return Unexpected(attr.error());
  }

  if (flags.truncate) {
    nfs3::SetAttrArgs args;
    args.object = fh;
    args.size = 0;
    auto res = co_await client_.Call<nfs3::SetAttrRes>(nfs3::kSetAttr, args,
                                                       kHardMount);
    if (!res) co_return Unexpected(Status::kIo);
    if (res->status != Status::kOk) co_return Unexpected(res->status);
    DropFileData(fh);
    StoreAttr(fh, res->attr, /*own_write=*/true);
  }

  const Fd fd = next_fd_++;
  open_files_[fd] = OpenFile{fh, flags};
  co_return fd;
}

sim::Task<VfsResult<void>> KernelClient::Close(Fd fd) {
  auto it = open_files_.find(fd);
  if (it == open_files_.end()) co_return Unexpected(Status::kInval);
  const Fh fh = it->second.fh;
  const bool writable = it->second.flags.write;
  open_files_.erase(it);
  // Close-to-open: closing a written file flushes its dirty pages.
  if (writable) {
    auto flushed = co_await FlushFile(fh);
    if (!flushed) co_return Unexpected(flushed.error());
  }
  co_return Ok{};
}

sim::Task<VfsResult<Bytes>> KernelClient::Read(Fd fd, std::uint64_t offset,
                                               std::uint32_t count) {
  auto it = open_files_.find(fd);
  if (it == open_files_.end()) co_return Unexpected(Status::kInval);
  const Fh fh = it->second.fh;

  // Validity of cached data is tied to (cached) attributes.
  auto attr = co_await GetAttr(fh, /*force_fresh=*/false);
  if (!attr) co_return Unexpected(attr.error());

  // Held as a pointer so it can be re-acquired after each await: a
  // concurrent frame can insert or erase a file_cache_ entry (a Read of
  // another file, a Remove/truncate of this one) while this frame is parked
  // on a READ, which moves or ends the entry. No insert or erase happens
  // between the awaits.
  FileCache* fc = &file_cache_[fh];
  if (fc->blocks.empty() && fc->mtime_seen == 0) {
    fc->mtime_seen = attr->mtime;
    fc->size_seen = attr->size;
  }
  const std::uint64_t file_size = std::max(fc->size_seen, attr->size);
  if (offset >= file_size) co_return Bytes{};
  const std::uint64_t want_end =
      std::min<std::uint64_t>(offset + count, file_size);

  Bytes out;
  out.reserve(want_end - offset);
  for (std::uint64_t pos = offset; pos < want_end;) {
    const std::uint64_t index = pos / kBlockSize;
    const std::uint64_t block_start = index * kBlockSize;
    auto cached = fc->blocks.find(index);
    if (cached == fc->blocks.end()) {
      ++stats_.page_misses;
      auto res = co_await client_.Call<nfs3::ReadRes>(
          nfs3::kRead, nfs3::ReadArgs{fh, block_start, kBlockSize}, kHardMount);
      if (!res) co_return Unexpected(Status::kIo);
      if (res->status != Status::kOk) co_return Unexpected(res->status);
      StoreAttr(fh, res->attr, /*own_write=*/false);
      fc = &file_cache_[fh];
      cached = AddBlock(*fc, fh, index, std::move(res->data));
    } else {
      ++stats_.page_hits;
    }
    const Buf& data = cached->second.data;
    const std::uint64_t in_block = pos - block_start;
    if (in_block >= data.size()) break;  // hole/EOF within block
    const std::uint64_t take =
        std::min<std::uint64_t>(data.size() - in_block, want_end - pos);
    out.insert(out.end(), data.begin() + static_cast<std::ptrdiff_t>(in_block),
               data.begin() + static_cast<std::ptrdiff_t>(in_block + take));
    pos += take;
  }
  // Evict only after assembly: evicting inside the loop can reclaim the
  // block just fetched (always true with max_cached_bytes == 0), leaving
  // `cached` dangling before the copy above.
  EvictIfNeeded();
  co_return out;
}

sim::Task<VfsResult<std::uint32_t>> KernelClient::Write(Fd fd, std::uint64_t offset,
                                                        const Bytes& data) {
  auto it = open_files_.find(fd);
  if (it == open_files_.end()) co_return Unexpected(Status::kInval);
  if (!it->second.flags.write) co_return Unexpected(Status::kAccess);
  const Fh fh = it->second.fh;

  auto attr = co_await GetAttr(fh, /*force_fresh=*/false);
  if (!attr) co_return Unexpected(attr.error());

  // Pointer, not reference, so the read-modify-write await below can
  // re-acquire it: a concurrent frame can insert or erase a file_cache_
  // entry while this frame is parked, which moves or ends the entry.
  FileCache* fc = &file_cache_[fh];
  if (fc->blocks.empty() && fc->mtime_seen == 0) {
    fc->mtime_seen = attr->mtime;
    fc->size_seen = attr->size;
  }

  std::uint64_t pos = offset;
  std::size_t consumed = 0;
  while (consumed < data.size()) {
    const std::uint64_t index = pos / kBlockSize;
    const std::uint64_t block_start = index * kBlockSize;
    const std::uint64_t in_block = pos - block_start;
    const std::uint64_t take =
        std::min<std::uint64_t>(kBlockSize - in_block, data.size() - consumed);

    auto cached = fc->blocks.find(index);
    if (cached == fc->blocks.end()) {
      // Partial overwrite of existing server data requires read-modify-write.
      const bool needs_fetch =
          block_start < fc->size_seen && (in_block != 0 || take < kBlockSize) &&
          !(block_start + in_block >= fc->size_seen);
      Buf fetched;
      if (needs_fetch) {
        ++stats_.page_misses;
        auto res = co_await client_.Call<nfs3::ReadRes>(
            nfs3::kRead, nfs3::ReadArgs{fh, block_start, kBlockSize}, kHardMount);
        if (!res) co_return Unexpected(Status::kIo);
        if (res->status != Status::kOk) co_return Unexpected(res->status);
        fetched = std::move(res->data);
        fc = &file_cache_[fh];
      }
      cached = AddBlock(*fc, fh, index, std::move(fetched));
    }

    // The first of a written block's two copies (the WRITE's encode is the
    // second); in place when the cache holds the block's only reference.
    Buf& dst = cached->second.data;
    cached_bytes_ -= dst.size();
    dst.Write(in_block, ByteView(data.data() + consumed, take));
    cached_bytes_ += dst.size();
    cached->second.dirty = true;

    pos += take;
    consumed += take;
  }

  fc->size_seen = std::max(fc->size_seen, offset + data.size());
  // Keep the locally visible size in sync so Stat reflects our own writes.
  if (AttrEntry* cached_attr = attr_cache_.Find(fh)) {
    cached_attr->attr.size =
        std::max<std::uint64_t>(cached_attr->attr.size, fc->size_seen);
  }
  EvictIfNeeded();
  co_return static_cast<std::uint32_t>(data.size());
}

sim::Task<VfsResult<void>> KernelClient::Fsync(Fd fd) {
  auto it = open_files_.find(fd);
  if (it == open_files_.end()) co_return Unexpected(Status::kInval);
  co_return co_await FlushFile(it->second.fh);
}

sim::Task<VfsResult<nfs3::Fattr>> KernelClient::Stat(std::string path) {
  auto fh = co_await ResolvePath(path);
  if (!fh) co_return Unexpected(fh.error());
  co_return co_await GetAttr(*fh, /*force_fresh=*/false);
}

sim::Task<VfsResult<bool>> KernelClient::Exists(std::string path) {
  auto attr = co_await Stat(path);
  if (attr.has_value()) co_return true;
  if (attr.error() == Status::kNoEnt) co_return false;
  co_return Unexpected(attr.error());
}

sim::Task<VfsResult<void>> KernelClient::Unlink(std::string path) {
  std::string leaf;
  auto dir = co_await ResolveParent(path, &leaf);
  if (!dir) co_return Unexpected(dir.error());

  // If we know the victim's handle, invalidate its caches.
  if (const DnlcEntry* known = dnlc_.Find(*dir, leaf)) {
    const Fh victim = known->child;
    InvalidateAttr(victim);
    DropFileData(victim);
  }

  nfs3::RemoveArgs args;
  args.dir = *dir;
  args.name = leaf;
  auto res = co_await client_.Call<nfs3::RemoveRes>(nfs3::kRemove, args, kHardMount);
  if (!res) co_return Unexpected(Status::kIo);
  StoreAttr(*dir, res->dir_attr, /*own_write=*/true);
  DropDnlc(*dir, leaf);
  if (res->dir_attr.has_value()) dnlc_.RefreshDir(*dir, res->dir_attr->mtime);
  if (res->status != Status::kOk) co_return Unexpected(res->status);
  co_return Ok{};
}

sim::Task<VfsResult<void>> KernelClient::Mkdir(std::string path) {
  std::string leaf;
  auto dir = co_await ResolveParent(path, &leaf);
  if (!dir) co_return Unexpected(dir.error());
  nfs3::MkdirArgs args;
  args.dir = *dir;
  args.name = leaf;
  args.mode = 0755;
  auto res = co_await client_.Call<nfs3::MkdirRes>(nfs3::kMkdir, args, kHardMount);
  if (!res) co_return Unexpected(Status::kIo);
  StoreAttr(*dir, res->dir_attr, /*own_write=*/true);
  if (res->status != Status::kOk) co_return Unexpected(res->status);
  StoreAttr(res->object, res->obj_attr, /*own_write=*/false);
  StoreDnlc(*dir, leaf, res->object);
  co_return Ok{};
}

sim::Task<VfsResult<void>> KernelClient::Rmdir(std::string path) {
  std::string leaf;
  auto dir = co_await ResolveParent(path, &leaf);
  if (!dir) co_return Unexpected(dir.error());
  nfs3::RmdirArgs args;
  args.dir = *dir;
  args.name = leaf;
  auto res = co_await client_.Call<nfs3::RmdirRes>(nfs3::kRmdir, args, kHardMount);
  if (!res) co_return Unexpected(Status::kIo);
  StoreAttr(*dir, res->dir_attr, /*own_write=*/true);
  DropDnlc(*dir, leaf);
  if (res->status != Status::kOk) co_return Unexpected(res->status);
  co_return Ok{};
}

sim::Task<VfsResult<void>> KernelClient::Link(std::string target_path,
                                              std::string new_path) {
  auto target = co_await ResolvePath(target_path);
  if (!target) co_return Unexpected(target.error());
  std::string leaf;
  auto dir = co_await ResolveParent(new_path, &leaf);
  if (!dir) co_return Unexpected(dir.error());

  nfs3::LinkArgs args;
  args.file = *target;
  args.dir = *dir;
  args.name = leaf;
  auto res = co_await client_.Call<nfs3::LinkRes>(nfs3::kLink, args, kHardMount);
  if (!res) co_return Unexpected(Status::kIo);
  StoreAttr(*dir, res->dir_attr, /*own_write=*/true);
  StoreAttr(*target, res->file_attr, /*own_write=*/true);
  if (res->status != Status::kOk) co_return Unexpected(res->status);
  StoreDnlc(*dir, leaf, *target);
  co_return Ok{};
}

sim::Task<VfsResult<void>> KernelClient::Rename(std::string from,
                                                std::string to) {
  std::string from_leaf, to_leaf;
  auto from_dir = co_await ResolveParent(from, &from_leaf);
  if (!from_dir) co_return Unexpected(from_dir.error());
  auto to_dir = co_await ResolveParent(to, &to_leaf);
  if (!to_dir) co_return Unexpected(to_dir.error());

  nfs3::RenameArgs args;
  args.from_dir = *from_dir;
  args.from_name = from_leaf;
  args.to_dir = *to_dir;
  args.to_name = to_leaf;
  auto res = co_await client_.Call<nfs3::RenameRes>(nfs3::kRename, args, kHardMount);
  if (!res) co_return Unexpected(Status::kIo);
  StoreAttr(*from_dir, res->from_dir_attr, /*own_write=*/true);
  StoreAttr(*to_dir, res->to_dir_attr, /*own_write=*/true);
  nfs3::Fh moved_fh;
  if (const DnlcEntry* moved = dnlc_.Find(*from_dir, from_leaf)) {
    moved_fh = moved->child;
    dnlc_.Erase(*from_dir, from_leaf);
  }
  DropDnlc(*to_dir, to_leaf);
  if (res->status != Status::kOk) co_return Unexpected(res->status);
  if (moved_fh.valid()) StoreDnlc(*to_dir, to_leaf, moved_fh);
  co_return Ok{};
}

sim::Task<VfsResult<std::vector<std::string>>> KernelClient::ReadDir(
    const std::string& path) {
  auto dir = co_await ResolvePath(path);
  if (!dir) co_return Unexpected(dir.error());

  std::vector<std::string> names;
  std::uint64_t cookie = 0;
  while (true) {
    nfs3::ReadDirArgs args;
    args.dir = *dir;
    args.cookie = cookie;
    args.max_entries = 256;
    auto res = co_await client_.Call<nfs3::ReadDirRes>(nfs3::kReadDir, args,
                                                       kHardMount);
    if (!res) co_return Unexpected(Status::kIo);
    StoreAttr(*dir, res->dir_attr, /*own_write=*/false);
    if (res->status != Status::kOk) co_return Unexpected(res->status);
    for (auto& entry : res->entries) {
      cookie = entry.cookie;
      names.push_back(std::move(entry.name));
    }
    if (res->eof || res->entries.empty()) break;
  }
  co_return names;
}

void KernelClient::DropCaches() {
  attr_cache_.Clear();
  dnlc_.Clear();
  file_cache_.Clear();
  evict_order_.clear();
  cached_bytes_ = 0;
}

}  // namespace gvfs::kclient
