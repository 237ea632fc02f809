#include "afs/afs.h"

#include <algorithm>

namespace gvfs::afs {

using kclient::Fd;
using kclient::OpenFlags;
using kclient::VfsResult;
using nfs3::FailWith;
using nfs3::FromFsError;
using nfs3::Parse;
using nfs3::Serialize;
using nfs3::Status;

namespace {

constexpr rpc::CallOptions AfsRpc() {
  rpc::CallOptions opts;
  opts.max_retries = 20;
  return opts;
}

/// One request whose reply is a bare status.
sim::Task<VfsResult<void>> StatusOp(rpc::RpcNode* node, net::Address server,
                                    AfsProc proc, Buf args, const char* label) {
  rpc::CallOptions opts = AfsRpc();
  opts.label = label;
  auto reply = co_await node->Call(server, kAfsProgram, proc, std::move(args), std::move(opts));
  if (!reply) co_return Unexpected(Status::kIo);
  auto res = Parse<StatusRes>(*reply);
  if (!res) co_return Unexpected(Status::kIo);
  if (res->status != Status::kOk) co_return Unexpected(res->status);
  co_return Ok{};
}

}  // namespace

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

AfsServer::AfsServer(sim::Scheduler& sched, memfs::MemFs& fs, rpc::RpcNode& node)
    : sched_(sched), fs_(fs), node_(node) {
  auto bind = [this, &node](AfsProc proc,
                            sim::Task<Buf> (AfsServer::*method)(rpc::CallContext,
                                                                rpc::Body)) {
    node.RegisterHandler(kAfsProgram, proc,
                         [this, method](rpc::CallContext ctx, rpc::Body args) {
                           return (this->*method)(ctx, std::move(args));
                         });
  };
  bind(kFetchStatus, &AfsServer::HandleFetchStatus);
  bind(kFetchData, &AfsServer::HandleFetchData);
  bind(kStoreData, &AfsServer::HandleStoreData);
  bind(kCreateFile, &AfsServer::HandleCreate);
  bind(kRemoveFile, &AfsServer::HandleRemove);
  bind(kHardLink, &AfsServer::HandleLink);
  bind(kMakeDir, &AfsServer::HandleMkdir);
  bind(kRemoveDir, &AfsServer::HandleRmdir);
  bind(kListDir, &AfsServer::HandleListDir);
}

Expected<std::pair<memfs::InodeId, std::string>, Status> AfsServer::Parent(
    const std::string& path) const {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return Unexpected(Status::kInval);
  const std::string dir_path = path.substr(0, slash);
  const std::string leaf = path.substr(slash + 1);
  if (leaf.empty()) return Unexpected(Status::kInval);
  auto dir = dir_path.empty() ? memfs::FsResult<memfs::InodeId>(fs_.root())
                              : fs_.ResolvePath(dir_path);
  if (!dir) return Unexpected(nfs3::FromFsError(dir.error()));
  return std::pair{*dir, leaf};
}

void AfsServer::AddPromise(const std::string& path, net::Address client) {
  promises_[path].insert(client);
}

sim::Task<void> AfsServer::BreakPromises(std::string path, net::Address mutator) {
  auto it = promises_.find(path);
  if (it == promises_.end()) co_return;
  std::vector<net::Address> holders(it->second.begin(), it->second.end());
  it->second.clear();
  // Request bytes are built outside co_await expressions: GCC 12 corrupts
  // aggregate temporaries that live across a suspension (DESIGN.md §6).
  const Buf args = Serialize(PathArgs{path});
  for (const auto& holder : holders) {
    if (holder == mutator) continue;
    ++stats_.callback_breaks;
    rpc::CallOptions opts;
    opts.label = "CBBREAK";
    opts.timeout = Seconds(2);
    opts.max_retries = 2;
    (void)co_await node_.Call(holder, kAfsProgram, kCallbackBreak, args, std::move(opts));
  }
}

sim::Task<Buf> AfsServer::HandleFetchStatus(rpc::CallContext ctx, rpc::Body args) {
  ++stats_.fetches;
  auto req = Parse<PathArgs>(args);
  if (!req) co_return FailWith<FetchStatusRes>(Status::kInval);
  AddPromise(req->path, ctx.caller);  // promise covers negative results too
  auto ino = fs_.ResolvePath(req->path);
  if (!ino) co_return FailWith<FetchStatusRes>(FromFsError(ino.error()));
  auto attr = fs_.GetAttr(*ino);
  if (!attr) co_return FailWith<FetchStatusRes>(FromFsError(attr.error()));
  co_return Serialize(FetchStatusRes{Status::kOk, nfs3::ToFattr(*attr)});
}

sim::Task<Buf> AfsServer::HandleFetchData(rpc::CallContext ctx, rpc::Body args) {
  ++stats_.fetches;
  auto req = Parse<PathArgs>(args);
  if (!req) co_return FailWith<FetchDataRes>(Status::kInval);
  AddPromise(req->path, ctx.caller);
  auto ino = fs_.ResolvePath(req->path);
  if (!ino) co_return FailWith<FetchDataRes>(FromFsError(ino.error()));
  auto attr = fs_.GetAttr(*ino);
  if (!attr) co_return FailWith<FetchDataRes>(FromFsError(attr.error()));
  auto data = fs_.ReadShared(*ino, 0, static_cast<std::uint32_t>(attr->size));
  if (!data) co_return FailWith<FetchDataRes>(FromFsError(data.error()));
  co_return Serialize(
      FetchDataRes{Status::kOk, nfs3::ToFattr(*attr), std::move(data->data)});
}

sim::Task<Buf> AfsServer::HandleStoreData(rpc::CallContext ctx, rpc::Body args) {
  ++stats_.stores;
  auto req = Parse<StoreDataArgs>(args);
  if (!req) co_return FailWith<StatusRes>(Status::kInval);
  auto ino = fs_.ResolvePath(req->path);
  if (!ino) co_return FailWith<StatusRes>(FromFsError(ino.error()));
  co_await BreakPromises(req->path, ctx.caller);
  memfs::SetAttrRequest trunc;
  trunc.size = 0;
  (void)fs_.SetAttr(*ino, trunc);
  auto written = fs_.Write(*ino, 0, req->data);
  if (!written) co_return FailWith<StatusRes>(FromFsError(written.error()));
  co_return Serialize(StatusRes{});
}

sim::Task<Buf> AfsServer::HandleCreate(rpc::CallContext ctx, rpc::Body args) {
  auto req = Parse<PathArgs>(args);
  if (!req) co_return FailWith<StatusRes>(Status::kInval);
  const std::string p = std::move(req->path);
  auto parent = Parent(p);
  if (!parent) co_return FailWith<StatusRes>(parent.error());
  co_await BreakPromises(p, ctx.caller);
  co_await BreakPromises(p.substr(0, p.find_last_of('/')), ctx.caller);
  auto created = fs_.Create(parent->first, parent->second, 0644);
  if (!created) co_return FailWith<StatusRes>(FromFsError(created.error()));
  co_return Serialize(StatusRes{});
}

sim::Task<Buf> AfsServer::HandleRemove(rpc::CallContext ctx, rpc::Body args) {
  auto req = Parse<PathArgs>(args);
  if (!req) co_return FailWith<StatusRes>(Status::kInval);
  const std::string p = std::move(req->path);
  auto parent = Parent(p);
  if (!parent) co_return FailWith<StatusRes>(parent.error());
  co_await BreakPromises(p, ctx.caller);
  co_await BreakPromises(p.substr(0, p.find_last_of('/')), ctx.caller);
  auto removed = fs_.Remove(parent->first, parent->second);
  if (!removed) co_return FailWith<StatusRes>(FromFsError(removed.error()));
  co_return Serialize(StatusRes{});
}

sim::Task<Buf> AfsServer::HandleLink(rpc::CallContext ctx, rpc::Body args) {
  auto req = Parse<LinkArgs>(args);
  if (!req) co_return FailWith<StatusRes>(Status::kInval);
  const std::string np = std::move(req->new_path);
  auto target_ino = fs_.ResolvePath(req->target);
  if (!target_ino) co_return FailWith<StatusRes>(FromFsError(target_ino.error()));
  auto parent = Parent(np);
  if (!parent) co_return FailWith<StatusRes>(parent.error());
  co_await BreakPromises(np, ctx.caller);
  co_await BreakPromises(np.substr(0, np.find_last_of('/')), ctx.caller);
  auto linked = fs_.Link(*target_ino, parent->first, parent->second);
  if (!linked) co_return FailWith<StatusRes>(FromFsError(linked.error()));
  co_return Serialize(StatusRes{});
}

sim::Task<Buf> AfsServer::HandleMkdir(rpc::CallContext ctx, rpc::Body args) {
  auto req = Parse<PathArgs>(args);
  if (!req) co_return FailWith<StatusRes>(Status::kInval);
  auto parent = Parent(req->path);
  if (!parent) co_return FailWith<StatusRes>(parent.error());
  co_await BreakPromises(req->path, ctx.caller);
  auto made = fs_.Mkdir(parent->first, parent->second, 0755);
  if (!made) co_return FailWith<StatusRes>(FromFsError(made.error()));
  co_return Serialize(StatusRes{});
}

sim::Task<Buf> AfsServer::HandleRmdir(rpc::CallContext ctx, rpc::Body args) {
  auto req = Parse<PathArgs>(args);
  if (!req) co_return FailWith<StatusRes>(Status::kInval);
  auto parent = Parent(req->path);
  if (!parent) co_return FailWith<StatusRes>(parent.error());
  co_await BreakPromises(req->path, ctx.caller);
  auto removed = fs_.Rmdir(parent->first, parent->second);
  if (!removed) co_return FailWith<StatusRes>(FromFsError(removed.error()));
  co_return Serialize(StatusRes{});
}

sim::Task<Buf> AfsServer::HandleListDir(rpc::CallContext ctx, rpc::Body args) {
  auto req = Parse<PathArgs>(args);
  if (!req) co_return FailWith<ListDirRes>(Status::kInval);
  const std::string& p = req->path;
  AddPromise(p, ctx.caller);
  auto ino = p.empty() || p == "/" ? memfs::FsResult<memfs::InodeId>(fs_.root())
                                   : fs_.ResolvePath(p);
  if (!ino) co_return FailWith<ListDirRes>(FromFsError(ino.error()));
  auto entries = fs_.ReadDir(*ino, 0, 100000);
  if (!entries) co_return FailWith<ListDirRes>(FromFsError(entries.error()));
  ListDirRes res;
  for (auto& entry : *entries) res.names.push_back(std::move(entry.name));
  co_return Serialize(res);
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

AfsClient::AfsClient(sim::Scheduler& sched, rpc::RpcNode& node, net::Address server)
    : sched_(sched), node_(node), server_(server) {
  node.RegisterHandler(kAfsProgram, kCallbackBreak,
                       [this](rpc::CallContext ctx, rpc::Body args) {
                         return HandleCallbackBreak(ctx, std::move(args));
                       });
}

sim::Task<Buf> AfsClient::HandleCallbackBreak(rpc::CallContext, rpc::Body args) {
  ++breaks_received_;
  if (auto req = Parse<PathArgs>(args)) {
    status_cache_.erase(req->path);
    auto file = file_cache_.find(req->path);
    if (file != file_cache_.end()) file->second.valid = false;
  }
  co_return Buf{};
}

sim::Task<VfsResult<AfsClient::CachedStatus>> AfsClient::FetchStatus(
    std::string path) {
  auto cached = status_cache_.find(path);
  if (cached != status_cache_.end()) {
    ++status_hits_;
    co_return cached->second;
  }
  rpc::CallOptions opts = AfsRpc();
  opts.label = "FETCHSTATUS";
  Buf args = Serialize(PathArgs{path});
  auto reply = co_await node_.Call(server_, kAfsProgram, kFetchStatus, std::move(args),
                                   std::move(opts));
  if (!reply) co_return Unexpected(Status::kIo);
  auto res = Parse<FetchStatusRes>(*reply);
  if (!res) co_return Unexpected(Status::kIo);
  CachedStatus result;
  if (res->status == Status::kOk) {
    result.exists = true;
    result.attr = res->attr;
  } else if (res->status != Status::kNoEnt) {
    co_return Unexpected(res->status);
  }
  status_cache_[path] = result;  // positive or negative, promise-backed
  co_return result;
}

sim::Task<VfsResult<Fd>> AfsClient::Open(std::string path, OpenFlags flags) {
  auto status = co_await FetchStatus(path);
  if (!status) co_return Unexpected(status.error());

  if (!status->exists) {
    if (!flags.create) co_return Unexpected(Status::kNoEnt);
    Buf args = Serialize(PathArgs{path});
    auto created = co_await StatusOp(&node_, server_, kCreateFile, std::move(args), "CREATE");
    if (!created) co_return Unexpected(created.error());
    status_cache_.erase(path);
    file_cache_[path] = CachedFile{{}, true};
  } else if (flags.exclusive && flags.create) {
    co_return Unexpected(Status::kExist);
  } else {
    // Whole-file fetch on open (unless the cached copy is still promised).
    auto cached = file_cache_.find(path);
    if (cached == file_cache_.end() || !cached->second.valid) {
      rpc::CallOptions opts = AfsRpc();
      opts.label = "FETCHDATA";
      Buf args = Serialize(PathArgs{path});
      auto reply = co_await node_.Call(server_, kAfsProgram, kFetchData, std::move(args),
                                       std::move(opts));
      if (!reply) co_return Unexpected(Status::kIo);
      auto res = Parse<FetchDataRes>(*reply);
      if (!res) co_return Unexpected(Status::kIo);
      if (res->status != Status::kOk) co_return Unexpected(res->status);
      file_cache_[path] = CachedFile{std::move(res->data), true};
    }
  }

  if (flags.truncate) {
    file_cache_[path].data = Buf();
  }
  const Fd fd = next_fd_++;
  open_files_[fd] = OpenFile{path, flags.write, flags.truncate};
  co_return fd;
}

sim::Task<VfsResult<void>> AfsClient::Close(Fd fd) {
  auto it = open_files_.find(fd);
  if (it == open_files_.end()) co_return Unexpected(Status::kInval);
  OpenFile file = it->second;
  open_files_.erase(it);
  if (file.dirty) {
    // Store-on-close: ship the whole file back.
    Buf args = Serialize(StoreDataArgs{file.path, file_cache_[file.path].data});
    auto stored = co_await StatusOp(&node_, server_, kStoreData, std::move(args),
                                    "STOREDATA");
    status_cache_.erase(file.path);  // size/mtime changed, or the store failed
    if (!stored) co_return Unexpected(stored.error());
  }
  co_return Ok{};
}

sim::Task<VfsResult<Bytes>> AfsClient::Read(Fd fd, std::uint64_t offset,
                                            std::uint32_t count) {
  auto it = open_files_.find(fd);
  if (it == open_files_.end()) co_return Unexpected(Status::kInval);
  const Buf& data = file_cache_[it->second.path].data;
  if (offset >= data.size()) co_return Bytes{};
  const std::uint64_t end = std::min<std::uint64_t>(offset + count, data.size());
  co_return Bytes(data.begin() + static_cast<std::ptrdiff_t>(offset),
                  data.begin() + static_cast<std::ptrdiff_t>(end));
}

sim::Task<VfsResult<std::uint32_t>> AfsClient::Write(Fd fd, std::uint64_t offset,
                                                     const Bytes& data) {
  auto it = open_files_.find(fd);
  if (it == open_files_.end()) co_return Unexpected(Status::kInval);
  if (!it->second.writable) co_return Unexpected(Status::kAccess);
  file_cache_[it->second.path].data.Write(offset, data);
  it->second.dirty = true;
  co_return static_cast<std::uint32_t>(data.size());
}

sim::Task<VfsResult<nfs3::Fattr>> AfsClient::Stat(std::string path) {
  auto status = co_await FetchStatus(std::move(path));
  if (!status) co_return Unexpected(status.error());
  if (!status->exists) co_return Unexpected(Status::kNoEnt);
  co_return status->attr;
}

sim::Task<VfsResult<bool>> AfsClient::Exists(std::string path) {
  auto status = co_await FetchStatus(std::move(path));
  if (!status) co_return Unexpected(status.error());
  co_return status->exists;
}

sim::Task<VfsResult<void>> AfsClient::Unlink(std::string path) {
  status_cache_.erase(path);
  file_cache_.erase(path);
  Buf args = Serialize(PathArgs{path});
  co_return co_await StatusOp(&node_, server_, kRemoveFile, std::move(args), "REMOVE");
}

sim::Task<VfsResult<void>> AfsClient::Mkdir(std::string path) {
  Buf args = Serialize(PathArgs{path});
  co_return co_await StatusOp(&node_, server_, kMakeDir, std::move(args), "MKDIR");
}

sim::Task<VfsResult<void>> AfsClient::Rmdir(std::string path) {
  status_cache_.erase(path);
  Buf args = Serialize(PathArgs{path});
  co_return co_await StatusOp(&node_, server_, kRemoveDir, std::move(args), "RMDIR");
}

sim::Task<VfsResult<void>> AfsClient::Link(std::string target_path,
                                           std::string new_path) {
  status_cache_.erase(new_path);
  Buf args = Serialize(LinkArgs{target_path, new_path});
  co_return co_await StatusOp(&node_, server_, kHardLink, std::move(args), "LINK");
}

sim::Task<VfsResult<void>> AfsClient::Rename(std::string, std::string) {
  co_return Unexpected(Status::kNotSupp);
}

sim::Task<VfsResult<std::vector<std::string>>> AfsClient::ReadDir(
    const std::string& path) {
  rpc::CallOptions opts = AfsRpc();
  opts.label = "LISTDIR";
  Buf args = Serialize(PathArgs{path});
  auto reply = co_await node_.Call(server_, kAfsProgram, kListDir, std::move(args),
                                   std::move(opts));
  if (!reply) co_return Unexpected(Status::kIo);
  auto res = Parse<ListDirRes>(*reply);
  if (!res) co_return Unexpected(Status::kIo);
  if (res->status != Status::kOk) co_return Unexpected(res->status);
  co_return std::move(res->names);
}

}  // namespace gvfs::afs
