// NFSv3-style protocol: procedure numbers, status codes, file handles,
// attributes, and per-procedure argument/result structs, each listing its
// XDR fields once (xdr::Writer/Reader run the list both ways).
//
// This mirrors the subset of RFC 1813 the paper's workloads exercise
// (GETATTR/LOOKUP/ACCESS/READ/WRITE/CREATE/MKDIR/REMOVE/RMDIR/RENAME/LINK/
// READDIR/FSSTAT/COMMIT/SETATTR). Replies carry post-op attributes, which the
// kernel-client emulation uses to refresh its attribute cache exactly as a
// real NFS client does.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/expected.h"
#include "common/flat_map.h"
#include "common/types.h"
#include "memfs/memfs.h"
#include "xdr/xdr.h"

namespace gvfs::nfs3 {

constexpr std::uint32_t kProgram = 100003;

enum Proc : std::uint32_t {
  kNull = 0,
  kGetAttr = 1,
  kSetAttr = 2,
  kLookup = 3,
  kAccess = 4,
  kRead = 6,
  kWrite = 7,
  kCreate = 8,
  kMkdir = 9,
  kRemove = 12,
  kRmdir = 13,
  kRename = 14,
  kLink = 15,
  kReadDir = 16,
  kFsStat = 18,
  kCommit = 21,
};

const char* ProcName(std::uint32_t proc);

enum class Status : std::uint32_t {
  kOk = 0,
  kPerm = 1,
  kNoEnt = 2,
  kIo = 5,
  kAccess = 13,
  kExist = 17,
  kNotDir = 20,
  kIsDir = 21,
  kInval = 22,
  kNotEmpty = 66,
  kStale = 70,
  kBadHandle = 10001,
  kNotSupp = 10004,
  kServerFault = 10006,
};

const char* StatusName(Status s);
Status FromFsError(memfs::FsError e);

/// Decode failures become kGarbage at the call site.
using xdr::DecodeError;
template <typename T>
using DecodeResult = Expected<T, DecodeError>;

/// NFS file handle: opaque to clients. Here: filesystem id + inode number
/// (inode numbers are never reused by MemFs, so deleted files yield ESTALE).
struct Fh {
  std::uint64_t fsid = 0;
  std::uint64_t ino = 0;

  bool valid() const { return ino != 0; }
  static void Xdr(auto& io, auto& m) { io(m.fsid, m.ino); }

  friend bool operator==(const Fh&, const Fh&) = default;
  friend auto operator<=>(const Fh&, const Fh&) = default;
};

/// Hash for FlatMap tables keyed by file handle. Deliberately not the
/// shard hash (proxy::ShardOf): a shard's table holds only the handles whose
/// shard hash agrees modulo the shard count, and reusing it would leave
/// those low bits constant in the table index.
struct FhHash {
  std::uint64_t operator()(const Fh& fh) const {
    return MixHash64(fh.ino + fh.fsid * 0x9e3779b97f4a7c15ULL);
  }
};

enum class FType : std::uint32_t { kReg = 1, kDir = 2 };

struct Fattr {
  FType type = FType::kReg;
  std::uint32_t mode = 0;
  std::uint32_t nlink = 1;
  std::uint32_t uid = 0;
  std::uint32_t gid = 0;
  std::uint64_t size = 0;
  std::uint64_t fileid = 0;
  SimTime atime = 0;
  SimTime mtime = 0;
  SimTime ctime = 0;

  /// Hand-written: one fused 60-byte window instead of ten field writes.
  static constexpr std::size_t kXdrSize = 60;
  void Encode(xdr::Encoder& enc) const;
  static DecodeResult<Fattr> Decode(xdr::Decoder& dec);

  friend bool operator==(const Fattr&, const Fattr&) = default;
};

Fattr ToFattr(const memfs::InodeAttr& attr);

/// post_op_attr: optionally present attributes in replies.
using PostOpAttr = std::optional<Fattr>;

// ---------------------------------------------------------------------------
// Per-procedure messages. Each struct lists its wire fields once, in order,
// in a static Xdr(io, m); results carry a Status plus whatever post-op
// attributes the real protocol returns.
// ---------------------------------------------------------------------------

struct GetAttrArgs {
  Fh object;
  static void Xdr(auto& io, auto& m) { io(m.object); }
};

struct GetAttrRes {
  Status status = Status::kOk;
  Fattr attr;
  static void Xdr(auto& io, auto& m) {
    io(m.status);
    if (m.status == Status::kOk) io(m.attr);
  }
};

struct SetAttrArgs {
  Fh object;
  std::optional<std::uint32_t> mode;
  std::optional<std::uint64_t> size;
  std::optional<SimTime> mtime;
  static void Xdr(auto& io, auto& m) { io(m.object, m.mode, m.size, m.mtime); }
};

struct SetAttrRes {
  Status status = Status::kOk;
  PostOpAttr attr;
  static void Xdr(auto& io, auto& m) { io(m.status, m.attr); }
};

struct LookupArgs {
  Fh dir;
  std::string name;
  static void Xdr(auto& io, auto& m) { io(m.dir, m.name); }
};

struct LookupRes {
  Status status = Status::kOk;
  Fh object;
  PostOpAttr obj_attr;
  PostOpAttr dir_attr;
  static void Xdr(auto& io, auto& m) {
    io(m.status);
    if (m.status == Status::kOk) io(m.object);
    io(m.obj_attr, m.dir_attr);
  }
};

struct AccessArgs {
  Fh object;
  std::uint32_t access = 0;
  static void Xdr(auto& io, auto& m) { io(m.object, m.access); }
};

struct AccessRes {
  Status status = Status::kOk;
  PostOpAttr attr;
  std::uint32_t access = 0;
  static void Xdr(auto& io, auto& m) { io(m.status, m.attr, m.access); }
};

struct ReadArgs {
  Fh file;
  std::uint64_t offset = 0;
  std::uint32_t count = 0;
  static void Xdr(auto& io, auto& m) { io(m.file, m.offset, m.count); }
};

struct ReadRes {
  Status status = Status::kOk;
  PostOpAttr attr;
  std::uint32_t count = 0;
  bool eof = false;
  Buf data;
  static void Xdr(auto& io, auto& m) {
    io(m.status, m.attr);
    if (m.status == Status::kOk) io(m.count, m.eof, m.data);
  }
};

enum class StableHow : std::uint32_t { kUnstable = 0, kDataSync = 1, kFileSync = 2 };

struct WriteArgs {
  Fh file;
  std::uint64_t offset = 0;
  StableHow stable = StableHow::kUnstable;
  Buf data;
  static void Xdr(auto& io, auto& m) { io(m.file, m.offset, m.stable, m.data); }
};

struct WriteRes {
  Status status = Status::kOk;
  PostOpAttr attr;
  std::uint32_t count = 0;
  StableHow committed = StableHow::kFileSync;
  static void Xdr(auto& io, auto& m) {
    io(m.status, m.attr);
    if (m.status == Status::kOk) io(m.count, m.committed);
  }
};

struct CreateArgs {
  Fh dir;
  std::string name;
  std::uint32_t mode = 0644;
  bool exclusive = false;  // guarded/exclusive create: fail if name exists
  static void Xdr(auto& io, auto& m) { io(m.dir, m.name, m.mode, m.exclusive); }
};

struct CreateRes {
  Status status = Status::kOk;
  Fh object;
  PostOpAttr obj_attr;
  PostOpAttr dir_attr;
  static void Xdr(auto& io, auto& m) {
    io(m.status);
    if (m.status == Status::kOk) io(m.object);
    io(m.obj_attr, m.dir_attr);
  }
};

using MkdirArgs = CreateArgs;
using MkdirRes = CreateRes;

struct RemoveArgs {
  Fh dir;
  std::string name;
  static void Xdr(auto& io, auto& m) { io(m.dir, m.name); }
};

struct RemoveRes {
  Status status = Status::kOk;
  PostOpAttr dir_attr;
  static void Xdr(auto& io, auto& m) { io(m.status, m.dir_attr); }
};

using RmdirArgs = RemoveArgs;
using RmdirRes = RemoveRes;

struct RenameArgs {
  Fh from_dir;
  std::string from_name;
  Fh to_dir;
  std::string to_name;
  static void Xdr(auto& io, auto& m) { io(m.from_dir, m.from_name, m.to_dir, m.to_name); }
};

struct RenameRes {
  Status status = Status::kOk;
  PostOpAttr from_dir_attr;
  PostOpAttr to_dir_attr;
  static void Xdr(auto& io, auto& m) { io(m.status, m.from_dir_attr, m.to_dir_attr); }
};

struct LinkArgs {
  Fh file;
  Fh dir;
  std::string name;
  static void Xdr(auto& io, auto& m) { io(m.file, m.dir, m.name); }
};

struct LinkRes {
  Status status = Status::kOk;
  PostOpAttr file_attr;
  PostOpAttr dir_attr;
  static void Xdr(auto& io, auto& m) { io(m.status, m.file_attr, m.dir_attr); }
};

struct ReadDirArgs {
  Fh dir;
  std::uint64_t cookie = 0;
  std::uint32_t max_entries = 256;
  static void Xdr(auto& io, auto& m) { io(m.dir, m.cookie, m.max_entries); }
};

struct ReadDirEntry {
  std::uint64_t fileid = 0;
  std::string name;
  std::uint64_t cookie = 0;
  static void Xdr(auto& io, auto& m) { io(m.fileid, m.name, m.cookie); }
};

struct ReadDirRes {
  Status status = Status::kOk;
  PostOpAttr dir_attr;
  std::vector<ReadDirEntry> entries;
  bool eof = false;
  static void Xdr(auto& io, auto& m) {
    io(m.status, m.dir_attr);
    if (m.status == Status::kOk) io(m.entries, m.eof);
  }
};

struct FsStatArgs {
  Fh root;
  static void Xdr(auto& io, auto& m) { io(m.root); }
};

struct FsStatRes {
  Status status = Status::kOk;
  std::uint64_t total_bytes = 0;
  std::uint64_t used_bytes = 0;
  std::uint64_t total_files = 0;
  static void Xdr(auto& io, auto& m) {
    io(m.status);
    if (m.status == Status::kOk) io(m.total_bytes, m.used_bytes, m.total_files);
  }
};

struct CommitArgs {
  Fh file;
  std::uint64_t offset = 0;
  std::uint32_t count = 0;
  static void Xdr(auto& io, auto& m) { io(m.file, m.offset, m.count); }
};

struct CommitRes {
  Status status = Status::kOk;
  PostOpAttr attr;
  static void Xdr(auto& io, auto& m) { io(m.status, m.attr); }
};

/// Serializes any message with a field list. A message that carries a
/// payload is encoded at its exact size, so a block sliced out of it pins
/// little more than its own bytes.
template <typename T>
Buf Serialize(const T& msg) {
  xdr::Sizer sizer;
  sizer(msg);
  xdr::Encoder enc(sizer.size(), /*exact=*/sizer.payload() > 0);
  xdr::Writer{enc}(msg);
  return enc.Take();
}

/// Parses a message; returns nullopt on any decode error. Accepts the body
/// as a Buf (payload fields become slices of it, rpc::Body is one), Bytes or
/// any view (payload fields are copied), and ignores trailing bytes (a
/// delegation grant suffix rides behind replies).
template <typename T, typename Body>
std::optional<T> Parse(const Body& body) {
  xdr::Decoder dec(body);
  xdr::Reader in(dec);
  T msg;
  in(msg);
  if (!in.ok()) return std::nullopt;
  return msg;
}

/// A status-only failure reply of any result type.
template <typename Res>
Buf FailWith(Status status) {
  Res res;
  res.status = status;
  return Serialize(res);
}

}  // namespace gvfs::nfs3
