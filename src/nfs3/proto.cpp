#include "nfs3/proto.h"

namespace gvfs::nfs3 {

const char* ProcName(std::uint32_t proc) {
  switch (proc) {
    case kNull:
      return "NULL";
    case kGetAttr:
      return "GETATTR";
    case kSetAttr:
      return "SETATTR";
    case kLookup:
      return "LOOKUP";
    case kAccess:
      return "ACCESS";
    case kRead:
      return "READ";
    case kWrite:
      return "WRITE";
    case kCreate:
      return "CREATE";
    case kMkdir:
      return "MKDIR";
    case kRemove:
      return "REMOVE";
    case kRmdir:
      return "RMDIR";
    case kRename:
      return "RENAME";
    case kLink:
      return "LINK";
    case kReadDir:
      return "READDIR";
    case kFsStat:
      return "FSSTAT";
    case kCommit:
      return "COMMIT";
  }
  return "UNKNOWN";
}

const char* StatusName(Status s) {
  switch (s) {
    case Status::kOk:
      return "NFS3_OK";
    case Status::kPerm:
      return "NFS3ERR_PERM";
    case Status::kNoEnt:
      return "NFS3ERR_NOENT";
    case Status::kIo:
      return "NFS3ERR_IO";
    case Status::kAccess:
      return "NFS3ERR_ACCES";
    case Status::kExist:
      return "NFS3ERR_EXIST";
    case Status::kNotDir:
      return "NFS3ERR_NOTDIR";
    case Status::kIsDir:
      return "NFS3ERR_ISDIR";
    case Status::kInval:
      return "NFS3ERR_INVAL";
    case Status::kNotEmpty:
      return "NFS3ERR_NOTEMPTY";
    case Status::kStale:
      return "NFS3ERR_STALE";
    case Status::kBadHandle:
      return "NFS3ERR_BADHANDLE";
    case Status::kNotSupp:
      return "NFS3ERR_NOTSUPP";
    case Status::kServerFault:
      return "NFS3ERR_SERVERFAULT";
  }
  return "?";
}

Status FromFsError(memfs::FsError e) {
  switch (e) {
    case memfs::FsError::kNoEnt:
      return Status::kNoEnt;
    case memfs::FsError::kExist:
      return Status::kExist;
    case memfs::FsError::kNotDir:
      return Status::kNotDir;
    case memfs::FsError::kIsDir:
      return Status::kIsDir;
    case memfs::FsError::kNotEmpty:
      return Status::kNotEmpty;
    case memfs::FsError::kStale:
      return Status::kStale;
    case memfs::FsError::kInval:
      return Status::kInval;
  }
  return Status::kServerFault;
}

// Fattr rides in nearly every reply, so its fixed 60-byte layout is encoded
// and decoded through one reserved window — a single capacity/bounds check
// for all ten fields. Wire format is identical to per-field Puts/Gets.
void Fattr::Encode(xdr::Encoder& enc) const {
  std::uint8_t* p = enc.Reserve(kXdrSize);
  xdr::Encoder::StoreBe32(p, static_cast<std::uint32_t>(type));
  xdr::Encoder::StoreBe32(p + 4, mode);
  xdr::Encoder::StoreBe32(p + 8, nlink);
  xdr::Encoder::StoreBe32(p + 12, uid);
  xdr::Encoder::StoreBe32(p + 16, gid);
  xdr::Encoder::StoreBe64(p + 20, size);
  xdr::Encoder::StoreBe64(p + 28, fileid);
  xdr::Encoder::StoreBe64(p + 36, static_cast<std::uint64_t>(atime));
  xdr::Encoder::StoreBe64(p + 44, static_cast<std::uint64_t>(mtime));
  xdr::Encoder::StoreBe64(p + 52, static_cast<std::uint64_t>(ctime));
}

DecodeResult<Fattr> Fattr::Decode(xdr::Decoder& dec) {
  const std::uint8_t* p = dec.GetRaw(kXdrSize);
  if (p == nullptr) return Unexpected(xdr::DecodeError::kTruncated);
  Fattr out;
  out.type = static_cast<FType>(xdr::Decoder::LoadBe32(p));
  out.mode = xdr::Decoder::LoadBe32(p + 4);
  out.nlink = xdr::Decoder::LoadBe32(p + 8);
  out.uid = xdr::Decoder::LoadBe32(p + 12);
  out.gid = xdr::Decoder::LoadBe32(p + 16);
  out.size = xdr::Decoder::LoadBe64(p + 20);
  out.fileid = xdr::Decoder::LoadBe64(p + 28);
  out.atime = static_cast<SimTime>(xdr::Decoder::LoadBe64(p + 36));
  out.mtime = static_cast<SimTime>(xdr::Decoder::LoadBe64(p + 44));
  out.ctime = static_cast<SimTime>(xdr::Decoder::LoadBe64(p + 52));
  return out;
}

Fattr ToFattr(const memfs::InodeAttr& attr) {
  Fattr out;
  out.type = attr.type == memfs::FileType::kDirectory ? FType::kDir : FType::kReg;
  out.mode = attr.mode;
  out.nlink = attr.nlink;
  out.uid = attr.uid;
  out.gid = attr.gid;
  out.size = attr.size;
  out.fileid = attr.fileid;
  out.atime = attr.atime;
  out.mtime = attr.mtime;
  out.ctime = attr.ctime;
  return out;
}

}  // namespace gvfs::nfs3
