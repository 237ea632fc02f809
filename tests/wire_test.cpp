// Golden wire table: the exact XDR bytes of every NFSv3, GVFS and AFS
// message, one populated value per message plus each branch its layout has
// (error status, absent optional, no wanted offset, empty and non-empty
// arrays). For each value the table checks that
//   - it encodes to the pinned bytes,
//   - decoding those bytes gives a message that encodes to the same bytes,
//   - every strict prefix of the bytes is rejected, and
//   - the bytes followed by a delegation grant suffix still decode, because
//     the suffix rides behind NFS replies.
// NFSv3 and GVFS messages go through nfs3::Serialize/Parse. AFS messages are
// checked where they are used: the bytes the AFS client and server put on
// the wire, and how each side answers a truncated or suffixed copy.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "afs/afs.h"
#include "gvfs/proto.h"
#include "nfs3/proto.h"
#include "test_util.h"

namespace gvfs {
namespace {

using nfs3::Fattr;
using nfs3::Fh;
using nfs3::Status;

std::string Hex(ByteView bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

/// Hex digits to bytes; spaces separate fields for the reader.
Bytes Unhex(const std::string& hex) {
  std::string digits;
  for (char c : hex) {
    if (c != ' ') digits += c;
  }
  Bytes out;
  for (std::size_t i = 0; i + 1 < digits.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(std::stoi(digits.substr(i, 2), nullptr, 16)));
  }
  return out;
}

Bytes WithGrantSuffix(const Bytes& bytes) {
  Buf body = bytes;
  proxy::GrantSuffix{proxy::DelegationType::kWrite}.AppendTo(body);
  return body.ToBytes();
}

// ---------------------------------------------------------------------------
// NFSv3 and GVFS
// ---------------------------------------------------------------------------

Fattr FileAttr() {
  Fattr a;
  a.type = nfs3::FType::kReg;
  a.mode = 0644;
  a.nlink = 1;
  a.uid = 10;
  a.gid = 20;
  a.size = 5;
  a.fileid = 7;
  a.atime = 1000;
  a.mtime = 2000;
  a.ctime = 3000;
  return a;
}

Fattr DirAttr() {
  Fattr a;
  a.type = nfs3::FType::kDir;
  a.mode = 0755;
  a.nlink = 2;
  a.size = 4096;
  a.fileid = 1;
  a.mtime = 9;
  return a;
}

const std::string kFileAttr =
    "00000001 000001a4 00000001 0000000a 00000014 0000000000000005 "
    "0000000000000007 00000000000003e8 00000000000007d0 0000000000000bb8 ";
const std::string kDirAttr =
    "00000002 000001ed 00000002 00000000 00000000 0000000000001000 "
    "0000000000000001 0000000000000000 0000000000000009 0000000000000000 ";
const Fh kFile{3, 7};
const std::string kFileFh = "0000000000000003 0000000000000007 ";
const Fh kDir{3, 1};
const std::string kDirFh = "0000000000000003 0000000000000001 ";
const std::string kOk = "00000000 ";
const std::string kPresent = "00000001 ";
const std::string kAbsent = "00000000 ";

struct Golden {
  std::string name;
  std::string hex;
  Bytes encoded;
  /// Decodes the bytes and re-encodes the result; nullopt when rejected.
  std::function<std::optional<Bytes>(ByteView)> reencode;
};

template <typename T>
Golden Row(std::string name, const T& msg, std::string hex) {
  return Golden{std::move(name), std::move(hex), nfs3::Serialize(msg).ToBytes(),
                [](ByteView bytes) -> std::optional<Bytes> {
                  auto parsed = nfs3::Parse<T>(bytes);
                  if (!parsed) return std::nullopt;
                  return nfs3::Serialize(*parsed).ToBytes();
                }};
}

std::vector<Golden> NfsTable() {
  using namespace nfs3;
  std::vector<Golden> t;
  t.push_back(Row("fh", kFile, kFileFh));

  t.push_back(Row("GETATTR args", GetAttrArgs{kFile}, kFileFh));
  t.push_back(Row("GETATTR res", GetAttrRes{Status::kOk, FileAttr()}, kOk + kFileAttr));
  t.push_back(Row("GETATTR res error", GetAttrRes{Status::kStale, FileAttr()}, "00000046"));

  SetAttrArgs setattr{kFile, 0600, 12, 345};
  t.push_back(Row("SETATTR args", setattr,
                  kFileFh + kPresent + "00000180 " + kPresent + "000000000000000c " +
                      kPresent + "0000000000000159"));
  t.push_back(Row("SETATTR args none", SetAttrArgs{kFile, {}, {}, {}},
                  kFileFh + kAbsent + kAbsent + kAbsent));
  t.push_back(Row("SETATTR res", SetAttrRes{Status::kOk, FileAttr()},
                  kOk + kPresent + kFileAttr));
  t.push_back(Row("SETATTR res error", SetAttrRes{Status::kPerm, {}}, "00000001" + kAbsent));

  t.push_back(Row("LOOKUP args", LookupArgs{kDir, "f"}, kDirFh + "00000001 66000000"));
  t.push_back(Row("LOOKUP res", LookupRes{Status::kOk, kFile, FileAttr(), DirAttr()},
                  kOk + kFileFh + kPresent + kFileAttr + kPresent + kDirAttr));
  t.push_back(Row("LOOKUP res error", LookupRes{Status::kNoEnt, kFile, {}, DirAttr()},
                  "00000002 " + kAbsent + kPresent + kDirAttr));

  t.push_back(Row("ACCESS args", AccessArgs{kFile, 0x1f}, kFileFh + "0000001f"));
  t.push_back(Row("ACCESS res", AccessRes{Status::kOk, FileAttr(), 0x3},
                  kOk + kPresent + kFileAttr + "00000003"));
  t.push_back(Row("ACCESS res error", AccessRes{Status::kAccess, {}, 0},
                  "0000000d " + kAbsent + "00000000"));

  t.push_back(Row("READ args", ReadArgs{kFile, 32768, 4096},
                  kFileFh + "0000000000008000 00001000"));
  t.push_back(Row("READ res", ReadRes{Status::kOk, FileAttr(), 5, true, Bytes{1, 2, 3, 4, 5}},
                  kOk + kPresent + kFileAttr + "00000005 00000001 00000005 0102030405000000"));
  t.push_back(Row("READ res error", ReadRes{Status::kIo, {}, 5, true, Bytes{1}},
                  "00000005 " + kAbsent));

  t.push_back(Row("WRITE args",
                  WriteArgs{kFile, 65536, StableHow::kFileSync, Bytes{9, 8, 7, 6, 5, 4}},
                  kFileFh + "0000000000010000 00000002 00000006 0908070605040000"));
  t.push_back(Row("WRITE res", WriteRes{Status::kOk, FileAttr(), 6, StableHow::kDataSync},
                  kOk + kPresent + kFileAttr + "00000006 00000001"));
  t.push_back(Row("WRITE res error", WriteRes{Status::kNotSupp, FileAttr(), 6, {}},
                  "00002714 " + kPresent + kFileAttr));

  t.push_back(Row("CREATE args", CreateArgs{kDir, "name", 0600, true},
                  kDirFh + "00000004 6e616d65 00000180 00000001"));
  t.push_back(Row("CREATE res", CreateRes{Status::kOk, kFile, FileAttr(), DirAttr()},
                  kOk + kFileFh + kPresent + kFileAttr + kPresent + kDirAttr));
  t.push_back(Row("CREATE res error", CreateRes{Status::kExist, kFile, {}, {}},
                  "00000011 " + kAbsent + kAbsent));

  t.push_back(Row("REMOVE args", RemoveArgs{kDir, "gone"}, kDirFh + "00000004 676f6e65"));
  t.push_back(Row("REMOVE res", RemoveRes{Status::kOk, DirAttr()}, kOk + kPresent + kDirAttr));
  t.push_back(Row("REMOVE res error", RemoveRes{Status::kNotEmpty, {}}, "00000042 " + kAbsent));

  t.push_back(Row("RENAME args", RenameArgs{kDir, "from", Fh{3, 2}, "to"},
                  kDirFh + "00000004 66726f6d 0000000000000003 0000000000000002 "
                           "00000002 746f0000"));
  t.push_back(Row("RENAME res", RenameRes{Status::kOk, DirAttr(), FileAttr()},
                  kOk + kPresent + kDirAttr + kPresent + kFileAttr));
  t.push_back(Row("RENAME res error", RenameRes{Status::kNotDir, {}, DirAttr()},
                  "00000014 " + kAbsent + kPresent + kDirAttr));

  t.push_back(Row("LINK args", LinkArgs{kFile, kDir, "ln"},
                  kFileFh + kDirFh + "00000002 6c6e0000"));
  t.push_back(Row("LINK res", LinkRes{Status::kOk, FileAttr(), DirAttr()},
                  kOk + kPresent + kFileAttr + kPresent + kDirAttr));
  t.push_back(Row("LINK res error", LinkRes{Status::kIsDir, DirAttr(), {}},
                  "00000015 " + kPresent + kDirAttr + kAbsent));

  t.push_back(Row("READDIR args", ReadDirArgs{kDir, 17, 64},
                  kDirFh + "0000000000000011 00000040"));
  t.push_back(Row("READDIR res",
                  ReadDirRes{Status::kOk, DirAttr(), {{7, "a", 1}, {8, "bcdef", 2}}, true},
                  kOk + kPresent + kDirAttr + "00000002 " +
                      "0000000000000007 00000001 61000000 0000000000000001 " +
                      "0000000000000008 00000005 6263646566000000 0000000000000002 " +
                      "00000001"));
  t.push_back(Row("READDIR res empty", ReadDirRes{Status::kOk, {}, {}, false},
                  kOk + kAbsent + "00000000 00000000"));
  t.push_back(Row("READDIR res error", ReadDirRes{Status::kBadHandle, DirAttr(), {}, true},
                  "00002711 " + kPresent + kDirAttr));

  t.push_back(Row("FSSTAT args", FsStatArgs{kDir}, kDirFh));
  t.push_back(Row("FSSTAT res", FsStatRes{Status::kOk, 1 << 20, 1 << 10, 99},
                  kOk + "0000000000100000 0000000000000400 0000000000000063"));
  t.push_back(Row("FSSTAT res error", FsStatRes{Status::kServerFault, 1, 2, 3}, "00002716"));

  t.push_back(Row("COMMIT args", CommitArgs{kFile, 4096, 8192},
                  kFileFh + "0000000000001000 00002000"));
  t.push_back(Row("COMMIT res", CommitRes{Status::kOk, FileAttr()}, kOk + kPresent + kFileAttr));
  t.push_back(Row("COMMIT res error", CommitRes{Status::kInval, {}}, "00000016 " + kAbsent));
  return t;
}

std::vector<Golden> GvfsTable() {
  using namespace proxy;
  std::vector<Golden> t;
  t.push_back(Row("GETINV args", GetInvArgs{1234}, "00000000000004d2"));
  t.push_back(Row("GETINV res", GetInvRes{1240, false, true, {kFile, kDir}},
                  "00000000000004d8 00000000 00000001 00000002 " + kFileFh + kDirFh));
  t.push_back(Row("GETINV res empty", GetInvRes{1, true, false, {}},
                  "0000000000000001 00000001 00000000 00000000"));
  t.push_back(Row("NOTIFYINV args", NotifyInvArgs{kFile, 4, 2049},
                  kFileFh + "00000004 00000801"));
  t.push_back(Row("NOTIFYINV res", NotifyInvRes{}, ""));
  t.push_back(Row("MIGRATE args", MigrateArgs{kFile, 0, 2}, kFileFh + "00000000 00000002"));
  t.push_back(Row("MIGRATE res", MigrateRes{0, 3, 1}, "00000000 00000003 00000001"));
  t.push_back(Row("CALLBACK args", CallbackArgs{kFile, CallbackType::kRecallWrite, 65536, true},
                  kFileFh + "00000002 00000001 0000000000010000"));
  t.push_back(Row("CALLBACK args no wanted offset",
                  CallbackArgs{kFile, CallbackType::kRecallRead, 0, false},
                  kFileFh + "00000001 00000000"));
  t.push_back(Row("CALLBACK res", CallbackRes{{0, 32768}, 40000},
                  "00000002 0000000000000000 0000000000008000 0000000000009c40"));
  t.push_back(Row("CALLBACK res empty", CallbackRes{{}, 0}, "00000000 0000000000000000"));
  t.push_back(Row("RECOVERY args", RecoveryArgs{}, ""));
  t.push_back(Row("RECOVERY res", RecoveryRes{{kFile}}, "00000001 " + kFileFh));
  t.push_back(Row("RECOVERY res empty", RecoveryRes{{}}, "00000000"));
  return t;
}

void CheckRow(const Golden& row) {
  SCOPED_TRACE(row.name);
  const Bytes wire = Unhex(row.hex);
  ASSERT_EQ(Hex(row.encoded), Hex(wire));
  EXPECT_EQ(row.reencode(wire), std::optional<Bytes>(wire));
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(row.reencode(ByteView(wire.data(), len)).has_value())
        << "accepted a " << len << "-byte prefix";
  }
  EXPECT_EQ(row.reencode(WithGrantSuffix(wire)), std::optional<Bytes>(wire));
}

TEST(WireGolden, EveryNfsMessageEncodesToItsGoldenBytes) {
  for (const Golden& row : NfsTable()) CheckRow(row);
}

TEST(WireGolden, EveryGvfsMessageEncodesToItsGoldenBytes) {
  for (const Golden& row : GvfsTable()) CheckRow(row);
}

// ---------------------------------------------------------------------------
// wire_size: what each message costs the simulated link
// ---------------------------------------------------------------------------

/// What an RPC handler returns.
using HandlerReply = rpc::Handler::result_type;

HandlerReply AnswerWith(Bytes reply) { co_return reply; }

/// Sends each row's bytes once as a call and once as a reply between two
/// nodes over a WAN link, and checks what the link carried each way: the
/// 40-byte call or 12-byte reply header, the body's 4-byte length, the body
/// padded to 4 bytes, and 100 bytes of UDP/IP and AUTH_SYS overhead. The
/// body arrives byte for byte.
void CheckWireSizes(const std::vector<Golden>& table) {
  constexpr std::uint32_t kProg = 0x20000001;
  for (const Golden& row : table) {
    SCOPED_TRACE(row.name);
    sim::Scheduler sched;
    net::Network network(sched);
    rpc::Domain domain(sched, network);
    const HostId a = network.AddHost("a");
    const HostId b = network.AddHost("b");
    network.Connect(a, b, net::LinkConfig{Milliseconds(20), 4'000'000});
    rpc::RpcNode& caller = domain.CreateNode(a, 1, "caller");
    rpc::RpcNode& callee = domain.CreateNode(b, 1, "callee");
    const Bytes wire = Unhex(row.hex);
    Bytes received;
    callee.RegisterHandler(kProg, 1,
                           [wire, &received](rpc::CallContext, rpc::Body args) {
                             received.assign(args.data(), args.data() + args.size());
                             return AnswerWith(wire);
                           });
    auto reply = testutil::RunTask(
        sched, caller.Call(callee.address(), kProg, 1, wire, rpc::CallOptions{}));
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(Hex(received), Hex(wire));
    EXPECT_EQ(Hex(*reply), Hex(wire));
    const std::uint64_t padded = (wire.size() + 3) & ~std::uint64_t{3};
    EXPECT_EQ(network.StatsFor(a, b).packets, 1u);
    EXPECT_EQ(network.StatsFor(a, b).bytes, 40 + 4 + padded + 100);
    EXPECT_EQ(network.StatsFor(b, a).packets, 1u);
    EXPECT_EQ(network.StatsFor(b, a).bytes, 12 + 4 + padded + 100);
  }
}

TEST(WireGolden, EveryNfsMessageCostsItsWireSize) { CheckWireSizes(NfsTable()); }

TEST(WireGolden, EveryGvfsMessageCostsItsWireSize) { CheckWireSizes(GvfsTable()); }

// ---------------------------------------------------------------------------
// AFS
// ---------------------------------------------------------------------------

constexpr kclient::OpenFlags kReadOnly{};
constexpr kclient::OpenFlags kReadWrite{.read = true, .write = true};
constexpr kclient::OpenFlags kCreateWrite{.read = true, .write = true, .create = true};

/// A fresh AFS world per exchange: the real AfsServer over a memfs holding
/// /d/f ("hello") and the empty directory /e, the real AfsClient, and a raw
/// peer node. The peer calls the server with hand-made arguments and, as
/// the client's server, answers each procedure with a hand-made reply.
class AfsWorld {
 public:
  AfsWorld() : network_(sched_), domain_(sched_, network_), fs_(sched_.NowPtr()) {
    const HostId server = network_.AddHost("afsd");
    const HostId client = network_.AddHost("client");
    const HostId peer = network_.AddHost("peer");
    const net::LinkConfig lan{Milliseconds(1), 100'000'000};
    network_.Connect(server, client, lan);
    network_.Connect(server, peer, lan);
    network_.Connect(client, peer, lan);
    server_ = std::make_unique<afs::AfsServer>(sched_, fs_,
                                               domain_.CreateNode(server, 7000, "afsd"));
    peer_ = &domain_.CreateNode(peer, 7000, "peer");
    client_node_ = &domain_.CreateNode(client, 800, "client");
    client_ = std::make_unique<afs::AfsClient>(sched_, *client_node_, peer_->address());
    const auto d = fs_.Mkdir(fs_.root(), "d", 0755);
    const auto f = fs_.Create(*d, "f", 0644);
    (void)fs_.Write(*f, 0, Bytes{'h', 'e', 'l', 'l', 'o'});
    (void)fs_.Mkdir(fs_.root(), "e", 0755);
  }

  /// The peer calls the real server; returns the reply body.
  Bytes CallServer(std::uint32_t proc, Bytes args) {
    return Call(peer_, net::Address{0, 7000}, proc, std::move(args));
  }

  /// The peer answers `proc` with `reply` and records the arguments.
  void Answer(std::uint32_t proc, Bytes reply) {
    peer_->RegisterHandler(afs::kAfsProgram, proc,
                           [this, proc, reply](rpc::CallContext, rpc::Body args) {
                             return Reply(this, proc, args.ToBytes(), reply);
                           });
  }

  Bytes Call(rpc::RpcNode* from, net::Address to, std::uint32_t proc, Bytes args) {
    auto reply = testutil::RunTask(
        sched_, from->Call(to, afs::kAfsProgram, proc, std::move(args), rpc::CallOptions{}));
    EXPECT_TRUE(reply.has_value());
    return reply ? reply->ToBytes() : Bytes{};
  }

  sim::Scheduler& sched() { return sched_; }
  memfs::MemFs& fs() { return fs_; }
  afs::AfsClient& client() { return *client_; }
  rpc::RpcNode& client_node() { return *client_node_; }
  rpc::RpcNode& peer() { return *peer_; }
  std::map<std::uint32_t, Bytes>& received() { return received_; }

 private:
  static sim::Task<Buf> Reply(AfsWorld* world, std::uint32_t proc, Bytes args,
                              Bytes reply) {
    world->received_[proc] = std::move(args);
    co_return reply;
  }

  sim::Scheduler sched_;
  net::Network network_;
  rpc::Domain domain_;
  memfs::MemFs fs_;
  std::unique_ptr<afs::AfsServer> server_;
  rpc::RpcNode* peer_ = nullptr;
  rpc::RpcNode* client_node_ = nullptr;
  std::unique_ptr<afs::AfsClient> client_;
  std::map<std::uint32_t, Bytes> received_;
};

// Golden AFS bytes. Attributes are those memfs gives /d/f and /d at time 0.
const std::string kAfsFileAttr =
    "00000001 000001a4 00000001 00000000 00000000 0000000000000005 "
    "0000000000000003 0000000000000000 0000000000000000 0000000000000000 ";
const std::string kPathDF = "00000004 2f642f66 ";
const std::string kStatusOk = "00000000";
const std::string kFetchStatusOk = "00000000 " + kAfsFileAttr;
const std::string kFetchStatusNoEnt = "00000002";
const std::string kFetchDataOk = "00000000 " + kAfsFileAttr + "00000005 68656c6c6f000000";

/// One AFS request and the server's reply to it in a fresh world.
struct AfsExchange {
  std::string name;
  std::uint32_t proc;
  std::string args;
  std::string reply;
};

std::vector<AfsExchange> AfsTable() {
  return {
      {"FETCHSTATUS", afs::kFetchStatus, kPathDF, kFetchStatusOk},
      {"FETCHSTATUS noent", afs::kFetchStatus, "00000005 2f6e6f7065000000", kFetchStatusNoEnt},
      {"FETCHDATA", afs::kFetchData, kPathDF, kFetchDataOk},
      {"FETCHDATA noent", afs::kFetchData, "00000005 2f6e6f7065000000", "00000002"},
      {"STOREDATA", afs::kStoreData, kPathDF + "00000005 6162636c6f000000", kStatusOk},
      {"CREATE", afs::kCreateFile, "00000004 2f642f67", kStatusOk},
      {"REMOVE", afs::kRemoveFile, kPathDF, kStatusOk},
      {"LINK", afs::kHardLink, kPathDF + "00000004 2f642f68", kStatusOk},
      {"MKDIR", afs::kMakeDir, "00000002 2f780000", kStatusOk},
      {"RMDIR", afs::kRemoveDir, "00000002 2f650000", kStatusOk},
      {"RMDIR error", afs::kRemoveDir, "00000002 2f640000", "00000042"},
      {"LISTDIR", afs::kListDir, "00000002 2f640000", "00000000 00000001 00000001 66000000"},
      {"LISTDIR empty", afs::kListDir, "00000002 2f650000", "00000000 00000000"},
      {"LISTDIR noent", afs::kListDir, "00000005 2f6e6f7065000000", "00000002"},
  };
}

TEST(WireGolden, AfsServerRepliesWithGoldenBytes) {
  const std::string kInval = Hex(Unhex("00000016"));
  for (const AfsExchange& row : AfsTable()) {
    SCOPED_TRACE(row.name);
    const Bytes args = Unhex(row.args);
    EXPECT_EQ(Hex(AfsWorld().CallServer(row.proc, args)), Hex(Unhex(row.reply)));
    EXPECT_EQ(Hex(AfsWorld().CallServer(row.proc, WithGrantSuffix(args))),
              Hex(Unhex(row.reply)));
    for (std::size_t len = 0; len < args.size(); ++len) {
      EXPECT_EQ(Hex(AfsWorld().CallServer(row.proc, Bytes(args.begin(), args.begin() + len))),
                kInval)
          << "accepted a " << len << "-byte prefix";
    }
  }
}

/// One client operation, the requests it sends and the reply it must read.
struct AfsClientCase {
  std::string name;
  std::uint32_t proc;     // the request whose reply is under test
  std::string args;       // what the client sends for it
  std::string reply;      // what the peer answers
  bool parsed;            // whether the client reads the reply at all
  std::string outcome;    // the operation's result on the exact reply
  std::function<std::string(AfsWorld&)> run;
};

std::string StatusText(Status s) { return nfs3::StatusName(s); }

std::string RunStat(AfsWorld& w, const std::string& path) {
  auto attr = testutil::RunTask(w.sched(), w.client().Stat(path));
  if (!attr) return StatusText(attr.error());
  return "size " + std::to_string(attr->size) + " fileid " + std::to_string(attr->fileid);
}

std::string RunOp(AfsWorld& w, sim::Task<kclient::VfsResult<void>> op) {
  auto result = testutil::RunTask(w.sched(), std::move(op));
  return result ? "ok" : StatusText(result.error());
}

std::string RunList(AfsWorld& w) {
  auto names = testutil::RunTask(w.sched(), w.client().ReadDir("/d"));
  if (!names) return StatusText(names.error());
  std::string out;
  for (const auto& n : *names) out += (out.empty() ? "" : " ") + n;
  return out;
}

std::vector<AfsClientCase> AfsClientTable() {
  return {
      {"FETCHSTATUS", afs::kFetchStatus, kPathDF, kFetchStatusOk, true, "size 5 fileid 3",
       [](AfsWorld& w) { return RunStat(w, "/d/f"); }},
      {"FETCHSTATUS noent", afs::kFetchStatus, kPathDF, kFetchStatusNoEnt, true,
       "NFS3ERR_NOENT", [](AfsWorld& w) { return RunStat(w, "/d/f"); }},
      {"FETCHDATA", afs::kFetchData, kPathDF, kFetchDataOk, true, "hello",
       [](AfsWorld& w) -> std::string {
         auto fd = testutil::RunTask(w.sched(), w.client().Open("/d/f", kReadOnly));
         if (!fd) return StatusText(fd.error());
         auto data = testutil::RunTask(w.sched(), w.client().Read(*fd, 0, 100));
         return std::string(data->begin(), data->end());
       }},
      {"FETCHDATA noent", afs::kFetchData, kPathDF, "00000002", true, "NFS3ERR_NOENT",
       [](AfsWorld& w) -> std::string {
         auto fd = testutil::RunTask(w.sched(), w.client().Open("/d/f", kReadOnly));
         return fd ? "opened" : StatusText(fd.error());
       }},
      {"STOREDATA", afs::kStoreData, kPathDF + "00000005 6162636c6f000000", kStatusOk, false,
       "ok",
       [](AfsWorld& w) -> std::string {
         auto fd = testutil::RunTask(w.sched(), w.client().Open("/d/f", kReadWrite));
         if (!fd) return StatusText(fd.error());
         (void)testutil::RunTask(w.sched(), w.client().Write(*fd, 0, Bytes{'a', 'b', 'c'}));
         return RunOp(w, w.client().Close(*fd));
       }},
      {"CREATE", afs::kCreateFile, "00000004 2f642f67", kStatusOk, true, "ok",
       [](AfsWorld& w) -> std::string {
         auto fd = testutil::RunTask(w.sched(), w.client().Open("/d/g", kCreateWrite));
         return fd ? "ok" : StatusText(fd.error());
       }},
      {"REMOVE", afs::kRemoveFile, kPathDF, kStatusOk, true, "ok",
       [](AfsWorld& w) { return RunOp(w, w.client().Unlink("/d/f")); }},
      {"LINK", afs::kHardLink, kPathDF + "00000004 2f642f68", kStatusOk, true, "ok",
       [](AfsWorld& w) { return RunOp(w, w.client().Link("/d/f", "/d/h")); }},
      {"MKDIR", afs::kMakeDir, "00000002 2f780000", kStatusOk, true, "ok",
       [](AfsWorld& w) { return RunOp(w, w.client().Mkdir("/x")); }},
      {"RMDIR error", afs::kRemoveDir, "00000002 2f640000", "00000042", true,
       "NFS3ERR_NOTEMPTY", [](AfsWorld& w) { return RunOp(w, w.client().Rmdir("/d")); }},
      {"LISTDIR", afs::kListDir, "00000002 2f640000",
       "00000000 00000002 00000001 66000000 00000001 67000000", true, "f g", RunList},
      {"LISTDIR empty", afs::kListDir, "00000002 2f640000", "00000000 00000000", true, "",
       RunList},
      {"LISTDIR error", afs::kListDir, "00000002 2f640000", "00000002", true, "NFS3ERR_NOENT",
       RunList},
  };
}

/// Runs one client case in a fresh world whose peer answers the case's
/// procedure with `reply`, FETCHSTATUS and FETCHDATA (which OPEN sends
/// first) with /d/f's golden replies, and CREATE's status probe with NOENT.
std::string RunClientCase(const AfsClientCase& c, const Bytes& reply, Bytes* sent) {
  AfsWorld w;
  w.Answer(afs::kFetchStatus,
           Unhex(c.proc == afs::kCreateFile ? kFetchStatusNoEnt : kFetchStatusOk));
  w.Answer(afs::kFetchData, Unhex(kFetchDataOk));
  w.Answer(c.proc, reply);
  std::string outcome = c.run(w);
  *sent = w.received()[c.proc];
  return outcome;
}

TEST(WireGolden, AfsClientSendsAndReadsGoldenBytes) {
  for (const AfsClientCase& c : AfsClientTable()) {
    SCOPED_TRACE(c.name);
    const Bytes reply = Unhex(c.reply);
    Bytes sent;
    EXPECT_EQ(RunClientCase(c, reply, &sent), c.outcome);
    EXPECT_EQ(Hex(sent), Hex(Unhex(c.args)));
    EXPECT_EQ(RunClientCase(c, WithGrantSuffix(reply), &sent), c.outcome);
    if (!c.parsed) continue;
    for (std::size_t len = 0; len < reply.size(); ++len) {
      EXPECT_EQ(RunClientCase(c, Bytes(reply.begin(), reply.begin() + len), &sent),
                "NFS3ERR_IO")
          << "accepted a " << len << "-byte prefix";
    }
  }
}

TEST(WireGolden, AfsCallbackBreakCarriesTheGoldenPath) {
  // The server breaks the peer's promise on /d/f when another node stores
  // it; the break names the path.
  {
    AfsWorld w;
    w.Answer(afs::kCallbackBreak, Bytes{});
    (void)w.CallServer(afs::kFetchStatus, Unhex(kPathDF));
    (void)w.Call(&w.client_node(), net::Address{0, 7000}, afs::kStoreData,
                 Unhex(kPathDF + "00000000"));
    EXPECT_EQ(Hex(w.received()[afs::kCallbackBreak]), Hex(Unhex(kPathDF)));
  }
  // The client drops its cached status on a whole break (with or without a
  // trailing suffix) and keeps it on every truncated one.
  const Bytes brk = Unhex(kPathDF);
  auto dropped = [](const Bytes& args) {
    AfsWorld w;
    w.Answer(afs::kFetchStatus, Unhex(kFetchStatusOk));
    EXPECT_EQ(RunStat(w, "/d/f"), "size 5 fileid 3");
    (void)w.Call(&w.peer(), w.client_node().address(), afs::kCallbackBreak, args);
    const auto hits = w.client().status_cache_hits();
    EXPECT_EQ(RunStat(w, "/d/f"), "size 5 fileid 3");
    return w.client().status_cache_hits() == hits;
  };
  EXPECT_TRUE(dropped(brk));
  EXPECT_TRUE(dropped(WithGrantSuffix(brk)));
  for (std::size_t len = 0; len < brk.size(); ++len) {
    EXPECT_FALSE(dropped(Bytes(brk.begin(), brk.begin() + len)))
        << "accepted a " << len << "-byte prefix";
  }
}

// ---------------------------------------------------------------------------
// Hostile counts
// ---------------------------------------------------------------------------

TEST(WireHostile, ArrayCountsTheReplyCannotHoldAreRejected) {
  // Each reply claims 2^30 elements in a buffer that holds none of them.
  const std::string kCount = "40000000 ";
  EXPECT_FALSE(nfs3::Parse<nfs3::ReadDirRes>(Unhex(kOk + kAbsent + kCount)));
  EXPECT_FALSE(nfs3::Parse<proxy::GetInvRes>(
      Unhex("0000000000000001 00000000 00000000 " + kCount)));
  EXPECT_FALSE(nfs3::Parse<proxy::CallbackRes>(Unhex(kCount + "0000000000000000")));
  EXPECT_FALSE(nfs3::Parse<proxy::RecoveryRes>(Unhex(kCount)));

  AfsWorld w;
  w.Answer(afs::kListDir, Unhex(kOk + kCount));
  EXPECT_EQ(RunList(w), "NFS3ERR_IO");
}

}  // namespace
}  // namespace gvfs
