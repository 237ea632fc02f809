#include "gvfs/proto.h"

namespace gvfs::proxy {

namespace {
constexpr std::uint32_t kGrantMagic = 0x47565331;  // "GVS1"
}

const char* GvfsProcName(std::uint32_t proc) {
  switch (proc) {
    case kGetInv:
      return "GETINV";
    case kCallback:
      return "CALLBACK";
    case kRecovery:
      return "RECOVERY";
    case kNotifyInv:
      return "NOTIFYINV";
    case kMigrate:
      return "MIGRATE";
  }
  return "GVFS?";
}

void GrantSuffix::AppendTo(Bytes& reply_body) const {
  xdr::Encoder enc;
  enc.PutU32(static_cast<std::uint32_t>(delegation));
  enc.PutU32(kGrantMagic);
  const Bytes& tail = enc.bytes();
  reply_body.insert(reply_body.end(), tail.begin(), tail.end());
}

GrantSuffix GrantSuffix::ExtractFrom(Bytes& reply_body) {
  GrantSuffix out;
  if (reply_body.size() < kWireBytes) return out;
  xdr::Decoder dec(reply_body.data() + reply_body.size() - kWireBytes, kWireBytes);
  auto type = dec.GetU32();
  auto magic = dec.GetU32();
  if (!type || !magic || *magic != kGrantMagic) return out;
  if (*type > static_cast<std::uint32_t>(DelegationType::kWrite)) return out;
  out.delegation = static_cast<DelegationType>(*type);
  reply_body.resize(reply_body.size() - kWireBytes);
  return out;
}

trace::CheckerConfig NfsTraceCheckerConfig() {
  trace::CheckerConfig config;
  // The non-idempotent NFSv3 procedures: re-executing any of these on a
  // retransmitted request changes the outcome (EEXIST on the second CREATE,
  // ENOENT on the second REMOVE, ...), which is exactly what the duplicate
  // request cache exists to prevent.
  config.AddNonIdempotent(nfs3::kProgram, nfs3::kCreate);
  config.AddNonIdempotent(nfs3::kProgram, nfs3::kMkdir);
  config.AddNonIdempotent(nfs3::kProgram, nfs3::kRemove);
  config.AddNonIdempotent(nfs3::kProgram, nfs3::kRmdir);
  config.AddNonIdempotent(nfs3::kProgram, nfs3::kRename);
  config.AddNonIdempotent(nfs3::kProgram, nfs3::kLink);
  return config;
}

}  // namespace gvfs::proxy
