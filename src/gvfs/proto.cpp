#include "gvfs/proto.h"

#include <cstring>

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

void GrantSuffix::AppendTo(Buf& reply_body) const {
  const std::size_t size = reply_body.size();
  reply_body = Buf::Build(size + kWireBytes, [&](std::uint8_t* p) {
    if (size != 0) std::memcpy(p, reply_body.data(), size);
    xdr::Encoder::StoreBe32(p + size, static_cast<std::uint32_t>(delegation));
    xdr::Encoder::StoreBe32(p + size + 4, kGrantMagic);
  });
}

GrantSuffix GrantSuffix::ExtractFrom(Buf& reply_body) {
  GrantSuffix out;
  if (reply_body.size() < kWireBytes) return out;
  const std::size_t body = reply_body.size() - kWireBytes;
  const std::uint8_t* p = reply_body.data() + body;
  const std::uint32_t type = xdr::Decoder::LoadBe32(p);
  if (xdr::Decoder::LoadBe32(p + 4) != kGrantMagic) return out;
  if (type > static_cast<std::uint32_t>(DelegationType::kWrite)) return out;
  out.delegation = static_cast<DelegationType>(type);
  reply_body = reply_body.Slice(0, body);
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
