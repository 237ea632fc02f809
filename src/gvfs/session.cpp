#include "gvfs/session.h"

#include "common/flat_map.h"

namespace gvfs::proxy {

std::uint32_t ShardOf(const nfs3::Fh& fh, std::uint32_t shard_count) {
  if (shard_count < 2) return 0;
  return static_cast<std::uint32_t>(MixHash64(fh.fsid ^ MixHash64(fh.ino)) %
                                    shard_count);
}

}  // namespace gvfs::proxy
