// The reference loop: a fixed piece of host work of the simulator's kind
// (node-based maps, small heap blocks, 32 KB block copies, first touch of a
// 64 MB buffer) that no change to the simulator touches. run.py times it
// right before every harness process and scales the end-to-end host times to
// a machine on which it takes a nominal time, so the shared machine's speed
// drift over minutes cancels out of them.
//
//   gvfs_perfbench_ref    prints "<CPU ms> <checksum bit>"
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <unordered_map>
#include <vector>

#include "host.h"

namespace {

constexpr std::size_t kBuffer = std::size_t{64} << 20;
constexpr std::size_t kBlock = 32 * 1024;

}  // namespace

int main() {
  const std::int64_t start = perfbench::host::CpuNs();
  std::uint64_t x = 88172645463325252ULL;
  auto next = [&x] {  // xorshift64
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::uint64_t sink = 0;
  std::vector<std::uint8_t> buffer(kBuffer, 1);
  for (int round = 0; round < 2; ++round) {
    std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> blobs;
    std::map<std::uint64_t, std::uint64_t> counts;
    for (int i = 0; i < 60000; ++i) {
      const std::uint64_t k = next();
      blobs.emplace(k % 200000,
                    std::vector<std::uint8_t>(256 + k % 512, static_cast<std::uint8_t>(k)));
      counts[k % 100000] += k;
      if (i % 3 == 0) {
        blobs.erase(next() % 200000);
        counts.erase(next() % 100000);
      }
    }
    for (int i = 0; i < 4000; ++i) {
      const std::size_t from = (next() % (kBuffer - 2 * kBlock)) & ~std::size_t{63};
      std::vector<std::uint8_t> block(kBlock);
      std::memcpy(block.data(), buffer.data() + from, kBlock);
      std::memcpy(buffer.data() + (from + (std::size_t{1} << 20)) % (kBuffer - kBlock),
                  block.data(), kBlock);
      sink += block[static_cast<std::size_t>(i) % kBlock];
    }
    sink += blobs.size() + counts.size();
  }
  const std::int64_t end = perfbench::host::CpuNs();
  std::printf("%.3f %llu\n", static_cast<double>(end - start) / 1e6,
              static_cast<unsigned long long>(sink & 1));
  return 0;
}
