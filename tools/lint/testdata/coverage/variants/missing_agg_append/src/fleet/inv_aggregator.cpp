// Seeded violation: the aggregation tier still stamps its ingest marker, but
// the append to its invalidation log was deleted — clients behind the tier
// silently stop seeing peer writes while the direct path keeps working.
#include <cstdint>

namespace gvfs::fleet {

struct Fh {
  std::uint64_t ino = 0;
};

struct InvLog {
  void Append(const Fh& fh);
};

struct Tracer {
  void Inv(int type, int shard, const Fh& fh);
};

class InvAggregator {
 public:
  void Ingest(const Fh& fh, int shard);

 private:
  InvLog inv_log_;
  Tracer tracer_;
};

void InvAggregator::Ingest(const Fh& fh, int shard) {
  tracer_.Inv(trace::kAggIngest, shard, fh);
}

}  // namespace gvfs::fleet
