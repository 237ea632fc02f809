// Seeded violation: the aggregation tier appends correctly but emits no
// kAggIngest / kAggFanout events — the TraceChecker's kAggTier invariant is
// blind to the tier, so a lost or duplicated invalidation goes unnoticed.
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
  inv_log_.Append(fh);
}

}  // namespace gvfs::fleet
