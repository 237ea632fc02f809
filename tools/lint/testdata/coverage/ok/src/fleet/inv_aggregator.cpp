// Coverage fixture: a structurally faithful skeleton of the aggregation
// tier's re-publish path — Ingest() appends every upstream handle to the
// tier's invalidation log, then stamps the ingest marker. The cross-file
// rules anchor on exactly these shapes.
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
  tracer_.Inv(trace::kAggIngest, shard, fh);
}

}  // namespace gvfs::fleet
