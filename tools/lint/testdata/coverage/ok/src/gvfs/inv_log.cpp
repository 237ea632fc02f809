// Coverage fixture: a structurally faithful skeleton of the invalidation log
// both GETINV servers share — Append() stores each mutation once and traces
// it per client it reaches (kInvAppend on a proxy server, kAggFanout in the
// aggregation tier); Drain() releases and traces a MIGRATE delivery. The
// cross-file rules anchor on exactly these shapes.
#include <cstdint>
#include <map>
#include <vector>

namespace gvfs {

struct Fh {
  std::uint64_t ino = 0;
};

struct Entry {
  std::uint64_t timestamp = 0;
  Fh fh;
  int owed_by = 0;
};

struct Tracer {
  void Inv(int type, int client, const Fh& fh);
};

class InvLog {
 public:
  void Append(const Fh& fh, int writer);
  std::uint32_t Drain(const Fh& fh, int client);

 private:
  void Release(std::uint64_t timestamp);

  bool tier_ = false;
  std::map<int, std::uint64_t> cursors_;
  std::vector<Entry> log_;
  std::uint64_t clock_ = 0;
  Tracer tracer_;
};

void InvLog::Append(const Fh& fh, int writer) {
  ++clock_;
  int owners = 0;
  for (auto& [client, cursor] : cursors_) {
    if (client == writer) continue;
    tracer_.Inv(tier_ ? trace::kAggFanout : trace::kInvAppend, client, fh);
    ++owners;
  }
  if (owners > 0) log_.push_back(Entry{clock_, fh, owners});
}

std::uint32_t InvLog::Drain(const Fh& fh, int client) {
  for (const Entry& entry : log_) {
    if (entry.fh.ino != fh.ino || entry.timestamp <= cursors_[client]) continue;
    tracer_.Inv(trace::kInvPoll, client, fh);
    Release(entry.timestamp);
    return 1;
  }
  return 0;
}

}  // namespace gvfs
