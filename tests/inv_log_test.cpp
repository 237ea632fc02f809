// Differential check of gvfs::InvLog against the per-client invalidation
// buffer it replaced, kept here as a reference in both of its forms:
//
//  - server: writer exclusion, a rolling window on overflow (the oldest
//    entry is evicted and the client marked overflowed), and a MIGRATE drain
//    that tells an overflowed client at least 1;
//  - tier: no writer, the whole buffer dropped on overflow, and an upstream
//    force that breaks every client's stream.
//
// Seeded schedules drive both with the same appends, GETINV polls (with
// good, null, stale and future timestamps), drains and escalations; every
// reply and drain count must match exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gvfs/inv_log.h"

namespace gvfs {
namespace {

using nfs3::Fh;
using proxy::GetInvRes;

/// The per-client buffer: one deque of (timestamp, handle) per client with
/// one entry per handle.
class ReferenceBuffers {
 public:
  ReferenceBuffers(InvLog::Role role, std::size_t capacity, std::uint32_t batch)
      : tier_(role == InvLog::Role::kTier), capacity_(capacity), batch_(batch) {}

  std::uint32_t Append(const Fh& fh, net::Address writer) {
    ++clock_;
    std::uint32_t appended = 0;
    for (auto& [addr, client] : clients_) {
      if (addr == writer || (tier_ && client.overflowed)) continue;
      if (!client.pending.insert(fh).second) continue;
      client.buffer.push_back({clock_, fh});
      ++appended;
      peak_ = std::max(peak_, ++entries_);
      if (client.buffer.size() <= capacity_) continue;
      if (tier_) {
        entries_ -= client.buffer.size();
        client.buffer.clear();
        client.pending.clear();
      } else {
        client.pending.erase(client.buffer.front().second);
        client.buffer.pop_front();
        --entries_;
      }
      client.overflowed = true;
    }
    return appended;
  }

  GetInvRes Serve(net::Address addr, std::uint64_t ts) {
    GetInvRes res;
    auto [it, fresh] = clients_.try_emplace(addr);
    Client& client = it->second;
    if (fresh || client.overflowed || ts == 0 || ts < client.last_acked ||
        ts > clock_) {
      entries_ -= client.buffer.size();
      client = Client{};
      client.last_acked = clock_;
      res.new_timestamp = clock_;
      res.force_invalidate = true;
      return res;
    }
    const std::size_t n = std::min<std::size_t>(client.buffer.size(), batch_);
    for (std::size_t i = 0; i < n; ++i) {
      const auto [timestamp, fh] = client.buffer.front();
      client.buffer.pop_front();
      client.pending.erase(fh);
      res.handles.push_back(fh);
      client.last_acked = timestamp;
    }
    entries_ -= n;
    if (client.buffer.empty()) {
      client.last_acked = clock_;
    } else {
      res.poll_again = true;
    }
    res.new_timestamp = client.last_acked;
    return res;
  }

  std::uint32_t Drain(const Fh& fh, net::Address addr) {
    auto it = clients_.find(addr);
    if (it == clients_.end()) return 0;
    Client& client = it->second;
    std::uint32_t drained = 0;
    for (auto entry = client.buffer.begin(); entry != client.buffer.end();) {
      if (entry->second == fh) {
        entry = client.buffer.erase(entry);
        client.pending.erase(fh);
        --entries_;
        ++drained;
      } else {
        ++entry;
      }
    }
    return client.overflowed ? std::max<std::uint32_t>(drained, 1) : drained;
  }

  void Escalate() {
    for (auto& [addr, client] : clients_) {
      if (client.overflowed) continue;
      entries_ -= client.buffer.size();
      client.buffer.clear();
      client.pending.clear();
      client.overflowed = true;
    }
  }

  std::size_t peak() const { return peak_; }

 private:
  struct Client {
    std::deque<std::pair<std::uint64_t, Fh>> buffer;
    std::set<Fh> pending;
    std::uint64_t last_acked = 0;
    bool overflowed = false;
  };

  bool tier_;
  std::size_t capacity_;
  std::uint32_t batch_;
  std::uint64_t clock_ = 1;
  std::map<net::Address, Client> clients_;
  std::size_t entries_ = 0;
  std::size_t peak_ = 0;
};

net::Address ClientAddr(std::size_t i) {
  return net::Address{static_cast<HostId>(i + 1), 700};
}

std::string Describe(const GetInvRes& res) {
  std::string out = "ts=" + std::to_string(res.new_timestamp) +
                    (res.force_invalidate ? " force" : "") +
                    (res.poll_again ? " again" : "") + " [";
  for (const Fh& fh : res.handles) out += std::to_string(fh.ino) + " ";
  return out + "]";
}

struct Tally {
  std::uint64_t replies = 0;
  std::uint64_t poll_again = 0;
  std::uint64_t forced = 0;
  std::uint64_t drains = 0;
};

/// Runs one seeded schedule against both implementations; returns false at
/// the first mismatch (reported through gtest).
bool RunSchedule(std::uint64_t seed, Tally& tally) {
  Rng rng(seed);
  const InvLog::Role role =
      rng.Below(2) == 0 ? InvLog::Role::kServer : InvLog::Role::kTier;
  const bool server = role == InvLog::Role::kServer;
  const auto clients = static_cast<std::size_t>(rng.Range(1, 6));
  const auto handles = static_cast<std::uint64_t>(rng.Range(1, 12));
  const auto capacity = static_cast<std::size_t>(rng.Range(2, 13));
  const auto batch = static_cast<std::uint32_t>(rng.Range(1, 5));
  const std::string where = "seed " + std::to_string(seed) +
                            (server ? " server" : " tier") + " clients=" +
                            std::to_string(clients) + " handles=" +
                            std::to_string(handles) + " capacity=" +
                            std::to_string(capacity) + " batch=" +
                            std::to_string(batch);

  trace::Tracer tracer;
  InvLog log(role, tracer, 1, capacity, batch);
  ReferenceBuffers ref(role, capacity, batch);
  std::vector<std::uint64_t> last_ts(clients, 0);  // what each client holds

  for (int op = 0; op < 300; ++op) {
    const std::uint64_t roll = rng.Below(100);
    const std::size_t c = rng.Below(clients);
    const net::Address addr = ClientAddr(c);
    const Fh fh{7, 1 + rng.Below(handles)};
    if (roll < 55) {
      // Server appends name a writer: a client, or a host that never polls.
      net::Address writer{};
      if (server) writer = rng.Below(3) == 0 ? ClientAddr(clients) : addr;
      const std::uint32_t got = log.Append(fh, writer);
      const std::uint32_t want = ref.Append(fh, writer);
      if (!server && got != want) {
        ADD_FAILURE() << where << " op " << op << ": appended to " << got
                      << " clients, reference " << want;
        return false;
      }
    } else if (roll < 88) {
      std::uint64_t ts = last_ts[c];
      const std::uint64_t variant = rng.Below(20);
      if (variant == 0) ts = 0;
      if (variant == 1 && ts > 1) ts -= 1 + rng.Below(ts - 1);
      if (variant == 2) ts = log.clock() + 1 + rng.Below(3);
      const GetInvRes got = log.Serve(addr, ts);
      const GetInvRes want = ref.Serve(addr, ts);
      ++tally.replies;
      tally.poll_again += want.poll_again ? 1 : 0;
      tally.forced += want.force_invalidate ? 1 : 0;
      if (got.new_timestamp != want.new_timestamp ||
          got.force_invalidate != want.force_invalidate ||
          got.poll_again != want.poll_again || got.handles != want.handles) {
        ADD_FAILURE() << where << " op " << op << ": GETINV(client " << c
                      << ", ts " << ts << ") = " << Describe(got)
                      << ", reference " << Describe(want);
        return false;
      }
      last_ts[c] = got.new_timestamp;
    } else if (server) {
      const std::uint32_t got = log.Drain(fh, addr);
      const std::uint32_t want = ref.Drain(fh, addr);
      ++tally.drains;
      if (got != want) {
        ADD_FAILURE() << where << " op " << op << ": drain(client " << c
                      << ", handle " << fh.ino << ") = " << got
                      << ", reference " << want;
        return false;
      }
    } else if (roll < 91) {
      log.BreakAll(0);
      ref.Escalate();
    }
  }
  return true;
}

TEST(InvLogDifferential, MatchesPerClientBuffersReplyForReply) {
  constexpr std::uint64_t kSchedules = 2500;
  Tally tally;
  for (std::uint64_t seed = 1; seed <= kSchedules; ++seed) {
    if (!RunSchedule(seed, tally)) break;
  }
  // The schedules must reach every reply shape, not only the easy one.
  EXPECT_GT(tally.replies, 100'000u);
  EXPECT_GT(tally.poll_again, 10'000u);
  EXPECT_GT(tally.forced, 10'000u);
  EXPECT_GT(tally.drains, 10'000u);
}

/// Client 0 writes 8 handles per round; client i drains its whole backlog in
/// rounds where (round + i) % 3 == 0. Returns the stored-entry peak, and the
/// per-client buffers' peak in `reference_peak`.
std::size_t StaggeredPeak(std::size_t clients, std::size_t* reference_peak) {
  constexpr int kRounds = 12;
  constexpr std::uint64_t kFiles = 8;
  trace::Tracer tracer;
  InvLog log(InvLog::Role::kServer, tracer, 1, 1 << 20, 5);
  ReferenceBuffers ref(InvLog::Role::kServer, 1 << 20, 5);
  std::vector<std::uint64_t> last_ts(clients, 0);
  auto poll = [&](std::size_t i) {
    GetInvRes res;
    do {
      res = log.Serve(ClientAddr(i), last_ts[i]);
      EXPECT_EQ(ref.Serve(ClientAddr(i), last_ts[i]).handles, res.handles);
      last_ts[i] = res.new_timestamp;
    } while (res.poll_again);
  };
  for (std::size_t i = 0; i < clients; ++i) poll(i);
  for (int round = 0; round < kRounds; ++round) {
    for (std::uint64_t f = 1; f <= kFiles; ++f) {
      log.Append(Fh{7, f}, ClientAddr(0));
      ref.Append(Fh{7, f}, ClientAddr(0));
    }
    for (std::size_t i = 0; i < clients; ++i) {
      if ((round + i) % 3 == 0) poll(i);
    }
  }
  *reference_peak = ref.peak();
  return log.peak_entries();
}

TEST(InvLogDifferential, StoredEntriesDoNotGrowWithClients) {
  std::size_t ref_small = 0;
  std::size_t ref_large = 0;
  const std::size_t small = StaggeredPeak(6, &ref_small);
  const std::size_t large = StaggeredPeak(512, &ref_large);
  EXPECT_EQ(small, large);
  // Each handle is logged at most once per round still owed by a lagging
  // client: three rounds' worth, however many clients lag.
  EXPECT_LE(large, 3 * 8u);
  // The per-client buffers hold one copy per lagging client.
  EXPECT_GT(ref_large, 50 * ref_small);
}

}  // namespace
}  // namespace gvfs
