// Adaptive consistency engine tests (src/policy + the MIGRATE handshake in
// src/gvfs). The unit half exercises the FSM in isolation: promotion needs
// two agreeing windows, demotion under contention, the dwell pin, and the
// recall-storm breaker (promotions freeze, demotions keep running). It also
// shows that a tick's work ignores idle files, and checks the engine against
// a copy of the full-walk engine it replaced over seeded schedules. The
// integration half runs adaptive sessions on the testbed — single-server and
// sharded fleet — and checks that migrations actually happen, route through
// the owning shard, and leave a TraceChecker-clean history, and that
// enabling metrics leaves every policy decision unchanged; the fault half
// proves invariant 6 (version-continuous migration) bites when the server's
// drain step is skipped.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "common/json_value.h"
#include "common/rng.h"
#include "policy/policy.h"
#include "test_util.h"
#include "trace_oracle.h"
#include "workloads/testbed.h"

namespace gvfs::workloads {
namespace {

using kclient::OpenFlags;
using policy::AccessClass;
using policy::FileId;
using policy::FileMode;
using policy::PolicyEngine;
using proxy::ConsistencyModel;
using proxy::SessionConfig;
using testutil::RunTask;

constexpr OpenFlags kRead{.read = true};
constexpr OpenFlags kReadWrite{.read = true, .write = true};
constexpr OpenFlags kCreateWrite{.read = true, .write = true, .create = true};

// ---------------------------------------------------------------------------
// PolicyEngine unit tests (no testbed; the FSM is transport-free)
// ---------------------------------------------------------------------------

policy::PolicyConfig UnitConfig() {
  policy::PolicyConfig config;
  config.dwell = Seconds(10);
  config.promote_reads = 4;
  config.write_hot = 3;
  config.storm_recalls = 8;
  config.storm_freeze = Seconds(30);
  return config;
}

void HotReads(PolicyEngine& engine, const FileId& file, int n = 5) {
  for (int i = 0; i < n; ++i) engine.OnRead(file);
}

TEST(PolicyEngine, PromotionNeedsTwoAgreeingWindows) {
  PolicyEngine engine(UnitConfig());
  const FileId file{1, 42};

  HotReads(engine, file);
  EXPECT_EQ(engine.ClassifyOpenWindow(file), AccessClass::kReadShared);
  // First hot window only arms hysteresis: no proposal yet.
  EXPECT_TRUE(engine.Tick(Seconds(5)).empty());

  HotReads(engine, file);
  const auto migrations = engine.Tick(Seconds(10));
  ASSERT_EQ(migrations.size(), 1u);
  EXPECT_EQ(migrations[0].file, file);
  EXPECT_EQ(migrations[0].from, FileMode::kPolling);
  EXPECT_EQ(migrations[0].to, FileMode::kReadDelegation);

  engine.Commit(file, FileMode::kReadDelegation, Seconds(10));
  EXPECT_EQ(engine.ModeOf(file), FileMode::kReadDelegation);
  EXPECT_EQ(engine.promotions(), 1u);
  EXPECT_EQ(engine.demotions(), 0u);
}

TEST(PolicyEngine, OneBurstyWindowCannotFlipAFile) {
  PolicyEngine engine(UnitConfig());
  const FileId file{1, 42};

  HotReads(engine, file);
  EXPECT_TRUE(engine.Tick(Seconds(5)).empty());
  // Idle window in between: the target falls back to "hold" and hysteresis
  // disarms...
  EXPECT_TRUE(engine.Tick(Seconds(10)).empty());
  // ...so a fresh burst has to agree across two windows again.
  HotReads(engine, file);
  EXPECT_TRUE(engine.Tick(Seconds(15)).empty());
  EXPECT_EQ(engine.ModeOf(file), FileMode::kPolling);
}

TEST(PolicyEngine, ContentionDemotesAfterDwell) {
  PolicyEngine engine(UnitConfig());
  const FileId file{1, 7};
  HotReads(engine, file);
  engine.Tick(Seconds(5));
  HotReads(engine, file);
  ASSERT_EQ(engine.Tick(Seconds(10)).size(), 1u);
  engine.Commit(file, FileMode::kReadDelegation, Seconds(10));

  // Write-write sharing: we write while remote writes land as invalidations.
  auto contend = [&engine, &file] {
    engine.OnWrite(file);
    engine.OnInvalidation(file);
  };
  contend();
  EXPECT_EQ(engine.ClassifyOpenWindow(file), AccessClass::kContended);
  // Window 1 re-arms hysteresis towards polling (Commit reset it).
  EXPECT_TRUE(engine.Tick(Seconds(12)).empty());
  contend();
  // Window 2 agrees but the file migrated at t=10 and dwell is 10 s: pinned.
  EXPECT_TRUE(engine.Tick(Seconds(14)).empty());
  contend();
  const auto migrations = engine.Tick(Seconds(21));
  ASSERT_EQ(migrations.size(), 1u);
  EXPECT_EQ(migrations[0].to, FileMode::kPolling);
  engine.Commit(file, FileMode::kPolling, Seconds(21));
  EXPECT_EQ(engine.demotions(), 1u);
}

TEST(PolicyEngine, WriteDelegationGatedBySessionCacheMode) {
  // Write-back sessions: a steady single writer earns a write delegation.
  PolicyEngine wb(UnitConfig());
  const FileId file{1, 9};
  for (int i = 0; i < 4; ++i) wb.OnWrite(file);
  EXPECT_EQ(wb.ClassifyOpenWindow(file), AccessClass::kWriteHot);
  wb.Tick(Seconds(5));
  for (int i = 0; i < 4; ++i) wb.OnWrite(file);
  const auto migrations = wb.Tick(Seconds(10));
  ASSERT_EQ(migrations.size(), 1u);
  EXPECT_EQ(migrations[0].to, FileMode::kWriteDelegation);

  // Write-through sessions clear the knob: same pattern, no proposal — a
  // write grant would only add recall traffic with nothing absorbed locally.
  policy::PolicyConfig config = UnitConfig();
  config.write_delegation = false;
  PolicyEngine wt(config);
  for (int i = 0; i < 4; ++i) wt.OnWrite(file);
  wt.Tick(Seconds(5));
  for (int i = 0; i < 4; ++i) wt.OnWrite(file);
  EXPECT_TRUE(wt.Tick(Seconds(10)).empty());
}

TEST(PolicyEngine, RecallStormFreezesPromotionsNotDemotions) {
  PolicyEngine engine(UnitConfig());
  const FileId held{1, 1};    // already delegated when the storm hits
  const FileId hungry{1, 2};  // wants a promotion during the storm
  const FileId noisy{1, 3};   // the recall source

  HotReads(engine, held);
  engine.Tick(Seconds(5));
  HotReads(engine, held);
  ASSERT_EQ(engine.Tick(Seconds(10)).size(), 1u);
  engine.Commit(held, FileMode::kReadDelegation, Seconds(10));

  // 8 recalls inside one window trip the breaker (no registry attached, so
  // the breaker counts locally observed recalls).
  for (int i = 0; i < 8; ++i) engine.OnRecall(noisy);
  engine.OnWrite(held);
  engine.OnInvalidation(held);
  EXPECT_TRUE(engine.Tick(Seconds(15)).empty());
  EXPECT_TRUE(engine.frozen());
  EXPECT_EQ(engine.storm_freezes(), 1u);

  // While frozen: the demotion of `held` still goes through...
  engine.OnWrite(held);
  engine.OnInvalidation(held);
  HotReads(engine, hungry);
  auto migrations = engine.Tick(Seconds(25));
  ASSERT_EQ(migrations.size(), 1u);
  EXPECT_EQ(migrations[0].file, held);
  EXPECT_EQ(migrations[0].to, FileMode::kPolling);
  engine.Commit(held, FileMode::kPolling, Seconds(25));

  // ...but `hungry`'s promotion is suppressed for the freeze duration.
  HotReads(engine, hungry);
  EXPECT_TRUE(engine.Tick(Seconds(30)).empty());
  EXPECT_GE(engine.promotions_frozen(), 1u);

  // Freeze expires at t=45 (tripped at 15 + 30 s): promotions resume.
  HotReads(engine, hungry);
  engine.Tick(Seconds(46));
  HotReads(engine, hungry);
  migrations = engine.Tick(Seconds(51));
  ASSERT_EQ(migrations.size(), 1u);
  EXPECT_EQ(migrations[0].file, hungry);
  EXPECT_EQ(migrations[0].to, FileMode::kReadDelegation);
  EXPECT_FALSE(engine.frozen());
}

// ---------------------------------------------------------------------------
// A tick's cost ignores idle files
// ---------------------------------------------------------------------------

/// Fh strings of the files SnapshotState lists.
std::vector<std::string> SnapshotFiles(const PolicyEngine& engine) {
  const JsonValue snap = JsonParser().Parse(engine.SnapshotState().Dump());
  std::vector<std::string> out;
  for (const JsonValue& f : snap["files"].array()) {
    out.push_back(f["fh"].AsString());
  }
  return out;
}

/// How the idle files reached their settled polling state.
enum class Settle {
  kTouchedOnce,  // read once, never migrated
  kDemoted,      // promoted, then demoted by contention
};

/// Brings `idle` files (fsid 1, inos 1..idle) to a settled polling state and
/// returns the time of the last tick, after which the engine holds no state
/// for them.
SimTime SettleIdleFiles(PolicyEngine& engine, std::uint64_t idle,
                        Settle how) {
  if (how == Settle::kTouchedOnce) {
    for (std::uint64_t ino = 1; ino <= idle; ++ino) engine.OnRead({1, ino});
    EXPECT_TRUE(engine.Tick(Seconds(5)).empty());
    EXPECT_EQ(engine.decisions(), idle);
    return Seconds(5);
  }
  // Two hot windows promote every file at t=10; two contended ones demote
  // it at t=20, once its dwell is over.
  for (int window = 1; window <= 4; ++window) {
    for (std::uint64_t ino = 1; ino <= idle; ++ino) {
      if (window <= 2) {
        HotReads(engine, {1, ino});
      } else {
        engine.OnWrite({1, ino});
        engine.OnInvalidation({1, ino});
      }
    }
    const SimTime now = Seconds(5 * window);
    for (const policy::Migration& m : engine.Tick(now)) {
      engine.Commit(m.file, m.to, now);
    }
  }
  EXPECT_EQ(engine.promotions(), idle);
  EXPECT_EQ(engine.demotions(), idle);
  // A quiet window inside the new dwell keeps every file, since its dwell
  // anchor still matters; the first one after the dwell forgets them all.
  for (const SimTime now : {Seconds(25), Seconds(30), Seconds(35)}) {
    const std::uint64_t before = engine.decisions();
    EXPECT_TRUE(engine.Tick(now).empty());
    EXPECT_EQ(engine.decisions() - before, now <= Seconds(30) ? idle : 0u)
        << "quiet tick at " << now / kSecond << " s";
  }
  return Seconds(35);
}

/// What two ticks did after `idle` files settled: the decisions each added,
/// the migrations of the second (the three hot files clear hysteresis) and
/// the snapshot's files once those committed.
struct HotTicks {
  std::vector<std::uint64_t> decisions;
  std::vector<policy::Migration> migrations;
  std::vector<std::string> files;
};

HotTicks TouchThreeAfterIdle(std::uint64_t idle, Settle how) {
  PolicyEngine engine(UnitConfig());
  SimTime now = SettleIdleFiles(engine, idle, how);
  EXPECT_TRUE(SnapshotFiles(engine).empty()) << "settled files hold state";

  const std::vector<FileId> hot{{2, 9}, {1, 42}, {1, 7}};
  HotTicks out;
  for (int window = 1; window <= 2; ++window) {
    const std::uint64_t before = engine.decisions();
    for (const FileId& file : hot) HotReads(engine, file);
    now += Seconds(5);
    out.migrations = engine.Tick(now);
    out.decisions.push_back(engine.decisions() - before);
  }
  for (const policy::Migration& m : out.migrations) {
    engine.Commit(m.file, m.to, now);
  }
  out.files = SnapshotFiles(engine);
  return out;
}

TEST(PolicyEngine, TickCostIgnoresIdleFiles) {
  for (const Settle how : {Settle::kTouchedOnce, Settle::kDemoted}) {
    SCOPED_TRACE(how == Settle::kTouchedOnce ? "touched once" : "demoted");
    const HotTicks few = TouchThreeAfterIdle(100, how);
    const HotTicks many = TouchThreeAfterIdle(100'000, how);

    const std::vector<std::uint64_t> three_each{3, 3};
    EXPECT_EQ(few.decisions, three_each);
    EXPECT_EQ(many.decisions, three_each);

    ASSERT_EQ(few.migrations.size(), 3u);
    ASSERT_EQ(many.migrations.size(), 3u);
    const std::vector<FileId> order{{1, 7}, {1, 42}, {2, 9}};
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(few.migrations[i].file, order[i]);
      EXPECT_EQ(few.migrations[i].from, FileMode::kPolling);
      EXPECT_EQ(few.migrations[i].to, FileMode::kReadDelegation);
      EXPECT_EQ(many.migrations[i].file, few.migrations[i].file);
      EXPECT_EQ(many.migrations[i].from, few.migrations[i].from);
      EXPECT_EQ(many.migrations[i].to, few.migrations[i].to);
    }

    // Only the delegated files still hold state.
    const std::vector<std::string> delegated{"1:7", "1:42", "2:9"};
    EXPECT_EQ(few.files, delegated);
    EXPECT_EQ(many.files, delegated);
  }
}

// ---------------------------------------------------------------------------
// Differential check: the engine against the full-walk engine it replaced,
// kept here as a reference. The reference classifies every file it has ever
// seen in every window; the engine forgets a file once it has settled in
// polling mode past its dwell. Every decision must match.
// ---------------------------------------------------------------------------

class FullWalkEngine {
 public:
  explicit FullWalkEngine(policy::PolicyConfig config) : config_(config) {}

  void OnRead(const FileId& file) { ++files_[file].reads; }
  void OnWrite(const FileId& file) { ++files_[file].writes; }
  void OnInvalidation(const FileId& file) { ++files_[file].remote_invs; }
  void OnRecall(const FileId& file) {
    ++files_[file].recalls;
    ++recalls_;
  }

  std::vector<policy::Migration> Tick(SimTime now) {
    const std::uint64_t delta = recalls_ - recalls_at_tick_;
    recalls_at_tick_ = recalls_;
    if (delta >= config_.storm_recalls) {
      frozen_until_ = now + config_.storm_freeze;
      ++storm_freezes;
    }
    frozen_ = now < frozen_until_;

    std::vector<policy::Migration> out;
    for (auto& [file, s] : files_) {
      const FileMode target = TargetFor(s, Classify(s));
      const bool agreed = s.has_prev_target && s.prev_target == target;
      const bool dwell_over =
          !s.ever_migrated || now - s.migrated_at >= config_.dwell;
      if (target != s.mode && agreed && dwell_over) {
        if (frozen_ && target > s.mode) {
          ++promotions_frozen;
        } else {
          out.push_back(policy::Migration{file, s.mode, target});
        }
      }
      s.prev_target = target;
      s.has_prev_target = true;
      s.reads = s.writes = s.remote_invs = s.recalls = 0;
    }
    return out;
  }

  void Commit(const FileId& file, FileMode to, SimTime now) {
    State& s = files_[file];
    if (to > s.mode) {
      ++promotions;
    } else if (to != s.mode) {
      ++demotions;
    }
    s.mode = to;
    s.prev_target = to;
    s.migrated_at = now;
    s.ever_migrated = true;
  }

  FileMode ModeOf(const FileId& file) const {
    auto it = files_.find(file);
    return it == files_.end() ? FileMode::kPolling : it->second.mode;
  }

  AccessClass ClassifyOpenWindow(const FileId& file) const {
    auto it = files_.find(file);
    return it == files_.end() ? AccessClass::kIdle : Classify(it->second);
  }

  bool frozen() const { return frozen_; }
  std::size_t tracked() const { return files_.size(); }

  std::uint64_t promotions = 0;
  std::uint64_t demotions = 0;
  std::uint64_t promotions_frozen = 0;
  std::uint64_t storm_freezes = 0;

 private:
  struct State {
    FileMode mode = FileMode::kPolling;
    FileMode prev_target = FileMode::kPolling;
    bool has_prev_target = false;
    SimTime migrated_at = 0;
    bool ever_migrated = false;
    std::uint32_t reads = 0;
    std::uint32_t writes = 0;
    std::uint32_t remote_invs = 0;
    std::uint32_t recalls = 0;
  };

  AccessClass Classify(const State& s) const {
    if (s.writes > 0 && (s.remote_invs > 0 || s.recalls > 0)) {
      return AccessClass::kContended;
    }
    if (s.writes >= config_.write_hot && s.writes > s.reads) {
      return AccessClass::kWriteHot;
    }
    if (s.writes > 0) return AccessClass::kSingleWriter;
    if (s.reads >= config_.promote_reads) return AccessClass::kReadShared;
    if (s.recalls > 0) return AccessClass::kContended;
    return AccessClass::kIdle;
  }

  FileMode TargetFor(const State& s, AccessClass cls) const {
    switch (cls) {
      case AccessClass::kIdle:
        return s.mode;
      case AccessClass::kReadShared:
        return FileMode::kReadDelegation;
      case AccessClass::kSingleWriter:
      case AccessClass::kWriteHot:
        return config_.write_delegation ? FileMode::kWriteDelegation : s.mode;
      case AccessClass::kContended:
        return FileMode::kPolling;
    }
    return s.mode;
  }

  policy::PolicyConfig config_;
  std::map<FileId, State> files_;
  SimTime frozen_until_ = 0;
  bool frozen_ = false;
  std::uint64_t recalls_ = 0;
  std::uint64_t recalls_at_tick_ = 0;
};

std::string Describe(const std::vector<policy::Migration>& migrations) {
  std::string out = "[";
  for (const policy::Migration& m : migrations) {
    out += " " + std::to_string(m.file.fsid) + ":" +
           std::to_string(m.file.ino) + " " + policy::FileModeName(m.from) +
           "->" + policy::FileModeName(m.to);
  }
  return out + " ]";
}

struct PolicyTally {
  std::uint64_t ticks = 0;
  std::uint64_t migrations = 0;
  std::uint64_t failed_migrates = 0;
  std::uint64_t promotions_frozen = 0;
  std::uint64_t storm_freezes = 0;
  std::uint64_t visits = 0;       // the engine's decisions
  std::uint64_t full_walks = 0;   // the reference's, one per tracked file
  std::uint64_t forgotten = 0;    // tracked by the reference, not the engine
};

/// Runs one seeded schedule on both engines in lockstep; returns false at
/// the first mismatch (reported through gtest).
bool RunPolicySchedule(std::uint64_t seed, PolicyTally& tally) {
  Rng rng(seed);
  policy::PolicyConfig config;
  config.dwell = Seconds(rng.Range(0, 12));
  config.promote_reads = static_cast<std::uint32_t>(rng.Range(1, 5));
  config.write_hot = static_cast<std::uint32_t>(rng.Range(1, 4));
  config.storm_recalls = static_cast<std::uint32_t>(rng.Range(1, 6));
  config.storm_freeze = Seconds(rng.Range(0, 30));
  config.write_delegation = rng.Below(4) != 0;
  std::vector<FileId> pool;
  const auto files = static_cast<std::size_t>(rng.Range(1, 6));
  while (pool.size() < files) {
    const FileId file{1 + rng.Below(2), 1 + rng.Below(50)};
    if (std::find(pool.begin(), pool.end(), file) == pool.end()) {
      pool.push_back(file);
    }
  }
  const std::string where =
      "seed " + std::to_string(seed) + " files=" + std::to_string(files) +
      " dwell=" + std::to_string(config.dwell / kSecond) +
      "s freeze=" + std::to_string(config.storm_freeze / kSecond) + "s";

  PolicyEngine engine(config);
  FullWalkEngine ref(config);
  metrics::Registry registry;
  engine.AttachMetrics(registry, "p.");
  const auto& delegated = registry.probes().at("p.policy_files_delegated");

  // Every pool file must read the same, and the probe must count the files
  // not in polling mode.
  auto same_state = [&](const std::string& when) {
    double not_polling = 0;
    for (const FileId& file : pool) {
      if (engine.ModeOf(file) != ref.ModeOf(file) ||
          engine.ClassifyOpenWindow(file) != ref.ClassifyOpenWindow(file)) {
        ADD_FAILURE() << where << " " << when << ": file " << file.fsid << ":"
                      << file.ino << " mode "
                      << policy::FileModeName(engine.ModeOf(file))
                      << " class "
                      << policy::AccessClassName(engine.ClassifyOpenWindow(file))
                      << ", reference "
                      << policy::FileModeName(ref.ModeOf(file)) << " "
                      << policy::AccessClassName(ref.ClassifyOpenWindow(file));
        return false;
      }
      if (ref.ModeOf(file) != FileMode::kPolling) ++not_polling;
    }
    const std::vector<std::uint64_t> got{
        engine.promotions(), engine.demotions(), engine.promotions_frozen(),
        engine.storm_freezes(), engine.frozen() ? 1u : 0u};
    const std::vector<std::uint64_t> want{
        ref.promotions, ref.demotions, ref.promotions_frozen,
        ref.storm_freezes, ref.frozen() ? 1u : 0u};
    if (got != want || delegated() != not_polling) {
      ADD_FAILURE() << where << " " << when
                    << ": promotions/demotions/frozen/freezes/frozen-now or "
                       "the files_delegated probe ("
                    << delegated() << " vs " << not_polling << ") differ";
      return false;
    }
    return true;
  };

  SimTime now = 0;
  // Ticks both engines at `now` and compares what they proposed.
  auto tick = [&](const std::string& when,
                  std::vector<policy::Migration>& want) {
    const std::uint64_t visits = engine.decisions();
    const auto got = engine.Tick(now);
    want = ref.Tick(now);
    ++tally.ticks;
    tally.visits += engine.decisions() - visits;
    tally.full_walks += ref.tracked();
    const bool same_list =
        got.size() == want.size() &&
        std::equal(got.begin(), got.end(), want.begin(),
                   [](const policy::Migration& a, const policy::Migration& b) {
                     return a.file == b.file && a.from == b.from &&
                            a.to == b.to;
                   });
    if (!same_list) {
      ADD_FAILURE() << where << " " << when << ": Tick(" << now
                    << ") = " << Describe(got) << ", reference "
                    << Describe(want);
      return false;
    }
    return same_state(when + " after Tick");
  };

  for (int op = 0; op < 300; ++op) {
    const std::string when = "op " + std::to_string(op);
    if (rng.Below(100) < 75) {
      const FileId& file = pool[rng.Below(pool.size())];
      const std::uint64_t kind = rng.Below(10);
      for (std::int64_t n = rng.Range(1, 5); n > 0; --n) {
        if (kind < 4) {
          engine.OnRead(file);
          ref.OnRead(file);
        } else if (kind < 7) {
          engine.OnWrite(file);
          ref.OnWrite(file);
        } else if (kind < 9) {
          engine.OnInvalidation(file);
          ref.OnInvalidation(file);
        } else {
          engine.OnRecall(file);
          ref.OnRecall(file);
        }
      }
      if (engine.ClassifyOpenWindow(file) != ref.ClassifyOpenWindow(file)) {
        ADD_FAILURE() << where << " " << when << ": open-window class differs";
        return false;
      }
      continue;
    }

    // Ticks land just before, on and just after the dwell and freeze
    // boundaries, or anywhere in between.
    const Duration gaps[] = {config.dwell - 1,
                             config.dwell,
                             config.dwell + 1,
                             config.storm_freeze - 1,
                             config.storm_freeze,
                             config.storm_freeze + 1,
                             Seconds(1),
                             Milliseconds(rng.Range(1, 15'000))};
    now += std::max<Duration>(1, gaps[rng.Below(std::size(gaps))]);
    std::vector<policy::Migration> want;
    if (!tick(when, want)) return false;

    // Each MIGRATE takes a round trip, and one in four fails (no Commit).
    for (const policy::Migration& m : want) {
      ++tally.migrations;
      now += Milliseconds(static_cast<std::int64_t>(rng.Below(3)) * 40);
      if (rng.Below(4) == 0) {
        ++tally.failed_migrates;
        continue;
      }
      engine.Commit(m.file, m.to, now);
      ref.Commit(m.file, m.to, now);
    }
    if (!same_state(when + " after Commit")) return false;
  }
  tally.promotions_frozen += ref.promotions_frozen;
  tally.storm_freezes += ref.storm_freezes;

  // Two more windows a dwell apart, the second one quiet (the first one's
  // MIGRATEs fail): every polling file is then settled past its dwell, so
  // the engine must hold state for the delegated files only.
  for (int closing = 0; closing < 2; ++closing) {
    now += std::max<Duration>(1, config.dwell);
    std::vector<policy::Migration> failed;
    if (!tick("closing tick", failed)) return false;
  }
  const std::size_t kept = SnapshotFiles(engine).size();
  if (kept != delegated()) {
    ADD_FAILURE() << where << ": " << kept << " files hold state after a "
                  << "quiet dwell, " << delegated() << " are delegated";
    return false;
  }
  tally.forgotten += ref.tracked() - kept;
  return true;
}

TEST(PolicyEngineDifferential, MatchesFullWalkOnSeededSchedules) {
  constexpr std::uint64_t kSchedules = 2500;
  PolicyTally tally;
  for (std::uint64_t seed = 1; seed <= kSchedules; ++seed) {
    if (!RunPolicySchedule(seed, tally)) break;
  }
  // The schedules must reach every branch, not only the easy one.
  EXPECT_GT(tally.ticks, 100'000u);
  EXPECT_GT(tally.migrations, 10'000u);
  EXPECT_GT(tally.failed_migrates, 2'000u);
  EXPECT_GT(tally.promotions_frozen, 1'000u);
  EXPECT_GT(tally.storm_freezes, 1'000u);
  EXPECT_GT(tally.forgotten, 1'000u);
  // And the engine must have skipped work.
  EXPECT_LT(tally.visits, tally.full_walks);
}

// ---------------------------------------------------------------------------
// Integration: adaptive sessions on the testbed
// ---------------------------------------------------------------------------

class PolicyTest : public ::testing::Test {
 protected:
  PolicyTest() { bed_.EnableTracing(1 << 18); }

  void TearDown() override { testutil::ExpectTraceClean(bed_); }

  static SessionConfig AdaptiveConfig() {
    SessionConfig config;
    config.model = ConsistencyModel::kInvalidationPolling;
    config.adaptive = true;
    config.poll_period = Seconds(10);
    config.poll_max_period = Seconds(10);
    config.policy_period = Seconds(5);
    config.policy_dwell = Seconds(10);
    return config;
  }

  /// Every application read must reach the proxy for the engine to see it.
  static kclient::MountOptions Observable() {
    kclient::MountOptions options;
    options.noac = true;
    options.max_cached_bytes = 0;
    return options;
  }

  sim::Task<void> Advance(Duration d) { co_await sim::Sleep(bed_.sched(), d); }

  template <typename SessionT>
  void Seed(SessionT& session, const std::string& path) {
    auto fd = RunTask(bed_.sched(), session.mount(0).Open(path, kCreateWrite));
    ASSERT_TRUE(fd.has_value());
    (void)RunTask(bed_.sched(),
                  session.mount(0).Write(*fd, 0, Bytes(64, 1)));
    (void)RunTask(bed_.sched(), session.mount(0).Close(*fd));
  }

  template <typename SessionT>
  void ReadOnce(SessionT& session, std::size_t client,
                const std::string& path) {
    auto fd = RunTask(bed_.sched(), session.mount(client).Open(path, kRead));
    ASSERT_TRUE(fd.has_value());
    (void)RunTask(bed_.sched(), session.mount(client).Read(*fd, 0, 64));
    (void)RunTask(bed_.sched(), session.mount(client).Close(*fd));
  }

  template <typename SessionT>
  void WriteOnce(SessionT& session, std::size_t client,
                 const std::string& path, std::uint8_t fill) {
    auto fd =
        RunTask(bed_.sched(), session.mount(client).Open(path, kReadWrite));
    ASSERT_TRUE(fd.has_value());
    (void)RunTask(bed_.sched(),
                  session.mount(client).Write(*fd, 0, Bytes(64, fill)));
    (void)RunTask(bed_.sched(), session.mount(client).Close(*fd));
  }

  Testbed bed_;
};

TEST_F(PolicyTest, HotReaderPromotesThenContentionDemotes) {
  bed_.AddWanClient();
  bed_.AddWanClient();
  auto& session = bed_.CreateSession(AdaptiveConfig(), {0, 1}, Observable());

  Seed(session, "/hot");
  // Phase A: client 1 reads every second for 12 s — two agreeing policy
  // windows promote /hot to a read delegation.
  for (int i = 0; i < 12; ++i) {
    ReadOnce(session, 1, "/hot");
    (void)RunTask(bed_.sched(), Advance(Seconds(1)));
  }
  EXPECT_GT(session.proxy(1).policy()->promotions(), 0u);
  EXPECT_GT(session.proxy(1).stats().migrations, 0u);
  EXPECT_GT(session.server->stats().migrations_served, 0u);

  // Phase B: both clients write the same file — write-write sharing demotes
  // it back to polling once the dwell expires.
  for (int i = 0; i < 14; ++i) {
    WriteOnce(session, 0, "/hot", 2);
    ReadOnce(session, 1, "/hot");
    WriteOnce(session, 1, "/hot", 3);
    (void)RunTask(bed_.sched(), Advance(Seconds(1)));
  }
  (void)RunTask(bed_.sched(), Advance(Seconds(12)));
  EXPECT_GT(session.proxy(1).policy()->demotions(), 0u);

  RunTask(bed_.sched(), session.Shutdown());
}

TEST_F(PolicyTest, MigrationRoutesThroughOwningShard) {
  FleetConfig config;
  config.shards = 2;
  config.aggregate = false;
  config.session = AdaptiveConfig();
  std::vector<int> clients{bed_.AddWanClient(), bed_.AddWanClient()};
  auto& session = bed_.CreateFleetSession(config, clients,
                                          /*active_mounts=*/2, Observable());

  (void)RunTask(bed_.sched(), Advance(Seconds(15)));  // fleet registered
  // Six distinct files spread across the two shards' handle slices.
  for (int f = 0; f < 6; ++f) Seed(session, "/f" + std::to_string(f));
  for (int i = 0; i < 12; ++i) {
    for (int f = 0; f < 6; ++f) {
      ReadOnce(session, 1, "/f" + std::to_string(f));
    }
    (void)RunTask(bed_.sched(), Advance(Seconds(1)));
  }

  // Every MIGRATE the client performed was served by the file's owning
  // shard; with six files both slices see traffic.
  std::uint64_t served = 0;
  for (std::size_t k = 0; k < 2; ++k) {
    served += session.shard(k).stats().migrations_served;
  }
  EXPECT_GT(served, 0u);
  EXPECT_EQ(served, session.proxy(1).stats().migrations);
  EXPECT_GT(session.proxy(1).policy()->promotions(), 0u);

  RunTask(bed_.sched(), session.Shutdown());
}

// ---------------------------------------------------------------------------
// The observatory only reads: turning metrics on must not move a decision.
// ---------------------------------------------------------------------------

sim::Task<void> SleepFor(sim::Scheduler& sched, Duration d) {
  co_await sim::Sleep(sched, d);
}

/// One writer and two readers share /hot on an adaptive session. Both
/// readers earn read delegations, so every write recalls two grants: each
/// reader sees 5 recalls per 5 s policy window, the server 10, and the storm
/// breaker threshold (8) lies between. Returns the server's recall count and
/// the policy counters summed over all clients (decisions, promotions,
/// demotions, frozen promotions, storm freezes).
std::vector<std::uint64_t> SharedFilePolicyCounters(bool metrics) {
  Testbed bed;
  if (metrics) bed.EnableMetrics();
  for (int i = 0; i < 3; ++i) bed.AddWanClient();
  SessionConfig config;
  config.model = ConsistencyModel::kInvalidationPolling;
  config.adaptive = true;
  config.poll_period = Seconds(10);
  config.poll_max_period = Seconds(10);
  config.policy_period = Seconds(5);
  config.policy_dwell = Seconds(10);
  config.policy_storm_recalls = 8;
  kclient::MountOptions observable;
  observable.noac = true;
  observable.max_cached_bytes = 0;
  auto& session = bed.CreateSession(config, {0, 1, 2}, observable);

  auto access = [&](std::size_t client, OpenFlags flags, bool write) {
    kclient::KernelClient& mount = session.mount(client);
    auto fd = RunTask(bed.sched(), mount.Open("/hot", flags));
    EXPECT_TRUE(fd.has_value());
    if (!fd.has_value()) return;
    if (write) {
      (void)RunTask(bed.sched(), mount.Write(*fd, 0, Bytes(64, 2)));
    } else {
      (void)RunTask(bed.sched(), mount.Read(*fd, 0, 64));
    }
    (void)RunTask(bed.sched(), mount.Close(*fd));
  };

  access(0, kCreateWrite, /*write=*/true);
  for (int i = 0; i < 40; ++i) {
    access(0, kReadWrite, /*write=*/true);
    access(1, kRead, /*write=*/false);
    access(2, kRead, /*write=*/false);
    RunTask(bed.sched(), SleepFor(bed.sched(), Seconds(1)));
  }
  RunTask(bed.sched(), session.Shutdown());

  const proxy::ProxyServerStats& server = session.server->stats();
  std::vector<std::uint64_t> counters{server.recalls_read + server.recalls_write,
                                      0, 0, 0, 0, 0};
  for (proxy::ProxyClient* proxy : session.proxies) {
    const PolicyEngine& engine = *proxy->policy();
    counters[1] += engine.decisions();
    counters[2] += engine.promotions();
    counters[3] += engine.demotions();
    counters[4] += engine.promotions_frozen();
    counters[5] += engine.storm_freezes();
  }
  return counters;
}

TEST(PolicyObservatoryTest, MetricsDoNotChangePolicyDecisions) {
  const std::vector<std::uint64_t> plain = SharedFilePolicyCounters(false);
  const std::vector<std::uint64_t> observed = SharedFilePolicyCounters(true);
  EXPECT_GT(plain[0], 0u) << "no delegation was ever recalled";
  EXPECT_GT(plain[2], 0u) << "no file was ever promoted";
  EXPECT_EQ(plain, observed);
}

// ---------------------------------------------------------------------------
// Fault injection: invariant 6 must catch a drain-skipping server.
// (No clean-trace TearDown — violations are the expected outcome.)
// ---------------------------------------------------------------------------

class PolicyFaultTest : public ::testing::Test {
 protected:
  PolicyFaultTest() { bed_.EnableTracing(1 << 18); }

  sim::Task<void> Advance(Duration d) { co_await sim::Sleep(bed_.sched(), d); }

  /// Promotes /hot on client 1, buffers invalidations for it (client 0
  /// writes while the poll period is far too long to drain them naturally),
  /// then forces a demotion. With `skip_drain` the server switches modes
  /// without delivering the buffered entries — exactly what invariant 6
  /// (version-continuous migration) exists to catch.
  std::vector<trace::Violation> RunScenario(bool skip_drain) {
    SessionConfig config;
    config.model = proxy::ConsistencyModel::kInvalidationPolling;
    config.adaptive = true;
    config.poll_period = Seconds(300);  // polling never beats the migration
    config.poll_max_period = Seconds(300);
    config.policy_period = Seconds(5);
    config.policy_dwell = Seconds(10);
    bed_.InjectFaults({.skip_drain = skip_drain});

    bed_.AddWanClient();
    bed_.AddWanClient();
    kclient::MountOptions observable;
    observable.noac = true;
    observable.max_cached_bytes = 0;
    auto& session = bed_.CreateSession(config, {0, 1}, observable);
    auto& writer = session.mount(0);
    auto& reader = session.mount(1);

    auto seed = RunTask(bed_.sched(), writer.Open("/hot", kCreateWrite));
    EXPECT_TRUE(seed.has_value());
    (void)RunTask(bed_.sched(), writer.Write(*seed, 0, Bytes(64, 1)));
    (void)RunTask(bed_.sched(), writer.Close(*seed));

    // Promote: reader hammers /hot until the engine migrates it.
    for (int i = 0; i < 12; ++i) {
      auto fd = RunTask(bed_.sched(), reader.Open("/hot", kRead));
      EXPECT_TRUE(fd.has_value());
      (void)RunTask(bed_.sched(), reader.Read(*fd, 0, 64));
      (void)RunTask(bed_.sched(), reader.Close(*fd));
      (void)RunTask(bed_.sched(), Advance(Seconds(1)));
    }

    // Contend: each round the writer mutates (appending an entry to the
    // reader's invalidation buffer and recalling its grant) and the reader
    // reads + writes (recall + local write -> contended -> demote).
    for (int i = 0; i < 14; ++i) {
      auto wfd = RunTask(bed_.sched(), writer.Open("/hot", kReadWrite));
      EXPECT_TRUE(wfd.has_value());
      (void)RunTask(bed_.sched(), writer.Write(*wfd, 0, Bytes(64, 2)));
      (void)RunTask(bed_.sched(), writer.Close(*wfd));

      auto rfd = RunTask(bed_.sched(), reader.Open("/hot", kReadWrite));
      EXPECT_TRUE(rfd.has_value());
      (void)RunTask(bed_.sched(), reader.Read(*rfd, 0, 64));
      (void)RunTask(bed_.sched(), reader.Write(*rfd, 0, Bytes(64, 3)));
      (void)RunTask(bed_.sched(), reader.Close(*rfd));
      (void)RunTask(bed_.sched(), Advance(Seconds(1)));
    }
    (void)RunTask(bed_.sched(), Advance(Seconds(12)));
    EXPECT_GT(session.proxy(1).policy()->demotions(), 0u);

    RunTask(bed_.sched(), session.Shutdown());
    EXPECT_EQ(bed_.trace_buffer()->dropped(), 0u);
    return trace::TraceChecker(proxy::NfsTraceCheckerConfig())
        .Check(*bed_.trace_buffer());
  }

  Testbed bed_;
};

TEST_F(PolicyFaultTest, DrainingMigrationIsVersionContinuous) {
  const auto violations = RunScenario(/*skip_drain=*/false);
  EXPECT_TRUE(violations.empty())
      << violations.size() << " violation(s), first: "
      << (violations.empty() ? "" : violations[0].detail);
}

TEST_F(PolicyFaultTest, SkippedDrainIsCaught) {
  const auto violations = RunScenario(/*skip_drain=*/true);
  ASSERT_FALSE(violations.empty())
      << "the server migrated a file with buffered invalidations undelivered "
         "and the checker did not notice";
  bool mentions_migration = false;
  for (const auto& v : violations) {
    if (v.detail.find("migrat") != std::string::npos) {
      mentions_migration = true;
    }
  }
  EXPECT_TRUE(mentions_migration) << violations[0].detail;
}

}  // namespace
}  // namespace gvfs::workloads
