#include "policy/policy.h"

namespace gvfs::policy {

namespace {

bool IsPromotion(FileMode from, FileMode to) {
  return static_cast<std::uint32_t>(to) > static_cast<std::uint32_t>(from);
}

}  // namespace

const char* FileModeName(FileMode mode) {
  switch (mode) {
    case FileMode::kPolling:
      return "polling";
    case FileMode::kReadDelegation:
      return "read-delegation";
    case FileMode::kWriteDelegation:
      return "write-delegation";
  }
  return "?";
}

const char* AccessClassName(AccessClass cls) {
  switch (cls) {
    case AccessClass::kIdle:
      return "idle";
    case AccessClass::kReadShared:
      return "read-shared";
    case AccessClass::kSingleWriter:
      return "single-writer";
    case AccessClass::kWriteHot:
      return "write-hot";
    case AccessClass::kContended:
      return "contended";
  }
  return "?";
}

PolicyEngine::PolicyEngine(PolicyConfig config) : config_(config) {}

void PolicyEngine::OnRead(const FileId& file) { ++files_[file].reads; }

void PolicyEngine::OnWrite(const FileId& file) { ++files_[file].writes; }

void PolicyEngine::OnInvalidation(const FileId& file) {
  ++files_[file].remote_invs;
}

void PolicyEngine::OnRecall(const FileId& file) {
  ++files_[file].recalls;
  ++recalls_;
}

AccessClass PolicyEngine::Classify(const PolicyState& s) const {
  // Write sharing: we write a file that remote parties also touch (their
  // writes reach us as invalidations, or their access recalls our grant).
  // Any delegation here just bounces, so back off to polling.
  if (s.writes > 0 && (s.remote_invs > 0 || s.recalls > 0)) {
    return AccessClass::kContended;
  }
  if (s.writes >= config_.write_hot && s.writes > s.reads) {
    return AccessClass::kWriteHot;
  }
  if (s.writes > 0) return AccessClass::kSingleWriter;
  // A hot read file earns (and keeps) a read delegation even while a remote
  // writer keeps recalling it: the recall push delivers freshness faster
  // than the poll period does, which is the whole point of migrating. The
  // recall cost is only worth paying for a *fast* reader, though — a file
  // read too rarely to clear the promotion bar but still drawing recalls is
  // contended, and demotes.
  if (s.reads >= config_.promote_reads) return AccessClass::kReadShared;
  if (s.recalls > 0) return AccessClass::kContended;
  return AccessClass::kIdle;
}

FileMode PolicyEngine::TargetFor(const PolicyState& s, AccessClass cls) const {
  switch (cls) {
    case AccessClass::kIdle:
      return s.mode;  // hold
    case AccessClass::kReadShared:
      return FileMode::kReadDelegation;
    case AccessClass::kSingleWriter:
    case AccessClass::kWriteHot:
      // Write-through sessions gain nothing from a write grant: hold.
      return config_.write_delegation ? FileMode::kWriteDelegation : s.mode;
    case AccessClass::kContended:
      return FileMode::kPolling;
  }
  return s.mode;
}

AccessClass PolicyEngine::ClassifyOpenWindow(const FileId& file) const {
  auto it = files_.find(file);
  return it == files_.end() ? AccessClass::kIdle : Classify(it->second);
}

std::vector<Migration> PolicyEngine::Tick(SimTime now) {
  // Storm breaker first, so this window's decisions see the fresh state.
  const std::uint64_t delta = recalls_ - recalls_at_tick_;
  recalls_at_tick_ = recalls_;
  if (delta >= config_.storm_recalls) {
    frozen_until_ = now + config_.storm_freeze;
    ++stats_.storm_freezes;
  }
  frozen_now_ = now < frozen_until_;

  std::vector<Migration> out;
  for (auto& [file, s] : files_) {
    const AccessClass cls = Classify(s);
    const FileMode target = TargetFor(s, cls);
    ++stats_.decisions;
    if (tracer_.enabled()) {
      tracer_.Policy(trace::EventType::kPolicyDecide, host_, file.fsid,
                     file.ino, static_cast<std::uint32_t>(s.mode),
                     static_cast<std::uint32_t>(target),
                     frozen_now_ ? trace::kPolicyFlagFrozen : 0);
    }

    const bool agreed = s.has_prev_target && s.prev_target == target;
    const bool dwell_over =
        !s.ever_migrated || now - s.migrated_at >= config_.dwell;
    if (target != s.mode && agreed && dwell_over) {
      if (frozen_now_ && IsPromotion(s.mode, target)) {
        ++stats_.promotions_frozen;
      } else {
        out.push_back(Migration{file, s.mode, target});
      }
    }

    s.prev_target = target;
    s.has_prev_target = true;
    s.reads = s.writes = s.remote_invs = s.recalls = 0;
  }
  return out;
}

void PolicyEngine::Commit(const FileId& file, FileMode to, SimTime now) {
  PolicyState& s = files_[file];
  if (IsPromotion(s.mode, to)) {
    ++stats_.promotions;
  } else if (to != s.mode) {
    ++stats_.demotions;
  }
  s.mode = to;
  s.prev_target = to;
  s.migrated_at = now;
  s.ever_migrated = true;
}

FileMode PolicyEngine::ModeOf(const FileId& file) const {
  auto it = files_.find(file);
  return it == files_.end() ? FileMode::kPolling : it->second.mode;
}

void PolicyEngine::AttachMetrics(metrics::Registry& registry,
                                 const std::string& prefix) {
  metrics::RegisterCounters(registry, prefix + "policy_", stats_);
  registry.AddProbe(prefix + "policy_files_delegated", [this] {
    double n = 0;
    for (const auto& [file, s] : files_) {
      (void)file;
      if (s.mode != FileMode::kPolling) ++n;
    }
    return n;
  });
  registry.AddProbe(prefix + "policy_frozen",
                    [this] { return frozen_now_ ? 1.0 : 0.0; });
}

void PolicyEngine::SetTracer(trace::Tracer tracer, HostId host) {
  tracer_ = tracer;
  host_ = host;
}

JsonObject PolicyEngine::SnapshotState() const {
  JsonObject snap;
  snap.Add("role", "policy_engine");
  snap.Add("frozen", frozen_now_);
  snap.Add("frozen_until_ns", static_cast<std::uint64_t>(frozen_until_));
  for (const auto& field : PolicyStats::Fields()) {
    snap.Add(field.name, stats_.*field.member);
  }
  std::vector<JsonObject> files;
  for (const auto& [file, s] : files_) {
    JsonObject f;
    f.Add("fh", std::to_string(file.fsid) + ":" + std::to_string(file.ino));
    f.Add("mode", FileModeName(s.mode));
    f.Add("prev_target",
          s.has_prev_target ? FileModeName(s.prev_target) : "none");
    f.Add("migrated_at_ns", static_cast<std::uint64_t>(s.migrated_at));
    f.Add("ever_migrated", s.ever_migrated);
    f.Add("reads", static_cast<std::uint64_t>(s.reads));
    f.Add("writes", static_cast<std::uint64_t>(s.writes));
    f.Add("remote_invs", static_cast<std::uint64_t>(s.remote_invs));
    f.Add("recalls", static_cast<std::uint64_t>(s.recalls));
    files.push_back(f);
  }
  snap.Add("files", files);
  return snap;
}

}  // namespace gvfs::policy
