// Property-style parameterized sweeps over the consistency models'
// invariants:
//
//  - Invalidation polling: a remote change becomes visible within one
//    polling period (plus delivery latency) — the model's staleness bound —
//    for every polling period.
//  - Delegation/callback: a remote change is visible immediately (no
//    staleness window), for every delegation expiry setting.
//  - GETINV batching: the number of polls in one round is ceil(N/batch) for
//    N invalidations around the batch size.
#include <gtest/gtest.h>

#include "test_util.h"
#include "workloads/testbed.h"

namespace gvfs::workloads {
namespace {

using kclient::MountOptions;
using kclient::OpenFlags;
using proxy::CacheMode;
using proxy::ConsistencyModel;
using proxy::SessionConfig;
using testutil::RunTask;

constexpr OpenFlags kWrite{.read = true, .write = true};
constexpr OpenFlags kCreateWrite{.read = true, .write = true, .create = true};

sim::Task<void> Advance(sim::Scheduler* sched, Duration d) {
  co_await sim::Sleep(*sched, d);
}

/// Writes `value` into /shared through `writer` (flushed by close).
sim::Task<void> WriteValue(kclient::KernelClient* writer, std::uint8_t value) {
  auto fd = co_await writer->Open("/shared", kCreateWrite);
  if (!fd) co_return;
  (void)co_await writer->Write(*fd, 0, Bytes(16, value));
  (void)co_await writer->Close(*fd);
}

sim::Task<std::uint8_t> ReadValue(kclient::KernelClient* reader) {
  auto fd = co_await reader->Open("/shared", OpenFlags{});
  if (!fd) co_return 0;
  auto data = co_await reader->Read(*fd, 0, 16);
  (void)co_await reader->Close(*fd);
  co_return data && !data->empty() ? (*data)[0] : 0;
}

// ---------------------------------------------------------------------------
// Staleness bound under invalidation polling
// ---------------------------------------------------------------------------

class PollingStalenessBound : public ::testing::TestWithParam<int> {};

TEST_P(PollingStalenessBound, ChangeVisibleWithinOnePeriod) {
  const int period_s = GetParam();

  Testbed bed;
  bed.AddWanClient();
  bed.AddWanClient();
  SessionConfig config;
  config.model = ConsistencyModel::kInvalidationPolling;
  config.poll_period = Seconds(period_s);
  config.poll_max_period = Seconds(period_s);
  // Kernel attribute cache must not extend the window beyond the session's
  // bound (the middleware pairs short polling with a short kernel TTL).
  MountOptions kernel;
  kernel.attr_timeout = Seconds(1);
  auto& session = bed.CreateSession(config, {0, 1}, kernel);

  (void)RunTask(bed.sched(), WriteValue(&session.mount(0), 1));
  EXPECT_EQ(RunTask(bed.sched(), ReadValue(&session.mount(1))), 1);

  (void)RunTask(bed.sched(), WriteValue(&session.mount(0), 2));

  // Property: after (one polling period + kernel TTL + slack) the new value
  // is visible, for every polling period.
  (void)RunTask(bed.sched(), Advance(&bed.sched(), Seconds(period_s + 2)));
  EXPECT_EQ(RunTask(bed.sched(), ReadValue(&session.mount(1))), 2)
      << "staleness exceeded one polling period (" << period_s << " s)";
}

INSTANTIATE_TEST_SUITE_P(Periods, PollingStalenessBound,
                         ::testing::Values(5, 10, 20, 40, 80));

// ---------------------------------------------------------------------------
// No staleness window under delegation/callback
// ---------------------------------------------------------------------------

class DelegationNoStaleness : public ::testing::TestWithParam<int> {};

TEST_P(DelegationNoStaleness, ChangeVisibleImmediately) {
  const int expiry_s = GetParam();

  Testbed bed;
  bed.AddWanClient();
  bed.AddWanClient();
  SessionConfig config;
  config.model = ConsistencyModel::kDelegationCallback;
  config.cache_mode = CacheMode::kWriteBack;
  config.deleg_expiry = Seconds(expiry_s);
  config.deleg_renew = Seconds(expiry_s * 4 / 5);
  MountOptions noac;
  noac.noac = true;
  auto& session = bed.CreateSession(config, {0, 1}, noac);

  (void)RunTask(bed.sched(), WriteValue(&session.mount(0), 1));
  EXPECT_EQ(RunTask(bed.sched(), ReadValue(&session.mount(1))), 1);

  // Interleave writers and readers with zero think time: every read must see
  // the preceding write, at every expiry setting.
  for (std::uint8_t v = 2; v <= 6; ++v) {
    (void)RunTask(bed.sched(), WriteValue(&session.mount(0), v));
    EXPECT_EQ(RunTask(bed.sched(), ReadValue(&session.mount(1))), v)
        << "stale read under strong consistency (expiry " << expiry_s << " s)";
    (void)RunTask(bed.sched(), Advance(&bed.sched(), Seconds(1)));
  }
}

INSTANTIATE_TEST_SUITE_P(Expiries, DelegationNoStaleness,
                         ::testing::Values(10, 60, 600));

// ---------------------------------------------------------------------------
// GETINV batching arithmetic
// ---------------------------------------------------------------------------

/// The parameter is the file count in eighths of a GETINV batch (64 files),
/// so the sweep runs from half a batch to eight batches.
class GetInvBatching : public ::testing::TestWithParam<int> {};

TEST_P(GetInvBatching, PollsCoverInvalidationsInBatches) {
  constexpr int kBatch = static_cast<int>(proxy::kGetInvBatch);
  const int files = GetParam() * kBatch / 8;

  Testbed bed;
  bed.AddWanClient();
  bed.AddWanClient();
  // One poll window outlasts the whole write phase, so every invalidation
  // reaches the observer in a single round.
  SessionConfig config;
  config.model = ConsistencyModel::kInvalidationPolling;
  config.poll_period = Seconds(1000);
  config.poll_max_period = Seconds(1000);
  auto& session = bed.CreateSession(config, {0, 1});
  auto& writer = session.mount(0);

  for (int i = 0; i < files; ++i) {
    auto ino = bed.fs().Create(bed.fs().root(), "f" + std::to_string(i), 0644);
    ASSERT_TRUE(ino.has_value());
  }
  // The observer bootstraps at start; its next poll is a window away.
  (void)RunTask(bed.sched(), Advance(&bed.sched(), Seconds(1)));
  const auto polls_before = session.proxy(1).stats().polls;
  const auto inv_before = session.proxy(1).stats().invalidations_applied;

  for (int i = 0; i < files; ++i) {
    auto fd = RunTask(bed.sched(), writer.Open("/f" + std::to_string(i), kWrite));
    ASSERT_TRUE(fd.has_value());
    (void)RunTask(bed.sched(), writer.Write(*fd, 0, Bytes(4, 1)));
    (void)RunTask(bed.sched(), writer.Close(*fd));
  }
  ASSERT_EQ(session.proxy(1).stats().polls, polls_before);
  (void)RunTask(bed.sched(), Advance(&bed.sched(), Seconds(1000)));

  // Every invalidation delivered, in ceil(N/batch) GETINV replies
  // (poll-again chaining).
  const auto polls = session.proxy(1).stats().polls - polls_before;
  const auto delivered = session.proxy(1).stats().invalidations_applied - inv_before;
  EXPECT_EQ(delivered, static_cast<std::uint64_t>(files));
  EXPECT_EQ(polls, static_cast<std::uint64_t>((files + kBatch - 1) / kBatch));
}

INSTANTIATE_TEST_SUITE_P(Batches, GetInvBatching, ::testing::Values(4, 8, 16, 64));

// ---------------------------------------------------------------------------
// Session isolation: per-session models do not interfere
// ---------------------------------------------------------------------------

TEST(SessionIsolation, PollingAndDelegationCoexist) {
  Testbed bed;
  bed.AddWanClient();
  bed.AddWanClient();

  SessionConfig polling;
  polling.model = ConsistencyModel::kInvalidationPolling;
  polling.poll_period = Seconds(10);
  polling.poll_max_period = Seconds(10);
  auto& weak_session = bed.CreateSession(polling, {0});

  SessionConfig strong;
  strong.model = ConsistencyModel::kDelegationCallback;
  strong.cache_mode = CacheMode::kWriteBack;
  MountOptions noac;
  noac.noac = true;
  auto& strong_session = bed.CreateSession(strong, {0, 1}, noac);

  // The strong session's clients interact with full consistency...
  (void)RunTask(bed.sched(), WriteValue(&strong_session.mount(0), 7));
  EXPECT_EQ(RunTask(bed.sched(), ReadValue(&strong_session.mount(1))), 7);

  // ...while the weak session reads the same file through its own proxies.
  EXPECT_EQ(RunTask(bed.sched(), ReadValue(&weak_session.mount(0))), 7);

  // Architectural boundary (per the paper's session model): the polling
  // protocol only reflects modifications observed by the session's OWN
  // proxy server. A write made through a different session is invisible to
  // this session's invalidation buffers, so the weak session keeps serving
  // its cached copy — sessions are isolated consistency domains.
  (void)RunTask(bed.sched(), WriteValue(&strong_session.mount(0), 8));
  (void)RunTask(bed.sched(), Advance(&bed.sched(), Seconds(45)));
  EXPECT_EQ(RunTask(bed.sched(), ReadValue(&weak_session.mount(0))), 7);
  EXPECT_GT(weak_session.proxy(0).stats().polls, 0u);
  EXPECT_GT(strong_session.server->stats().callbacks_sent, 0u);
}

}  // namespace
}  // namespace gvfs::workloads
