// The benchmark's three workloads. Each builds its stack on a Testbed,
// runs its phases through the harness (set-up phases, then "timed", then
// "verify") and adds its own counters to the report.
#pragma once

#include "harness.h"

namespace perfbench {

/// PostMark on one WAN client through a delegation session (fig5's GVFS2).
void RunPostmarkDeleg(Harness& h);

/// Thousands of polling clients behind 4 shards and the GETINV tier re-read a
/// small shared config set while one client rewrites it.
void RunFleetAgg(Harness& h);

/// The NanoMOS software repository under an adaptive session.
void RunRepoAdaptive(Harness& h);

}  // namespace perfbench
