// Host-side work counters for the benchmark process: CPU time, minor page
// faults, peak RSS and heap allocations.
//
// Every host clock read of the benchmark goes through host.cpp, the one place
// that includes a clock API. Allocations are counted by the replacement
// `operator new` in host.cpp, which is linked into the benchmark binary only;
// the simulator libraries are unchanged.
#pragma once

#include <cstdint>

namespace perfbench::host {

/// Process CPU time (user + sys), nanoseconds.
std::int64_t CpuNs();

/// CPU time of the calling thread, nanoseconds: read once per scheduler step
/// in the traced run (the simulator runs on one thread).
std::int64_t ThreadCpuNs();

/// Heap allocations made through operator new since process start.
std::uint64_t AllocCount();

/// One reading of every counter, for phase deltas.
struct Sample {
  std::int64_t cpu_ns = 0;
  std::int64_t user_ns = 0;
  std::int64_t sys_ns = 0;
  std::int64_t minflt = 0;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
};

Sample Now();

/// Minor page faults of the calling thread (the simulator is single-
/// threaded, so this is the process's).
std::int64_t MinorFaults();

/// Peak resident set size of the process, MiB.
double PeakRssMb();

}  // namespace perfbench::host
