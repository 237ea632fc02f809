#include "host.h"

#include <sys/resource.h>
#include <time.h>

#include <cstdlib>
#include <new>

namespace perfbench::host {
namespace {

// Plain counters: the simulator runs on one thread.
std::uint64_t g_allocs = 0;
std::uint64_t g_alloc_bytes = 0;

std::int64_t TimevalNs(const timeval& tv) {
  return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000'000 +
         static_cast<std::int64_t>(tv.tv_usec) * 1'000;
}

void* CountedAlloc(std::size_t size) {
  ++g_allocs;
  g_alloc_bytes += size;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  ++g_allocs;
  g_alloc_bytes += size;
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

std::int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

// The benchmark's only host clock reads, both CPU time: time spent
// descheduled by other tenants is not charged.
std::int64_t CpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

std::int64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

std::uint64_t AllocCount() { return g_allocs; }

Sample Now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  Sample s;
  s.cpu_ns = CpuNs();
  s.user_ns = TimevalNs(usage.ru_utime);
  s.sys_ns = TimevalNs(usage.ru_stime);
  s.minflt = usage.ru_minflt;
  s.allocs = g_allocs;
  s.alloc_bytes = g_alloc_bytes;
  return s;
}

std::int64_t MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return usage.ru_minflt;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench::host

// Counting replacements of the global allocation functions. The sized and
// nothrow forms route here too, so every `new` in the process is counted.
void* operator new(std::size_t size) { return perfbench::host::CountedAlloc(size); }
void* operator new[](std::size_t size) { return perfbench::host::CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return perfbench::host::CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return perfbench::host::CountedAlignedAlloc(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::host::CountedAlloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::host::CountedAlloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
