#include "idle_spinners.h"

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

namespace {

/// Median time, in ns, of a fixed integer loop over `probe` on the
/// calling thread's current CPU.
double loop_ns(std::chrono::milliseconds probe) {
  using Clock = std::chrono::steady_clock;
  std::vector<double> chunks;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const Clock::time_point end = Clock::now() + probe;
  while (Clock::now() < end) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < 4096; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    chunks.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t0).count());
  }
  // Keeps the loop from being optimised away.
  if (x == 0) chunks.push_back(0);
  std::nth_element(chunks.begin(), chunks.begin() + static_cast<std::ptrdiff_t>(chunks.size() / 2),
                   chunks.end());
  return chunks[chunks.size() / 2];
}

void pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  ::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set);
}

}  // namespace

IdleSpinners::IdleSpinners() {
  const long cpus = ::sysconf(_SC_NPROCESSORS_ONLN);
  for (long cpu = 1; cpu < cpus; ++cpu) {
    threads_.emplace_back([this, cpu] {
      // Without SCHED_IDLE a spinner would compete with the program:
      // then it does not spin at all.
      const sched_param param{};
      if (::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &param) != 0) return;
      pin_to(static_cast<int>(cpu));
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
  }
}

void pin_to_quietest_cpu() {
  const int cpus = static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN));
  int best = 0;
  double best_ns = 0;
  for (int cpu = 0; cpu < cpus; ++cpu) {
    pin_to(cpu);
    const double ns = loop_ns(std::chrono::milliseconds(10));
    if (cpu == 0 || ns < best_ns) {
      best = cpu;
      best_ns = ns;
    }
  }
  pin_to(best);
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads_) t.join();
}

}  // namespace perfbench
