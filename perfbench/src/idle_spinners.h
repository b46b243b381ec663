#pragma once

#include <atomic>
#include <thread>
#include <vector>

namespace perfbench {

/// Keeps all but one CPU busy with lowest-priority (SCHED_IDLE) spinning
/// threads while alive. A virtual CPU with nothing to run halts, and the
/// hypervisor can take milliseconds to run it again when a daemon thread
/// wakes on it; that delay would be charged to the program as latency.
/// A SCHED_IDLE thread never delays real work: the kernel preempts it as
/// soon as any normal thread on its CPU becomes runnable, and still
/// counts its CPU as idle when placing woken threads. The load
/// generator's own spinning thread covers the remaining CPU, so the
/// process runs at most nproc threads.
class IdleSpinners {
 public:
  IdleSpinners();
  ~IdleSpinners();

  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Pins the calling thread to the CPU that currently runs a fixed
/// integer loop fastest. On a shared host each virtual CPU runs at full
/// speed or up to 1.7x slower, depending on what else runs on the host
/// core behind it, and that state lasts seconds; a single-threaded
/// measurement on the quietest CPU measures the program rather than its
/// neighbours.
void pin_to_quietest_cpu();

}  // namespace perfbench
