// The host the benchmark shares. On a virtual machine the hypervisor
// takes CPU time from the guest whenever other tenants need it ("steal"),
// in bursts of a fraction of a second. A thread handing work to another
// thread waits for both vCPUs, so a burst that steals a fifth of the CPU
// time can halve throughput. HostSampler reads the steal counters a few
// times per measured sample, so every sample of a run — a closed-loop
// chunk, an open-loop window, a stack build — can be given the share of
// CPU time stolen while it ran, and the figures are taken from the
// samples the host disturbed least.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.h"

namespace stackbench {

// Aggregate CPU time from /proc/stat, in clock ticks: all of it, the
// idle part (idle + iowait) and the stolen part.
struct HostCpu {
  double total = 0;
  double idle = 0;
  double steal = 0;
};

inline HostCpu ReadHostCpu() {
  HostCpu cpu;
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  // user nice system idle iowait irq softirq steal (guest time is
  // already inside user and nice).
  for (int field = 0; field < 8 && in; ++field) {
    double ticks = 0;
    in >> ticks;
    cpu.total += ticks;
    if (field == 3 || field == 4) cpu.idle += ticks;
    if (field == 7) cpu.steal = ticks;
  }
  return cpu;
}

// One measured figure and the stretch of the run it was measured over.
struct Sample {
  double value = 0;
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
};

class HostSampler {
 public:
  HostSampler() : thread_([this] { Loop(); }) {}
  ~HostSampler() {
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }
  HostSampler(const HostSampler&) = delete;
  HostSampler& operator=(const HostSampler&) = delete;

  // Percent of the time the guest's CPUs wanted to run (busy or stolen)
  // that was stolen between `begin_ns` and `end_ns`, widened to the
  // readings around them.
  double StealPct(std::int64_t begin_ns, std::int64_t end_ns) {
    std::lock_guard lock(mu_);
    if (points_.size() < 2) return 0;
    const auto before = std::upper_bound(
        points_.begin(), points_.end(), begin_ns,
        [](std::int64_t at, const Point& p) { return at < p.at_ns; });
    const auto from = before == points_.begin() ? before : before - 1;
    auto to = std::lower_bound(
        points_.begin(), points_.end(), end_ns,
        [](const Point& p, std::int64_t at) { return p.at_ns < at; });
    if (to == points_.end()) --to;
    if (to <= from) return 0;
    const double wanted = (to->cpu.total - to->cpu.idle) -
                          (from->cpu.total - from->cpu.idle);
    return wanted > 0 ? 100 * (to->cpu.steal - from->cpu.steal) / wanted : 0;
  }

  // The values of the `share` of `samples` the host stole least from
  // (at least one; earlier samples first among equals).
  std::vector<double> Quietest(const std::vector<Sample>& samples, double share) {
    std::vector<double> kept;
    for (const auto& [steal, index] : Ranked(samples, share)) {
      kept.push_back(samples[index].value);
    }
    return kept;
  }

  // The highest steal share among the samples Quietest keeps.
  double MaxStealPct(const std::vector<Sample>& samples, double share) {
    const auto ranked = Ranked(samples, share);
    return ranked.empty() ? 0 : ranked.back().first;
  }

 private:
  struct Point {
    std::int64_t at_ns = 0;
    HostCpu cpu;
  };

  // (steal %, index) of the `share` of `samples` stolen from least.
  std::vector<std::pair<double, std::size_t>> Ranked(
      const std::vector<Sample>& samples, double share) {
    std::vector<std::pair<double, std::size_t>> order;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      order.emplace_back(StealPct(samples[i].begin_ns, samples[i].end_ns), i);
    }
    std::sort(order.begin(), order.end());
    const auto keep = static_cast<std::size_t>(
        share * static_cast<double>(order.size()));
    order.resize(std::min(order.size(), std::max<std::size_t>(1, keep)));
    return order;
  }

  // Procfs counts in 10 ms ticks per CPU; a reading every 20 ms resolves
  // steal over the shortest sample (a few hundred ms) to about a percent.
  void Loop() {
    std::unique_lock lock(mu_);
    while (!stop_) {
      lock.unlock();
      Point point{NowNs(), ReadHostCpu()};
      lock.lock();
      points_.push_back(point);
      cv_.wait_for(lock, std::chrono::milliseconds(20), [this] { return stop_; });
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Point> points_;  // guarded by mu_, in time order
  bool stop_ = false;          // guarded by mu_
  std::thread thread_;         // last: starts once the members it uses exist
};

}  // namespace stackbench
