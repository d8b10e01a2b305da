// The contract between the harness (main.cpp) and the three workloads.
// A workload generates its whole input — identities, policies, jobs,
// RSLs, object paths, the op sequences of both load phases and the
// oracle — from the seed alone, before anything is timed. Each round
// then builds a fresh serving stack (timed as set-up), drives the fixed
// op sequences through it, and tears it down again, so no registry
// carries over between rounds.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"

namespace stackbench {

enum class Phase : std::uint8_t { kClosed, kOpen };

struct WorkloadConfig {
  std::uint64_t seed = 1;
  int threads = 4;
  std::string workdir;  // audit files and span dumps go here
};

// One metric as printed: name, value, unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

class FrameTap;  // trace.h

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::size_t ops(Phase phase) const = 0;
  // Open loop: fixed arrival rate (ops/s) and the latency limit an op
  // must meet, with the expected outcome, to count as within SLO.
  virtual double open_rate() const = 0;
  virtual double latency_limit_us() const = 0;
  // Ops between policy swaps; the closed phase is timed in chunks of
  // this many ops, so every chunk holds one swap.
  virtual std::size_t swap_every() const = 0;

  // Builds a fresh stack. `traced` inserts the timing decorators.
  virtual void Build(bool traced) = 0;
  virtual void Teardown() = 0;

  // Runs every distinct request tuple once through the live stack on one
  // thread and checks it against the oracle.
  virtual CorrectnessReport CheckCorrectness() = 0;
  // Flips the oracle's expectation for the tuple of closed-loop op 0
  // (the benchmark's own test of its abort path).
  virtual void CorruptOracle() = 0;

  // Executes op `index` of `phase` as generator thread `thread`.
  virtual OpOutcome Run(Phase phase, std::size_t index, int thread) = 0;

  // Cumulative stack counters (server busy time, sheds, audit sink
  // writes/drops, library spans recorded); the harness takes deltas.
  virtual std::map<std::string, double> Counters() = 0;
  // Outermost frames of the traced stack (null when the workload has no
  // wire seam).
  virtual FrameTap* tap() { return nullptr; }
  // Isolated probes of layers with no seam, on this workload's inputs.
  // Called once on a built traced stack.
  virtual void Probe(Metrics* out) = 0;
};

std::unique_ptr<Workload> MakeGramManage(const WorkloadConfig& config);
std::unique_ptr<Workload> MakeFleetSubmit(const WorkloadConfig& config);
std::unique_ptr<Workload> MakeDataTransfer(const WorkloadConfig& config);

}  // namespace stackbench
