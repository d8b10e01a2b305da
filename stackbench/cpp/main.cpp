// stackbench: the repo benchmark binary. One process, one workload, one
// generator thread per two CPUs (at most 2). Each round builds a fresh
// stack (timed as set-up), runs a fixed-count closed loop and a
// fixed-count open loop at the workload's fixed rate, and tears the
// stack down; rounds repeat while they fit in --seconds. Every op is
// checked against the oracle; a mismatch aborts with exit code 3 and the
// offending tuple. Each figure is the median over the samples (chunks,
// windows, builds) the hypervisor stole least CPU time from (host.h).
//
//   stackbench --workload gram_manage|fleet_submit|data_transfer
//              --seed N --seconds S --trace 0|1
//              [--workdir DIR] [--corrupt-oracle setup|timed]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (from decorated stacks, plus one untraced closed loop per round for the
// tracing overhead). The last stdout line is one JSON object.
#include <malloc.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "host.h"
#include "obs/contention.h"
#include "probes.h"
#include "trace.h"
#include "workload.h"

namespace stackbench {
namespace {

// User+system CPU seconds consumed by this process so far.
double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// Peak resident set of this process so far, MiB.
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

constexpr int kMinRounds = 3;
constexpr int kMaxRounds = 40;
constexpr int kExitMismatch = 3;
// Stacks built per round: all are timed for setup_s, the last one runs.
constexpr int kSetupsPerRound = 3;
// Shares of each run's samples, least stolen first, that its figures are
// the median of (see host.h): half of the closed-loop chunks and builds,
// a quarter of the open-loop windows. A window asks for little CPU, so a
// short stall shows as a large steal share, and a single stall sets the
// window's p99.
constexpr double kQuietShare = 0.5;
constexpr double kQuietWindowShare = 0.25;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Generator threads: one per two CPUs, at most 2. A gram_manage
  // client hands each op to a server worker of its own, and the audit
  // flushers and the policy updater run beside them; more threads than
  // CPUs would measure the scheduler rather than the stack.
  int threads = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency() / 2, 1u, 2u));
  std::string workdir = ".bench_build/stackbench-run";
  std::string corrupt;  // "", "setup" or "timed"
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "stackbench: %s\nusage: stackbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--workdir DIR] "
               "[--corrupt-oracle setup|timed]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") args.seconds = std::atof(value.c_str());
    else if (flag == "--trace") args.trace = value == "1";
    else if (flag == "--workdir") args.workdir = value;
    else if (flag == "--corrupt-oracle") args.corrupt = value;
    else Usage(("unknown flag " + flag).c_str());
  }
  if (args.workload.empty()) Usage("--workload is required");
  return args;
}

// First oracle mismatch seen by any thread; set once, stops every loop.
struct Abort {
  std::atomic<bool> flag{false};
  std::mutex mu;
  std::string first;
  void Raise(const std::string& detail) {
    std::lock_guard lock(mu);
    if (!flag.load()) first = detail;
    flag.store(true);
  }
};

struct PhaseStats {
  std::size_t attempted = 0;
  std::size_t expected = 0;
  std::size_t failed = 0;
  std::size_t within_slo = 0;
  double wall_s = 0;
  double cpu_s = 0;
  // Open loop, per op of one phase (not merged across phases).
  std::vector<double> latency_us;  // from scheduled send time
  std::vector<std::uint8_t> within;  // expected outcome within the limit
  std::int64_t t0_ns = 0;            // open loop: when op 0's schedule starts
  std::vector<double> lag_us;      // actual - scheduled send
  std::string first_failure;

  void Merge(PhaseStats&& other) {
    attempted += other.attempted;
    expected += other.expected;
    failed += other.failed;
    within_slo += other.within_slo;
    if (first_failure.empty()) first_failure = std::move(other.first_failure);
  }
};

void Tally(const OpOutcome& outcome, PhaseStats* stats, Abort* abort) {
  ++stats->attempted;
  switch (outcome.verdict) {
    case Verdict::kExpected:
      ++stats->expected;
      break;
    case Verdict::kFailed:
      ++stats->failed;
      if (stats->first_failure.empty()) stats->first_failure = outcome.detail;
      break;
    case Verdict::kMismatch:
      abort->Raise(outcome.detail);
      break;
  }
}

// A sleeping thread wakes tens of microseconds late on a virtual CPU,
// so generator threads sleep only until this long before an op is due
// and spin the rest.
constexpr std::int64_t kSpinNs = 100'000;

void WaitUntil(std::int64_t when_ns) {
  for (;;) {
    const std::int64_t left = when_ns - NowNs();
    if (left <= 0) return;
    if (left > kSpinNs) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - kSpinNs));
    } else {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
  }
}

// Runs `body(thread)` on `threads` generator threads and merges their
// per-thread stats.
PhaseStats OnThreads(int threads,
                     const std::function<void(int, PhaseStats*)>& body) {
  std::vector<PhaseStats> per(threads);
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      prctl(PR_SET_TIMERSLACK, 1000UL);  // 1us: tight open-loop wakeups
      body(t, &per[t]);
    });
  }
  for (std::thread& worker : workers) worker.join();
  PhaseStats merged;
  for (PhaseStats& stats : per) merged.Merge(std::move(stats));
  return merged;
}

// Closed loop over ops [first, last): each thread sends its next op
// when the last one returns.
PhaseStats RunClosed(Workload& w, int threads, std::size_t first,
                     std::size_t last, Abort& abort) {
  std::atomic<std::size_t> next{first};
  const double cpu0 = ProcessCpuSeconds();
  const std::int64_t t0 = NowNs();
  PhaseStats stats = OnThreads(threads, [&](int t, PhaseStats* out) {
    for (std::size_t i; (i = next.fetch_add(1)) < last && !abort.flag.load();) {
      Tally(w.Run(Phase::kClosed, i, t), out, &abort);
    }
  });
  stats.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  stats.cpu_s = ProcessCpuSeconds() - cpu0;
  return stats;
}

void CheckAbort(const Abort& abort) {
  if (!abort.flag.load()) return;
  std::printf("oracle mismatch: %s\n", abort.first.c_str());
  std::fprintf(stderr, "stackbench: oracle mismatch: %s\n", abort.first.c_str());
  std::fflush(stdout);
  std::_Exit(kExitMismatch);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// The closed phase in chunks of one policy-swap period each, so every
// chunk carries the same share of swap work. Each chunk yields one
// throughput and one CPU-per-op sample, so a stretch the host stole moves
// a few samples rather than a whole round's figure.
PhaseStats RunClosedPhase(Workload& w, int threads, Abort& abort,
                          std::vector<Sample>* throughput,
                          std::vector<Sample>* cpu_us_per_op) {
  const std::size_t count = w.ops(Phase::kClosed);
  const std::size_t chunk_ops = w.swap_every();
  PhaseStats all;
  for (std::size_t first = 0; first < count; first += chunk_ops) {
    const std::int64_t begin = NowNs();
    PhaseStats chunk = RunClosed(w, threads, first,
                                 std::min(count, first + chunk_ops), abort);
    const std::int64_t end = NowNs();
    CheckAbort(abort);
    throughput->push_back(
        {static_cast<double>(chunk.expected) / chunk.wall_s, begin, end});
    cpu_us_per_op->push_back(
        {1e6 * chunk.cpu_s / static_cast<double>(chunk.attempted), begin, end});
    all.wall_s += chunk.wall_s;
    all.cpu_s += chunk.cpu_s;
    all.Merge(std::move(chunk));
  }
  return all;
}

// Open loop: op i is due at a seeded Poisson arrival time and latency
// counts from when it was due. Idle threads all wait for the next due op
// and the first one awake claims it, so one thread waking late does not
// make an op late while another thread sat idle.
PhaseStats RunOpen(Workload& w, int threads,
                   const std::vector<std::int64_t>& due_ns, Abort& abort) {
  std::atomic<std::size_t> next{0};
  const double limit_us = w.latency_limit_us();
  const std::int64_t t0 = NowNs() + 2'000'000;
  // Indexed by op, so fixed-count windows follow arrival order.
  std::vector<double> latency_us(due_ns.size()), lag_us(due_ns.size());
  std::vector<std::uint8_t> within(due_ns.size());
  PhaseStats stats = OnThreads(threads, [&](int t, PhaseStats* out) {
    for (;;) {
      std::size_t i = next.load();
      if (i >= due_ns.size() || abort.flag.load()) break;
      const std::int64_t due = t0 + due_ns[i];
      WaitUntil(due);
      if (!next.compare_exchange_strong(i, i + 1)) continue;
      const std::int64_t start = NowNs();
      const OpOutcome outcome = w.Run(Phase::kOpen, i, t);
      const double latency = static_cast<double>(NowNs() - due) / 1e3;
      Tally(outcome, out, &abort);
      latency_us[i] = latency;
      lag_us[i] = static_cast<double>(start - due) / 1e3;
      if (outcome.verdict == Verdict::kExpected && latency <= limit_us) {
        ++out->within_slo;
        within[i] = 1;
      }
    }
  });
  stats.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  stats.latency_us = std::move(latency_us);
  stats.lag_us = std::move(lag_us);
  stats.within = std::move(within);
  stats.t0_ns = t0;
  return stats;
}

// Latency percentiles and the within-limit share per consecutive
// `window`-op stretch of open-loop arrivals. A host stall inflates the
// windows it lands in, not the whole run's figure.
struct LatencyWindows {
  std::vector<Sample> p50_us, p99_us, within_pct;

  void Add(const PhaseStats& open, const std::vector<std::int64_t>& due_ns,
           std::size_t window) {
    const std::vector<double>& latency_us = open.latency_us;
    for (std::size_t begin = 0; begin + window <= latency_us.size();
         begin += window) {
      const std::size_t end = begin + window;
      const std::vector<double> part(latency_us.begin() + begin,
                                     latency_us.begin() + end);
      const std::int64_t from = open.t0_ns + due_ns[begin];
      const std::int64_t to = open.t0_ns + due_ns[end - 1] +
                              static_cast<std::int64_t>(latency_us[end - 1] * 1e3);
      p50_us.push_back({Percentile(part, 0.5), from, to});
      p99_us.push_back({Percentile(part, 0.99), from, to});
      std::size_t within = 0;
      for (std::size_t i = begin; i < end; ++i) within += open.within[i];
      within_pct.push_back(
          {100.0 * static_cast<double>(within) / static_cast<double>(window), from, to});
    }
  }
};

std::vector<std::int64_t> Arrivals(std::size_t count, double rate,
                                   std::uint64_t seed) {
  Rng rng(seed ^ 0xa5a5a5a5deadbeefULL);
  std::vector<std::int64_t> due(count);
  double at = 0;
  for (std::size_t i = 0; i < count; ++i) {
    at += rng.ExpGapNs(rate);
    due[i] = static_cast<std::int64_t>(at);
  }
  return due;
}

struct ContentionTotals {
  double wait_us = 0;
  double acquisitions = 0;
  double contended = 0;
};

ContentionTotals ReadContention() {
  ContentionTotals totals;
  for (const auto& site : gridauthz::obs::Contention().Snapshot()) {
    totals.wait_us += static_cast<double>(site.total_wait_us);
    totals.acquisitions += static_cast<double>(site.acquisitions);
    totals.contended += static_cast<double>(site.contended);
  }
  return totals;
}


// What the traced rounds accumulate for the per-layer metrics.
struct TraceTotals {
  LayerSamples samples;
  std::vector<double> overhead_pct;
  std::map<std::string, double> counters;  // summed deltas
  double traced_ops = 0;
  double traced_wall_us = 0;
  double workers = 0;
  ContentionTotals contention;
  std::vector<double> lag_us;
  Metrics probes;
  std::vector<SpanRec> last_spans;

  void Absorb(LayerSamples&& more) {
    for (int l = 0; l < kLayerCount; ++l) {
      auto& self = samples.self_us[l];
      auto& dur = samples.dur_us[l];
      self.insert(self.end(), more.self_us[l].begin(), more.self_us[l].end());
      dur.insert(dur.end(), more.dur_us[l].begin(), more.dur_us[l].end());
    }
    samples.queue_wait_us.insert(samples.queue_wait_us.end(),
                                 more.queue_wait_us.begin(),
                                 more.queue_wait_us.end());
    samples.cache_calls += more.cache_calls;
    samples.cache_hits += more.cache_hits;
    for (std::size_t i = 0; i < samples.node_attempts.size(); ++i) {
      samples.node_attempts[i] += more.node_attempts[i];
    }
  }
};

Metrics LayerMetrics(TraceTotals& t) {
  const LayerSamples& s = t.samples;
  const auto p50 = [&](Layer l) { return Percentile(s.self_us[l], 0.5); };
  const auto& c = t.counters;
  const auto counter = [&](const char* name) {
    const auto it = c.find(name);
    return it == c.end() ? 0.0 : it->second;
  };
  double node_total = 0, node_max = 0;
  for (std::size_t n : s.node_attempts) {
    node_total += static_cast<double>(n);
    node_max = std::max(node_max, static_cast<double>(n));
  }
  const double check_ns_p50 = Percentile(s.dur_us[kCheckBlock], 0.5) * 1e3;
  const double object_us_p50 = Percentile(s.dur_us[kObject], 0.5);

  Metrics m = {
      {"gram.server.queue_wait_us_p50", Percentile(s.queue_wait_us, 0.5), "us"},
      {"gram.server.queue_wait_us_p99", Percentile(s.queue_wait_us, 0.99), "us"},
      {"gram.server.worker_busy_pct",
       100 * Ratio(counter("server_busy_us"), t.workers * t.traced_wall_us), "%"},
      {"gram.server.shed", counter("server_shed"), "count"},
      // On fleet_submit the node transport is the endpoint seam.
      {"gram.endpoint.self_us_p50",
       s.self_us[kEndpoint].empty() ? p50(kNode) : p50(kEndpoint), "us"},
      {"gram.endpoint.self_us_p99",
       Percentile(s.self_us[kEndpoint].empty() ? s.self_us[kNode]
                                               : s.self_us[kEndpoint],
                  0.99),
       "us"},
      {"gram.callout.self_us_p50", p50(kCallout), "us"},
      {"core.audit.self_us_p50", p50(kAudit), "us"},
      {"core.audit.sink_submit_us_p50", p50(kSink), "us"},
      {"core.audit.dropped_pct",
       100 * Ratio(counter("audit_dropped"),
                   counter("audit_written") + counter("audit_dropped")),
       "%"},
      {"core.cache.self_us_p50", p50(kCache), "us"},
      {"core.cache.hit_pct",
       100 * Ratio(static_cast<double>(s.cache_hits),
                   static_cast<double>(s.cache_calls)),
       "%"},
      {"core.pdp.self_us_p50", p50(kPdp), "us"},
      {"core.pdp.self_us_p99", Percentile(s.self_us[kPdp], 0.99), "us"},
      {"core.pdp.calls_per_op",
       Ratio(static_cast<double>(s.self_us[kPdp].size()), t.traced_ops), "count"},
      {"core.datapath.session_open_us_p50",
       Percentile(s.dur_us[kSessionOpen], 0.5), "us"},
      {"core.datapath.check_ns_p50", check_ns_p50, "ns"},
      {"core.datapath.check_ns_p99", Percentile(s.dur_us[kCheckBlock], 0.99) * 1e3,
       "ns"},
      {"core.datapath.remints_per_1k_checks",
       1000 * Ratio(counter("remints"), counter("checks")), "count"},
      // Get/PutObject run one normalize + CheckBlock internally with no
      // seam; the run's CheckBlock median stands in for it.
      {"gridftp.object_us_p50",
       s.dur_us[kObject].empty() ? 0 : std::max(0.0, object_us_p50 - check_ns_p50 / 1e3),
       "us"},
      {"fleet.broker.self_us_p50", p50(kBroker), "us"},
      {"fleet.attempts_per_op",
       Ratio(node_total, static_cast<double>(s.self_us[kBroker].size())), "count"},
      {"fleet.node_share_max_pct", 100 * Ratio(node_max, node_total), "%"},
  };
  m.push_back({"obs.spans_per_op", Ratio(counter("lib_spans"), t.traced_ops),
               "count"});
  // Probes a workload has no inputs for (no wire seam, no RSLs) read 0.
  for (const auto& [name, unit] : {std::pair{"gsi.handshake_us_p50", "us"},
                                   {"gsi.handshake_delegate_us_p50", "us"},
                                   {"gram.codec.parse_ns_p50", "ns"},
                                   {"gram.codec.encode_ns_p50", "ns"},
                                   {"gram.codec.bytes_per_op", "B"},
                                   {"rsl.parse_ns_p50", "ns"},
                                   {"obs.span_record_ns_1t", "ns"},
                                   {"obs.span_record_ns_nproc", "ns"}}) {
    const auto found = std::find_if(t.probes.begin(), t.probes.end(),
                                    [&](const Metric& p) { return p.name == name; });
    m.push_back({name, found == t.probes.end() ? 0 : found->value, unit});
  }
  m.push_back({"obs.lock_wait_us_per_op",
               Ratio(t.contention.wait_us, t.traced_ops), "us"});
  m.push_back({"obs.lock_contended_pct",
               100 * Ratio(t.contention.contended, t.contention.acquisitions),
               "%"});
  m.push_back({"loadgen.send_lag_us_p99", Percentile(t.lag_us, 0.99), "us"});
  m.push_back({"trace.overhead_pct", Median(t.overhead_pct), "%"});
  return m;
}

void DumpSpans(const std::string& path, const std::vector<SpanRec>& spans) {
  std::ofstream out(path);
  out << "trace\tlayer\tstart_ns\tend_ns\ttag\n";
  for (const SpanRec& span : spans) {
    out << span.trace << '\t' << kLayerNames[span.layer] << '\t'
        << span.start_ns << '\t' << span.end_ns << '\t'
        << static_cast<int>(span.tag) << '\n';
  }
}

void PrintResult(const Metrics& metrics, std::size_t attempted,
                 std::size_t failed) {
  for (const Metric& metric : metrics) {
    std::printf("  %-36s %16.4f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("{\"correct\": true, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// What the untraced rounds measure for the end-to-end metrics.
struct EndToEnd {
  PhaseStats closed;
  PhaseStats open;
  std::vector<Sample> setup_s, throughput, cpu_us_per_op;
  double rss_mb = 0;
  LatencyWindows windows;
};

// Tears the stack down and hands its memory back to the OS, so every
// build faults in fresh pages as the first one in a new process does.
void Release(Workload& w) {
  w.Teardown();
  malloc_trim(0);
}

// One untraced round: builds (each timed), the correctness phase on the
// first round, the closed loop and — unless tracing — the open loop.
// Returns the round's closed-loop throughput.
double UntracedRound(Workload& w, const Args& args,
                     const std::vector<std::int64_t>& due, std::size_t window,
                     bool first_round, Abort& abort, EndToEnd* e2e) {
  for (int i = 0; i < kSetupsPerRound; ++i) {
    if (i > 0) Release(w);
    const std::int64_t setup_begin = NowNs();
    w.Build(false);
    const std::int64_t setup_end = NowNs();
    e2e->setup_s.push_back(
        {static_cast<double>(setup_end - setup_begin) / 1e9, setup_begin, setup_end});
  }
  if (first_round) {
    const CorrectnessReport report = w.CheckCorrectness();
    if (!report.ok) {
      abort.Raise("correctness phase: " + report.first_bad);
      CheckAbort(abort);
    }
    std::printf("correctness: tuples=%zu denials=%zu reason_digest=%016" PRIx64
                "\n",
                report.tuples, report.denials, report.reason_digest);
    if (args.corrupt == "timed") w.CorruptOracle();
  }
  PhaseStats closed = RunClosedPhase(w, args.threads, abort, &e2e->throughput,
                                     &e2e->cpu_us_per_op);
  const double ops_s = static_cast<double>(closed.expected) / closed.wall_s;
  e2e->closed.Merge(std::move(closed));
  if (!args.trace) {
    PhaseStats open = RunOpen(w, args.threads, due, abort);
    CheckAbort(abort);
    e2e->windows.Add(open, due, window);
    e2e->open.Merge(std::move(open));
  }
  Release(w);
  // The first round is what a freshly started service goes through.
  // Later rounds' peaks creep up with heap fragmentation, and how many
  // rounds fit in --seconds depends on speed.
  if (first_round) e2e->rss_mb = PeakRssMb();
  return ops_s;
}

// One traced round on a decorated stack: closed and open loop, stack
// counter and contention deltas, spans; the probes on the first round.
void TracedRound(Workload& w, const Args& args,
                 const std::vector<std::int64_t>& due, std::size_t window,
                 double untraced_ops_s, bool first_round, Abort& abort,
                 EndToEnd* e2e, TraceTotals* traced) {
  w.Build(true);
  // Set-up spans only feed the session-open figure.
  LayerSamples setup_spans = AnalyzeSpans(SpanBuffers::Drain());
  auto& opens = traced->samples.dur_us[kSessionOpen];
  opens.insert(opens.end(), setup_spans.dur_us[kSessionOpen].begin(),
               setup_spans.dur_us[kSessionOpen].end());
  if (w.tap() != nullptr) w.tap()->Arm();
  const auto counters0 = w.Counters();
  const ContentionTotals contention0 = ReadContention();
  std::vector<Sample> unused;
  PhaseStats closed = RunClosedPhase(w, args.threads, abort, &unused, &unused);
  PhaseStats open = RunOpen(w, args.threads, due, abort);
  CheckAbort(abort);
  const auto counters1 = w.Counters();
  const ContentionTotals contention1 = ReadContention();
  if (first_round) w.Probe(&traced->probes);
  Release(w);
  // The span-store probe runs at one thread per CPU (at most 4), the
  // contention the obs layer meets in a full deployment.
  if (first_round) {
    ProbeScopedSpan(static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1u, 4u)),
                    &traced->probes);
  }

  for (const auto& [name, value] : counters1) {
    const auto before = counters0.find(name);
    traced->counters[name] +=
        value - (before == counters0.end() ? 0 : before->second);
  }
  const auto workers = counters1.find("server_workers");
  traced->workers = workers == counters1.end() ? 0 : workers->second;
  traced->contention.wait_us += contention1.wait_us - contention0.wait_us;
  traced->contention.acquisitions +=
      contention1.acquisitions - contention0.acquisitions;
  traced->contention.contended += contention1.contended - contention0.contended;
  traced->traced_ops += static_cast<double>(closed.attempted + open.attempted);
  traced->traced_wall_us += (closed.wall_s + open.wall_s) * 1e6;
  const double traced_ops_s = static_cast<double>(closed.expected) / closed.wall_s;
  traced->overhead_pct.push_back(100 * (untraced_ops_s / traced_ops_s - 1));
  traced->lag_us.insert(traced->lag_us.end(), open.lag_us.begin(),
                        open.lag_us.end());
  e2e->windows.Add(open, due, window);
  traced->last_spans = SpanBuffers::Drain();
  traced->Absorb(AnalyzeSpans(traced->last_spans));
  e2e->closed.Merge(std::move(closed));
  e2e->open.Merge(std::move(open));
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  std::filesystem::create_directories(args.workdir);
  WorkloadConfig config{args.seed, args.threads, args.workdir};
  std::unique_ptr<Workload> w;
  if (args.workload == "gram_manage") w = MakeGramManage(config);
  else if (args.workload == "fleet_submit") w = MakeFleetSubmit(config);
  else if (args.workload == "data_transfer") w = MakeDataTransfer(config);
  else Usage(("unknown workload " + args.workload).c_str());
  if (args.corrupt == "setup") w->CorruptOracle();

  const std::vector<std::int64_t> due =
      Arrivals(w->ops(Phase::kOpen), w->open_rate(), args.seed);
  // Open-loop windows span one swap period, like closed-loop chunks, so
  // every window holds one swap; at least 4000 ops, so each window's
  // p99 has 40 samples above it.
  const std::size_t window = w->swap_every();
  std::printf("stackbench workload=%s seed=%" PRIu64 " threads=%d trace=%d\n",
              args.workload.c_str(), args.seed, args.threads, args.trace ? 1 : 0);

  HostSampler host;
  Abort abort;
  EndToEnd e2e;
  TraceTotals traced;
  const std::int64_t begin = NowNs();
  int rounds = 0;
  // A round starts only if one as long as the last still ends within
  // --seconds (the first kMinRounds always run).
  double last_round_s = 0;
  while (rounds < kMaxRounds &&
         (rounds < kMinRounds ||
          static_cast<double>(NowNs() - begin) / 1e9 + last_round_s <= args.seconds)) {
    const std::int64_t round_begin = NowNs();
    const double ops_s =
        UntracedRound(*w, args, due, window, rounds == 0, abort, &e2e);
    if (args.trace) {
      TracedRound(*w, args, due, window, ops_s, rounds == 0, abort, &e2e, &traced);
    }
    last_round_s = static_cast<double>(NowNs() - round_begin) / 1e9;
    ++rounds;
  }

  std::printf("host: the hypervisor stole %.1f%% of the CPU time the run asked for\n",
              host.StealPct(begin, NowNs()));
  const PhaseStats& closed = e2e.closed;
  const PhaseStats& open = e2e.open;
  const std::size_t attempted = closed.attempted + open.attempted;
  const std::size_t failed = closed.failed + open.failed;
  const std::string& first_failure =
      closed.first_failure.empty() ? open.first_failure : closed.first_failure;
  std::printf("rounds=%d closed_ops=%zu open_ops=%zu failed=%zu%s%s\n", rounds,
              closed.attempted, open.attempted, failed,
              failed ? " first_failure=" : "", first_failure.c_str());
  std::vector<double> p99s;
  for (const Sample& sample : e2e.windows.p99_us) p99s.push_back(sample.value);
  std::printf("open loop: %zu ops in %zu windows of %zu; window p99 "
              "min=%.1fus median=%.1fus max=%.1fus\n",
              open.attempted, p99s.size(), window, Percentile(p99s, 0),
              Median(p99s), Percentile(p99s, 1));
  Metrics metrics;
  if (!args.trace) {
    const double failed_pct = 100 * Ratio(static_cast<double>(failed),
                                          static_cast<double>(attempted));
    const LatencyWindows& win = e2e.windows;
    const auto quiet = [&](const std::vector<Sample>& v) {
      return Median(host.Quietest(v, kQuietShare));
    };
    const auto quiet_windows = [&](const std::vector<Sample>& v) {
      return Median(host.Quietest(v, kQuietWindowShare));
    };
    std::printf("quiet samples: closed chunks %zu of %zu (steal <= %.1f%%), "
                "open windows %zu of %zu (steal <= %.1f%%), builds %zu of %zu "
                "(steal <= %.1f%%)\n",
                host.Quietest(e2e.throughput, kQuietShare).size(),
                e2e.throughput.size(), host.MaxStealPct(e2e.throughput, kQuietShare),
                host.Quietest(win.p99_us, kQuietWindowShare).size(), win.p99_us.size(),
                host.MaxStealPct(win.p99_us, kQuietWindowShare),
                host.Quietest(e2e.setup_s, kQuietShare).size(), e2e.setup_s.size(),
                host.MaxStealPct(e2e.setup_s, kQuietShare));
    // Printed, not in the result: from run to run a window's p99 moves
    // with the host's speed and stalls by more than the benchmark's
    // bounds allow; within_slo_pct gates the tail instead.
    std::printf("  %-36s %16.4f %s\n", "failed_pct", failed_pct, "%");
    std::printf("  %-36s %16.4f %s\n", "p99_us", quiet_windows(win.p99_us), "us");
    metrics = {
        {"throughput_ops_s", quiet(e2e.throughput), "ops/s"},
        {"p50_us", quiet_windows(win.p50_us), "us"},
        // Windows are of equal size: the mean pools their ops.
        {"within_slo_pct", Mean(host.Quietest(win.within_pct, kQuietWindowShare)),
         "%"},
        {"ok_pct", 100 - failed_pct, "%"},
        {"cpu_us_per_op", quiet(e2e.cpu_us_per_op), "us"},
        {"rss_mb", e2e.rss_mb, "MiB"},
        {"setup_s", quiet(e2e.setup_s), "s"},
    };
  } else {
    metrics = LayerMetrics(traced);
    DumpSpans(args.workdir + "/spans-" + args.workload + ".tsv", traced.last_spans);
  }
  PrintResult(metrics, attempted, failed);
  return 0;
}

}  // namespace
}  // namespace stackbench

int main(int argc, char** argv) { return stackbench::Main(argc, argv); }
