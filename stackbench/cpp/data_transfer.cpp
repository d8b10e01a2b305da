// data_transfer: the data plane. A FileTransferService with a
// DataPathAuthorizer over a ~1k-statement path-scope policy. Set-up opens
// one data session per (generator thread, user); each op then moves one
// file: NormalizeDataObject, CheckBlock once per block (heavy-tailed,
// 1..256 blocks), then GetObject or PutObject. ~5% of files lie outside
// the user's granted subtree or need a right the user lacks and must end
// in a typed [token-scope] denial. Policy swaps at a fixed cadence stale
// every token, so CheckBlock re-mints mid-transfer. No GRAM job path,
// decision cache or JMI is involved: this is the bypass workload for
// every gram-side change.
//
// SimStorage is unsynchronized, so each generator thread drives its own
// FileTransferService + SimStorage (its own transfer connection); the
// authorizer, policy source, trust store and gridmap are shared.
#include <cmath>
#include <cstdio>
#include <map>
#include <tuple>

#include "core/datapath.h"
#include "core/pathscope.h"
#include "gram/site.h"
#include "gridftp/transfer_service.h"
#include "obs/trace.h"
#include "probes.h"
#include "trace.h"
#include "updater.h"
#include "gram_common.h"

namespace stackbench {
namespace {

using namespace gridauthz;

constexpr std::size_t kClosedOps = 300000;
constexpr std::size_t kOpenOps = 100000;
constexpr double kOpenRate = 50000;       // ops/s
constexpr double kLatencyLimitUs = 200;   // open-loop SLO
constexpr std::size_t kSwapEvery = 50000;  // ops between policy swaps
constexpr int kFilesPerUser = 16;
constexpr int kProjects = 8;
constexpr int kScopeStatements = 1000;
constexpr int kMaxBlocks = 256;
constexpr std::size_t kSpanEvery = 8;  // traced run: files with spans
constexpr const char* kHost = "fusion.anl.gov";

bool ReadOnly(int user) { return user % kProjects == kProjects - 1; }

std::string Home(int user) {
  char buffer[48];
  std::snprintf(buffer, sizeof buffer, "/volumes/p%d/u%02d", user % kProjects, user);
  return buffer;
}

std::string FilePath(int user, int k) {
  return Home(user) + "/run" + std::to_string(k / 4) + "/f" + std::to_string(k) +
         ".dat";
}

std::string DataPolicyText() {
  std::string text;
  int statements = 0;
  for (int u = 0; u < kUsers; ++u, ++statements) {
    text += std::string{"scope gsiftp://"} + kHost + "/volumes:\nsubject: " +
            UserDn(u) + "\nobject: " + Home(u).substr(8) +
            (ReadOnly(u) ? " read,list\n" : " read,write,list\n") + "endscope\n";
  }
  for (int m = 0; statements < kScopeStatements; ++m, ++statements) {
    const std::string p = std::to_string(m % 23);
    text += std::string{"scope gsiftp://"} + kHost + "/volumes:\nsubject: /O=Grid/O=Partner" +
            p + "/CN=Member " + std::to_string(m) + "\nobject: /partner" + p + "/m" +
            std::to_string(m) + " read,write,list\nobject: /p" +
            std::to_string(m % kProjects) + "/shared read,list\nendscope\n";
  }
  return text;
}

// Bounded Pareto(alpha 0.7) over 1..kMaxBlocks: most files are a few
// blocks, a few are hundreds (mean ~10).
int Blocks(Rng& rng) {
  constexpr double kAlpha = 0.7;
  const double tail = std::pow(1.0 / kMaxBlocks, kAlpha);
  const double x = std::pow(1.0 - rng.Uniform() * (1.0 - tail), -1.0 / kAlpha);
  return std::clamp(static_cast<int>(x), 1, kMaxBlocks);
}

class DataTransfer final : public Workload {
 public:
  explicit DataTransfer(const WorkloadConfig& config);

  std::size_t ops(Phase phase) const override {
    return phase == Phase::kClosed ? kClosedOps : kOpenOps;
  }
  double open_rate() const override { return kOpenRate; }
  double latency_limit_us() const override { return kLatencyLimitUs; }
  std::size_t swap_every() const override { return kSwapEvery; }
  void Build(bool traced) override;
  void Teardown() override { stack_.reset(); }
  CorrectnessReport CheckCorrectness() override;
  void CorruptOracle() override;
  OpOutcome Run(Phase phase, std::size_t index, int thread) override;
  std::map<std::string, double> Counters() override;
  void Probe(Metrics* out) override;

 private:
  struct Op {
    std::uint16_t user = 0;
    std::uint16_t blocks = 1;
    std::uint32_t tuple = 0;
  };
  struct Tuple {
    int user = 0;
    int owner = 0;  // whose home the file is in
    int file = 0;
    bool put = false;
    bool permit = false;  // the oracle: EvaluateObjectNaive
    std::string reason;
  };
  // Per-thread tallies for the traced run, on separate cache lines.
  struct alignas(64) ThreadCounts {
    std::uint64_t checks = 0;
    std::uint64_t remints = 0;
  };
  struct Stack {
    explicit Stack(const gram::SiteOptions& options) : site(options) {}
    gram::SimulatedSite site;
    std::vector<gsi::Credential> creds;
    std::shared_ptr<core::StaticPolicySource> source;
    std::unique_ptr<core::DataPathAuthorizer> authorizer;
    std::vector<std::unique_ptr<gridftp::SimStorage>> storage;       // per thread
    std::vector<std::unique_ptr<gridftp::FileTransferService>> services;
    // sessions[thread][user]
    std::vector<std::vector<gridftp::FileTransferService::DataSession>> sessions;
    std::vector<ThreadCounts> counts;
    bool traced = false;
    // Declared last: destroyed (and joined) before what it updates.
    std::unique_ptr<Updater> updater;
  };

  void Generate(Phase phase, std::size_t count, Rng& rng);
  std::uint32_t TupleFor(int user, int owner, int file, bool put);
  // `trace` keys the op's spans; 0 records none.
  OpOutcome Transfer(const Tuple& tuple, int blocks, int thread,
                     std::uint64_t trace, std::string* deny_reason);
  std::string DescribeTuple(const Tuple& tuple) const;

  WorkloadConfig config_;
  std::string text_ = DataPolicyText();
  core::PolicyDocument doc_ = ParsePolicy(text_);
  std::vector<Tuple> tuples_;
  std::map<std::tuple<int, int, int, bool>, std::uint32_t> tuple_index_;
  std::vector<Op> closed_;
  std::vector<Op> open_;
  std::unique_ptr<Stack> stack_;
};

DataTransfer::DataTransfer(const WorkloadConfig& config) : config_(config) {
  Rng rng(config.seed);
  Generate(Phase::kClosed, kClosedOps, rng);
  Generate(Phase::kOpen, kOpenOps, rng);
}

std::uint32_t DataTransfer::TupleFor(int user, int owner, int file, bool put) {
  const auto key = std::make_tuple(user, owner, file, put);
  const auto found = tuple_index_.find(key);
  if (found != tuple_index_.end()) return found->second;
  const core::Decision decision = core::EvaluateObjectNaive(
      doc_, UserDn(user), std::string{"gsiftp://"} + kHost + FilePath(owner, file),
      put ? core::kRightWrite : core::kRightRead);
  tuples_.push_back({user, owner, file, put, decision.permitted(), decision.reason});
  const auto index = static_cast<std::uint32_t>(tuples_.size() - 1);
  tuple_index_.emplace(key, index);
  return index;
}

void DataTransfer::Generate(Phase phase, std::size_t count, Rng& rng) {
  std::vector<Op>& ops = phase == Phase::kClosed ? closed_ : open_;
  ops.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Op op;
    int user = static_cast<int>(rng.Below(kUsers));
    int owner = user;
    bool put = !ReadOnly(user) && rng.Uniform() < 0.3;
    if (rng.Uniform() < 0.05) {
      if (rng.Uniform() < 0.5) {  // someone else's subtree
        owner = (user + 1 + static_cast<int>(rng.Below(kUsers - 1))) % kUsers;
        put = rng.Uniform() < 0.3;
      } else {  // a write the user's grant lacks
        user = owner = kProjects * static_cast<int>(rng.Below(kUsers / kProjects)) +
                       kProjects - 1;
        put = true;
      }
    }
    op.user = static_cast<std::uint16_t>(user);
    op.blocks = static_cast<std::uint16_t>(Blocks(rng));
    op.tuple = TupleFor(user, owner, static_cast<int>(rng.Below(kFilesPerUser)), put);
    ops.push_back(op);
  }
}

void DataTransfer::Build(bool traced) {
  gram::SiteOptions options;
  options.host = kHost;
  stack_ = std::make_unique<Stack>(options);
  Stack& s = *stack_;
  s.traced = traced;
  for (int u = 0; u < kUsers; ++u) {
    (void)s.site.AddAccount(UserAccount(u));
    s.creds.push_back(s.site.CreateUser(UserDn(u)).value());
    (void)s.site.MapUser(s.creds.back(), UserAccount(u));
  }
  s.source = std::make_shared<core::StaticPolicySource>("data", ParsePolicy(text_));
  s.authorizer = std::make_unique<core::DataPathAuthorizer>(
      s.source, "stackbench-data-hmac-key", &s.site.clock());
  s.counts.resize(config_.threads);
  for (int t = 0; t < config_.threads; ++t) {
    s.storage.push_back(std::make_unique<gridftp::SimStorage>(
        std::int64_t{1} << 40, &s.site.clock()));
    for (int u = 0; u < kUsers; ++u) {
      for (int k = 0; k < kFilesPerUser; ++k) {
        (void)s.storage.back()->Put(FilePath(u, k), 1 + k, UserAccount(u));
      }
    }
    gridftp::FileTransferService::Params params;
    params.host = kHost;
    params.host_credential = s.site.gatekeeper().host_credential();
    params.trust = &s.site.trust();
    params.gridmap = &s.site.gridmap();
    params.storage = s.storage.back().get();
    params.clock = &s.site.clock();
    params.datapath = s.authorizer.get();
    s.services.push_back(std::make_unique<gridftp::FileTransferService>(params));
    auto& sessions = s.sessions.emplace_back();
    for (int u = 0; u < kUsers; ++u) {
      std::optional<SpanTimer> span;
      if (traced) span.emplace(kSessionOpen, TraceKey("session"));
      auto session = s.services.back()->OpenDataSession(s.creds[u], Home(u));
      if (!session.ok()) {
        std::fprintf(stderr, "stackbench: data session for %s failed: %s\n",
                     UserDn(u).c_str(), session.error().message().c_str());
        std::exit(2);
      }
      sessions.push_back(std::move(session).value());
    }
  }
  // Same grants, next generation: every outstanding token goes stale.
  s.updater = std::make_unique<Updater>([&s, this] { s.source->Replace(doc_); });
}

OpOutcome DataTransfer::Transfer(const Tuple& tuple, int blocks, int thread,
                                 std::uint64_t trace, std::string* deny_reason) {
  Stack& s = *stack_;
  gridftp::FileTransferService& service = *s.services[thread];
  gridftp::FileTransferService::DataSession& session = s.sessions[thread][tuple.user];
  const std::string path = FilePath(tuple.owner, tuple.file);
  const core::RightsMask right = tuple.put ? core::kRightWrite : core::kRightRead;

  Expected<void> result = Ok();
  auto object = service.NormalizeDataObject(path);
  if (!object.ok()) result = object.error();
  ThreadCounts& counts = s.counts[thread];
  for (int b = 0; result.ok() && b < blocks; ++b) {
    // A re-mint moves a freshly allocated token into the session while
    // the old buffer is still live, so the buffer address changes.
    const char* before = session.token.data();
    if (trace != 0) {
      SpanTimer span(kCheckBlock, trace);
      result = service.CheckBlock(&session, *object, right);
    } else {
      result = service.CheckBlock(&session, *object, right);
    }
    if (s.traced) {
      ++counts.checks;
      if (session.token.data() != before) ++counts.remints;
    }
  }
  if (result.ok()) {
    std::optional<SpanTimer> span;
    if (trace != 0) span.emplace(kObject, trace);
    if (tuple.put) {
      result = service.PutObject(&session, path, 1 + tuple.file);
    } else {
      auto info = service.GetObject(&session, path);
      if (!info.ok()) result = info.error();
    }
  }

  if (result.ok()) {
    if (tuple.permit) return {};
    return {Verdict::kMismatch, DescribeTuple(tuple) +
                                    ": stack permitted; oracle expected deny: " +
                                    tuple.reason};
  }
  const Error& error = result.error();
  const std::string_view tag = FailureReasonTag(error);
  const bool typed_deny = error.code() == ErrCode::kAuthorizationDenied &&
                          (tag == kReasonTokenScope || tag == kReasonPathInvalid);
  if (!typed_deny) return {Verdict::kFailed, error.message()};
  if (tuple.permit) {
    return {Verdict::kMismatch, DescribeTuple(tuple) + ": stack denied '" +
                                    error.message() + "'; oracle expected permit"};
  }
  if (deny_reason != nullptr) *deny_reason = error.message();
  return {};
}

std::string DataTransfer::DescribeTuple(const Tuple& tuple) const {
  return "subject='" + UserDn(tuple.user) + "' object='gsiftp://" + kHost +
         FilePath(tuple.owner, tuple.file) + "' right=" +
         (tuple.put ? "write" : "read");
}

OpOutcome DataTransfer::Run(Phase phase, std::size_t index, int thread) {
  const Op& op = (phase == Phase::kClosed ? closed_ : open_)[index];
  // Spans for every kSpanEvery-th file keep the traced run's span
  // buffers bounded; checks and re-mints are counted on every file.
  const std::uint64_t trace =
      stack_->traced && index % kSpanEvery == 0
          ? (static_cast<std::uint64_t>(phase) << 40 | index) + 1
          : 0;
  OpOutcome outcome = Transfer(tuples_[op.tuple], op.blocks, thread, trace, nullptr);
  // Mid-period, so each swap-period chunk or window holds its swap and
  // the misses or re-mints that follow it.
  if (index % kSwapEvery == kSwapEvery / 2) stack_->updater->Trigger();
  return outcome;
}

CorrectnessReport DataTransfer::CheckCorrectness() {
  CorrectnessReport report;
  for (const Tuple& tuple : tuples_) {
    std::string reason;
    const OpOutcome outcome = Transfer(tuple, 1, 0, 0, &reason);
    ++report.tuples;
    if (outcome.verdict != Verdict::kExpected) {
      report.ok = false;
      report.first_bad = outcome.verdict == Verdict::kMismatch
                             ? outcome.detail
                             : DescribeTuple(tuple) + ": " + outcome.detail;
      return report;
    }
    if (!tuple.permit) {
      ++report.denials;
      AddToDigest(&report.reason_digest, reason);
    }
  }
  return report;
}

void DataTransfer::CorruptOracle() {
  Tuple& tuple = tuples_[closed_[0].tuple];
  tuple.permit = !tuple.permit;
  tuple.reason = "corrupted oracle entry";
}

std::map<std::string, double> DataTransfer::Counters() {
  double checks = 0, remints = 0;
  for (const ThreadCounts& counts : stack_->counts) {
    checks += static_cast<double>(counts.checks);
    remints += static_cast<double>(counts.remints);
  }
  return {{"checks", checks},
          {"remints", remints},
          {"lib_spans", static_cast<double>(gridauthz::obs::Tracer().size() +
                                            gridauthz::obs::Tracer().dropped())}};
}

void DataTransfer::Probe(Metrics* out) {
  Stack& s = *stack_;
  std::vector<const gsi::Credential*> users;
  for (const gsi::Credential& cred : s.creds) users.push_back(&cred);
  ProbeHandshake(users, s.site.gatekeeper().host_credential(), s.site.trust(),
                 s.site.clock().Now(), out);
}

}  // namespace

std::unique_ptr<Workload> MakeDataTransfer(const WorkloadConfig& config) {
  return std::make_unique<DataTransfer>(config);
}

}  // namespace stackbench
