// fleet_submit: job starts through WireClient → FleetBroker over a
// 4-node fleet::Fleet with use_server=false, so every node runs on the
// generator's own thread. Each node's job-manager PEP is the same
// Auditing → Caching → Combining(local, the node's VO source) chain as
// gram_manage. Every op is a `start` with a generated RSL (executable,
// count, directory and jobtag vary); ~20% are denied. `start` is never
// cached, so this is the bypass workload for decision-cache changes.
#include <cstdio>
#include <map>

#include "fleet/node.h"
#include "gram/wire_service.h"
#include "gram_common.h"
#include "obs/trace.h"
#include "probes.h"
#include "trace.h"
#include "updater.h"

namespace stackbench {
namespace {

using namespace gridauthz;

constexpr std::size_t kClosedOps = 16000;
constexpr std::size_t kOpenOps = 8000;
constexpr double kOpenRate = 2000;        // ops/s
constexpr double kLatencyLimitUs = 2000;  // open-loop SLO
constexpr std::size_t kSwapEvery = 2000;  // ops between policy pushes
constexpr int kNodes = 4;

bool IsNodePepName(std::string_view name) {
  // GatekeeperNode names its VO source "<node>-pep", nodes "gk-<i>".
  return name.size() > 7 && name.substr(0, 3) == "gk-" &&
         name.substr(name.size() - 4) == "-pep";
}

class FleetSubmit final : public Workload {
 public:
  explicit FleetSubmit(const WorkloadConfig& config);

  std::size_t ops(Phase phase) const override {
    return phase == Phase::kClosed ? kClosedOps : kOpenOps;
  }
  double open_rate() const override { return kOpenRate; }
  double latency_limit_us() const override { return kLatencyLimitUs; }
  std::size_t swap_every() const override { return kSwapEvery; }
  void Build(bool traced) override;
  void Teardown() override;
  CorrectnessReport CheckCorrectness() override;
  void CorruptOracle() override;
  OpOutcome Run(Phase phase, std::size_t index, int thread) override;
  std::map<std::string, double> Counters() override;
  FrameTap* tap() override { return stack_ ? &stack_->tap : nullptr; }
  void Probe(Metrics* out) override;

 private:
  struct Op {
    std::uint16_t user = 0;
    std::uint32_t tuple = 0;
  };
  struct Tuple {
    int user = 0;
    std::uint32_t rsl = 0;
    Expectation expected;
  };
  struct Stack {
    SimClock clock;
    std::unique_ptr<fleet::Fleet> grid;
    std::vector<gsi::Credential> creds;  // per user
    std::vector<PepChain> chains;        // per node
    // Traced: a broker of our own over decorated node handles.
    std::vector<std::unique_ptr<TimedTransport>> timed_nodes;
    std::unique_ptr<fleet::FleetBroker> timed_broker_inner;
    std::unique_ptr<TimedTransport> timed_broker;
    fleet::FleetBroker* broker = nullptr;
    FrameTap tap;
    std::vector<std::vector<std::unique_ptr<gram::wire::WireClient>>> clients;
    // Declared last: destroyed (and joined) before what it updates.
    std::unique_ptr<Updater> updater;
  };

  void Generate(Phase phase, std::size_t count, Rng& rng);
  std::uint32_t RslIndex(const std::string& rsl);
  std::uint32_t TupleFor(int user, std::uint32_t rsl);
  OpOutcome Issue(const Tuple& tuple, int thread);
  std::string DescribeTuple(const Tuple& tuple) const;
  std::string AuditPath(int node) const {
    return config_.workdir + "/audit-fleet_submit-" + std::to_string(node) +
           ".jsonl";
  }

  WorkloadConfig config_;
  std::string local_text_ = LocalPolicyText();
  std::string vo_text_ = VoPolicyText();
  core::PolicyDocument local_doc_ = ParsePolicy(local_text_);
  core::PolicyDocument vo_doc_ = ParsePolicy(vo_text_);
  GramOracle oracle_{local_doc_, vo_doc_};
  std::vector<std::string> rsls_;
  std::map<std::string, std::uint32_t> rsl_index_;
  std::vector<Tuple> tuples_;
  std::map<std::pair<int, std::uint32_t>, std::uint32_t> tuple_index_;
  std::vector<Op> closed_;
  std::vector<Op> open_;
  std::unique_ptr<Stack> stack_;
};

FleetSubmit::FleetSubmit(const WorkloadConfig& config) : config_(config) {
  Rng rng(config.seed);
  Generate(Phase::kClosed, kClosedOps, rng);
  Generate(Phase::kOpen, kOpenOps, rng);
}

std::uint32_t FleetSubmit::RslIndex(const std::string& rsl) {
  const auto [it, inserted] =
      rsl_index_.emplace(rsl, static_cast<std::uint32_t>(rsls_.size()));
  if (inserted) rsls_.push_back(rsl);
  return it->second;
}

std::uint32_t FleetSubmit::TupleFor(int user, std::uint32_t rsl) {
  const auto key = std::make_pair(user, rsl);
  const auto found = tuple_index_.find(key);
  if (found != tuple_index_.end()) return found->second;
  Tuple tuple{user, rsl, {}};
  tuple.expected = oracle_.Decide(
      MakeRequest(UserDn(user), "start", UserDn(user), rsls_[rsl]));
  tuples_.push_back(std::move(tuple));
  const auto index = static_cast<std::uint32_t>(tuples_.size() - 1);
  tuple_index_.emplace(key, index);
  return index;
}

void FleetSubmit::Generate(Phase phase, std::size_t count, Rng& rng) {
  std::vector<Op>& ops = phase == Phase::kClosed ? closed_ : open_;
  ops.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Op op;
    op.user = static_cast<std::uint16_t>(rng.Below(kUsers));
    // A start the user's grants cover, then (~20%) one perturbation the
    // policy refuses: count >= 4, no jobtag, a directory outside the
    // sandbox (local deny) or an executable the VO never granted.
    std::string executable = "test1", tag = "ADS", directory = "/sandbox/test";
    const double pick = rng.Uniform();
    if (op.user % 4 == 0 && pick < 0.25) {
      executable = "TRANSP";
      tag = "NFC";
      directory = "/sandbox/scratch";
    } else if (pick < 0.6) {
      executable = "test2";
      tag = "NFC";
    }
    int count_value = 1 + static_cast<int>(rng.Below(3));
    const double deny = rng.Uniform();
    if (deny < 0.20) {
      switch (rng.Below(4)) {
        case 0: count_value = 4 + static_cast<int>(rng.Below(2)); break;
        case 1: tag.clear(); break;
        case 2: directory = "/tmp/" + executable; break;
        default: executable = "sim" + std::to_string(rng.Below(7)); break;
      }
    }
    std::string rsl = "&(executable=" + executable + ")(directory=" + directory +
                      ")(count=" + std::to_string(count_value) + ")";
    if (!tag.empty()) rsl += "(jobtag=" + tag + ")";
    op.tuple = TupleFor(op.user, RslIndex(rsl));
    ops.push_back(op);
  }
}

void FleetSubmit::Build(bool traced) {
  stack_ = std::make_unique<Stack>();
  Stack& s = *stack_;
  fleet::FleetOptions options;
  options.nodes = kNodes;
  options.cpu_slots = 1 << 20;
  options.use_server = false;
  s.grid = std::make_unique<fleet::Fleet>(options, &s.clock,
                                         ParsePolicy(vo_text_));
  for (int u = 0; u < kUsers; ++u) {
    (void)s.grid->AddAccount(UserAccount(u));
    s.creds.push_back(s.grid->CreateUser(UserDn(u)).value());
    (void)s.grid->MapUser(s.creds.back(), UserAccount(u));
  }
  for (int n = 0; n < kNodes; ++n) {
    fleet::GatekeeperNode& node = s.grid->node(n);
    s.chains.push_back(BuildPepChain(
        std::make_shared<core::StaticPolicySource>("local",
                                                   ParsePolicy(local_text_)),
        node.policy(), &node.site().clock(),
        AuditPath(n), traced));
    InstallPep(node.site(), s.chains.back(), traced);
  }

  gram::wire::WireTransport* front = &s.grid->broker();
  s.broker = &s.grid->broker();
  if (traced) {
    // Same handles the Fleet gives its own broker, each node link under
    // a timing decorator.
    std::vector<fleet::FleetNodeHandle> handles;
    for (int n = 0; n < kNodes; ++n) {
      fleet::GatekeeperNode* node = &s.grid->node(n);
      s.timed_nodes.push_back(std::make_unique<TimedTransport>(
          kNode, &s.grid->chaos(n), static_cast<std::uint8_t>(n)));
      fleet::FleetNodeHandle handle;
      handle.name = node->name();
      handle.host = node->host();
      handle.transport = s.timed_nodes.back().get();
      handle.install_policy = [node](const core::PolicyDocument& document) {
        node->InstallPolicy(document);
      };
      handles.push_back(std::move(handle));
    }
    s.timed_broker_inner = std::make_unique<fleet::FleetBroker>(
        std::move(handles), &s.grid->directory());
    s.timed_broker_inner->RefreshHealth();
    s.broker = s.timed_broker_inner.get();
    s.timed_broker =
        std::make_unique<TimedTransport>(kBroker, s.broker, 0, &s.tap);
    front = s.timed_broker.get();
  }
  s.clients.resize(config_.threads);
  for (auto& per_thread : s.clients) {
    for (int u = 0; u < kUsers; ++u) {
      per_thread.push_back(
          std::make_unique<gram::wire::WireClient>(s.creds[u], front));
    }
  }
  // Fleet-wide rollout of an identical document: every generation bumps.
  s.updater = std::make_unique<Updater>(
      [&s, this] { s.broker->PushPolicy(vo_doc_); });
}

void FleetSubmit::Teardown() {
  if (!stack_) return;
  for (PepChain& chain : stack_->chains) chain.sink->Flush();
  stack_.reset();
  for (int n = 0; n < kNodes; ++n) RemoveAuditFiles(AuditPath(n));
}

OpOutcome FleetSubmit::Issue(const Tuple& tuple, int thread) {
  auto contact = stack_->clients[thread][tuple.user]->Submit(rsls_[tuple.rsl]);
  OpOutcome outcome = Judge(tuple.expected, contact.ok() ? nullptr : &contact.error(),
                            IsNodePepName);
  if (outcome.verdict == Verdict::kMismatch) {
    outcome.detail = DescribeTuple(tuple) + ": " + outcome.detail;
  }
  return outcome;
}

std::string FleetSubmit::DescribeTuple(const Tuple& tuple) const {
  return "requester='" + UserDn(tuple.user) + "' action=start rsl='" +
         rsls_[tuple.rsl] + "'";
}

OpOutcome FleetSubmit::Run(Phase phase, std::size_t index, int thread) {
  const Op& op = (phase == Phase::kClosed ? closed_ : open_)[index];
  OpOutcome outcome = Issue(tuples_[op.tuple], thread);
  // Mid-period, so each swap-period chunk or window holds its swap and
  // the misses or re-mints that follow it.
  if (index % kSwapEvery == kSwapEvery / 2) stack_->updater->Trigger();
  return outcome;
}

CorrectnessReport FleetSubmit::CheckCorrectness() {
  CorrectnessReport report;
  for (const Tuple& tuple : tuples_) {
    const OpOutcome outcome = Issue(tuple, 0);
    ++report.tuples;
    if (outcome.verdict != Verdict::kExpected) {
      report.ok = false;
      // Issue() already names the tuple in a mismatch.
      report.first_bad = outcome.verdict == Verdict::kMismatch
                             ? outcome.detail
                             : DescribeTuple(tuple) + ": " + outcome.detail;
      return report;
    }
    if (!tuple.expected.permit) {
      ++report.denials;
      AddToDigest(&report.reason_digest,
                  (tuple.expected.by_local ? "local: " : "vo: ") +
                      tuple.expected.reason);
    }
  }
  return report;
}

void FleetSubmit::CorruptOracle() {
  Expectation& expected = tuples_[closed_[0].tuple].expected;
  expected.permit = !expected.permit;
  if (!expected.permit) expected.reason = "corrupted oracle entry";
}

std::map<std::string, double> FleetSubmit::Counters() {
  Stack& s = *stack_;
  double written = 0, dropped = 0, spans = 0;
  for (PepChain& chain : s.chains) {
    chain.sink->Flush();
    written += static_cast<double>(chain.sink->written());
    dropped += static_cast<double>(chain.sink->dropped());
  }
  for (int n = 0; n < kNodes; ++n) {
    obs::SpanStore& store = s.grid->node(n).spans();
    spans += static_cast<double>(store.size() + store.dropped());
  }
  spans += static_cast<double>(obs::Tracer().size() + obs::Tracer().dropped());
  return {{"audit_written", written}, {"audit_dropped", dropped},
          {"lib_spans", spans}};
}

void FleetSubmit::Probe(Metrics* out) {
  Stack& s = *stack_;
  std::vector<const gsi::Credential*> users;
  for (const gsi::Credential& cred : s.creds) users.push_back(&cred);
  gram::SimulatedSite& site = s.grid->node(0).site();
  ProbeHandshake(users, site.gatekeeper().host_credential(), site.trust(),
                 site.clock().Now(), out);
  ProbeCodec(s.tap, out);
  ProbeRsl(rsls_, out);
}

}  // namespace

std::unique_ptr<Workload> MakeFleetSubmit(const WorkloadConfig& config) {
  return std::make_unique<FleetSubmit>(config);
}

}  // namespace stackbench
