// gram_manage: one gatekeeper serving job management over the full wire
// stack — WireClient → ServerTransport (one worker per generator thread)
// → WireEndpoint → JMI → callout → Auditing (JSONL sink) → Caching →
// Combining(local, VO). Set-up pre-submits the job population; the timed
// mix is ~80% owner status, ~10% VO-admin status/signal/cancel on the
// NFC jobtag group and ~10% requests the policy denies. Only permitted
// admin cancels change job state, and each takes a job from a pool no
// other op touches, so every outcome is known before the run.
#include <cstdio>
#include <map>
#include <tuple>

#include "gram/server.h"
#include "gram/wire_service.h"
#include "gram_common.h"
#include "obs/trace.h"
#include "probes.h"
#include "trace.h"
#include "updater.h"

namespace stackbench {
namespace {

using namespace gridauthz;

constexpr std::size_t kClosedOps = 24000;
constexpr std::size_t kOpenOps = 12000;
constexpr double kOpenRate = 2000;        // ops/s
constexpr double kLatencyLimitUs = 2000;  // open-loop SLO
constexpr std::size_t kSwapEvery = 4000;  // ops between VO swaps
constexpr int kLivePerUser = 30;
constexpr double kZipfS = 1.1;

const char* const kTemplates[] = {
    "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=1)",
    "&(executable=test2)(directory=/sandbox/test)(jobtag=NFC)(count=2)",
    "&(executable=test2)(directory=/sandbox/test)(jobtag=NFC)(count=3)",
};
constexpr int kTemplateCount = 3;
constexpr int kIdentities = kUsers + kAdmins;

enum Action : std::uint8_t { kInformation, kSignal, kCancel };
constexpr std::string_view kActionNames[] = {"information", "signal", "cancel"};

std::string IdentityDn(int identity) {
  return identity < kUsers ? UserDn(identity) : AdminDn(identity - kUsers);
}
std::string IdentityAccount(int identity) {
  return identity < kUsers ? UserAccount(identity) : AdminAccount(identity - kUsers);
}

class GramManage final : public Workload {
 public:
  explicit GramManage(const WorkloadConfig& config);

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
  struct Job {
    int owner = 0;
    int tmpl = 0;
  };
  struct Op {
    std::uint16_t requester = 0;
    Action action = kInformation;
    std::uint32_t job = 0;
    std::uint32_t tuple = 0;
  };
  struct Tuple {
    int requester = 0;
    Action action = kInformation;
    int owner = 0;
    int tmpl = 0;
    Expectation expected;
  };
  struct Stack {
    explicit Stack(const gram::SiteOptions& options) : site(options) {}
    gram::SimulatedSite site;
    std::vector<gsi::Credential> creds;  // per identity
    std::shared_ptr<core::StaticPolicySource> local;
    std::shared_ptr<core::StaticPolicySource> vo;
    PepChain chain;
    std::unique_ptr<gram::wire::WireEndpoint> endpoint;
    std::unique_ptr<TimedTransport> timed_endpoint;
    std::unique_ptr<gram::wire::ServerTransport> server;
    std::unique_ptr<TimedTransport> timed_server;
    FrameTap tap;
    // clients[thread][identity]: a WireClient is single-threaded.
    std::vector<std::vector<std::unique_ptr<gram::wire::WireClient>>> clients;
    std::vector<std::string> contacts;  // per job index
    // Declared last: destroyed (and joined) before what it updates.
    std::unique_ptr<Updater> updater;
  };

  void Generate(Phase phase, std::size_t count, Rng& rng);
  std::uint32_t TupleFor(int requester, Action action, std::uint32_t job);
  std::uint32_t NewPoolJob();
  OpOutcome Issue(gram::wire::WireClient& client, Action action,
                  const std::string& contact, const Expectation& expected);
  std::string DescribeTuple(const Tuple& tuple) const;
  std::string AuditPath() const {
    return config_.workdir + "/audit-gram_manage.jsonl";
  }

  WorkloadConfig config_;
  std::string local_text_ = LocalPolicyText();
  std::string vo_text_ = VoPolicyText();
  core::PolicyDocument local_doc_ = ParsePolicy(local_text_);
  core::PolicyDocument vo_doc_ = ParsePolicy(vo_text_);
  GramOracle oracle_{local_doc_, vo_doc_};
  std::vector<Job> jobs_;  // live jobs first, then the cancel pool
  std::size_t live_jobs_ = 0;
  std::vector<Tuple> tuples_;
  std::map<std::tuple<int, int, int, int>, std::uint32_t> tuple_index_;
  std::vector<Op> closed_;
  std::vector<Op> open_;
  std::unique_ptr<Stack> stack_;
};

GramManage::GramManage(const WorkloadConfig& config) : config_(config) {
  for (int i = 0; i < kUsers * kLivePerUser; ++i) {
    jobs_.push_back({i % kUsers, (i / kUsers) % kTemplateCount});
  }
  live_jobs_ = jobs_.size();
  Rng rng(config.seed);
  Generate(Phase::kClosed, kClosedOps, rng);
  Generate(Phase::kOpen, kOpenOps, rng);
}

std::uint32_t GramManage::NewPoolJob() {
  // NFC templates only: the admins' cancel grant covers that group.
  const std::size_t k = jobs_.size() - live_jobs_;
  jobs_.push_back({static_cast<int>(k % kUsers),
                   1 + static_cast<int>((k / kUsers) % 2)});
  return static_cast<std::uint32_t>(jobs_.size() - 1);
}

std::uint32_t GramManage::TupleFor(int requester, Action action,
                                   std::uint32_t job) {
  const Job& j = jobs_[job];
  const auto key = std::make_tuple(requester, static_cast<int>(action), j.owner,
                                   j.tmpl);
  const auto found = tuple_index_.find(key);
  if (found != tuple_index_.end()) return found->second;
  Tuple tuple{requester, action, j.owner, j.tmpl, {}};
  tuple.expected = oracle_.Decide(MakeRequest(
      IdentityDn(requester), kActionNames[action], UserDn(j.owner),
      kTemplates[j.tmpl]));
  tuples_.push_back(std::move(tuple));
  const auto index = static_cast<std::uint32_t>(tuples_.size() - 1);
  tuple_index_.emplace(key, index);
  return index;
}

void GramManage::Generate(Phase phase, std::size_t count, Rng& rng) {
  // Zipf over a seeded permutation of the live jobs, so the hot set
  // differs per seed; NFC and ADS subsets keep their own rank order.
  std::vector<std::uint32_t> ranked(live_jobs_);
  for (std::size_t i = 0; i < ranked.size(); ++i) ranked[i] = i;
  for (std::size_t i = ranked.size(); i > 1; --i) {
    std::swap(ranked[i - 1], ranked[rng.Below(i)]);
  }
  std::vector<std::uint32_t> nfc, ads;
  for (std::uint32_t job : ranked) {
    (jobs_[job].tmpl == 0 ? ads : nfc).push_back(job);
  }
  const Zipf all_zipf(ranked.size(), kZipfS);
  const Zipf nfc_zipf(nfc.size(), kZipfS);
  const Zipf ads_zipf(ads.size(), kZipfS);

  std::vector<Op>& ops = phase == Phase::kClosed ? closed_ : open_;
  ops.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Op op;
    const double r = rng.Uniform();
    if (r < 0.80) {  // owner status
      op.job = ranked[all_zipf.Sample(rng)];
      op.requester = jobs_[op.job].owner;
      op.action = kInformation;
    } else if (r < 0.90) {  // VO admin on the NFC group
      op.requester = kUsers + rng.Below(kAdmins);
      const double a = rng.Uniform();
      if (a < 0.45) {
        op.action = kInformation;
        op.job = nfc[nfc_zipf.Sample(rng)];
      } else if (a < 0.90) {
        op.action = kSignal;
        op.job = nfc[nfc_zipf.Sample(rng)];
      } else {
        op.action = kCancel;
        op.job = NewPoolJob();
      }
    } else {  // requests the policy denies
      const double d = rng.Uniform();
      op.job = ranked[all_zipf.Sample(rng)];
      const int other = (jobs_[op.job].owner + 1 + static_cast<int>(rng.Below(kUsers - 1))) % kUsers;
      if (d < 0.4) {
        op.requester = other;
        op.action = kInformation;
      } else if (d < 0.7) {
        op.requester = kUsers + rng.Below(kAdmins);
        op.job = ads[ads_zipf.Sample(rng)];
        op.action = rng.Uniform() < 0.5 ? kInformation : kSignal;
      } else {
        op.requester = other;
        op.action = kCancel;
      }
    }
    op.tuple = TupleFor(op.requester, op.action, op.job);
    ops.push_back(op);
  }
}

void GramManage::Build(bool traced) {
  gram::SiteOptions options;
  options.cpu_slots = 1 << 20;  // every job dispatches; none queue
  stack_ = std::make_unique<Stack>(options);
  Stack& s = *stack_;
  for (int id = 0; id < kIdentities; ++id) {
    (void)s.site.AddAccount(IdentityAccount(id));
    s.creds.push_back(s.site.CreateUser(IdentityDn(id)).value());
    (void)s.site.MapUser(s.creds.back(), IdentityAccount(id));
  }
  s.local = std::make_shared<core::StaticPolicySource>(
      "local", ParsePolicy(local_text_));
  s.vo = std::make_shared<core::StaticPolicySource>("vo", ParsePolicy(vo_text_));
  s.chain = BuildPepChain(s.local, s.vo, &s.site.clock(),
                          AuditPath(), traced);
  InstallPep(s.site, s.chain, traced);

  s.endpoint = std::make_unique<gram::wire::WireEndpoint>(
      &s.site.gatekeeper(), &s.site.jmis(), &s.site.trust(), &s.site.clock());
  gram::wire::WireTransport* inner = s.endpoint.get();
  if (traced) {
    s.timed_endpoint = std::make_unique<TimedTransport>(kEndpoint, inner);
    inner = s.timed_endpoint.get();
  }
  gram::wire::ServerOptions server_options;
  server_options.workers = config_.threads;
  s.server = std::make_unique<gram::wire::ServerTransport>(inner, server_options);
  gram::wire::WireTransport* front = s.server.get();
  if (traced) {
    s.timed_server = std::make_unique<TimedTransport>(kServer, front, 0, &s.tap);
    front = s.timed_server.get();
  }
  s.clients.resize(config_.threads);
  for (auto& per_thread : s.clients) {
    for (int id = 0; id < kIdentities; ++id) {
      per_thread.push_back(
          std::make_unique<gram::wire::WireClient>(s.creds[id], front));
    }
  }
  s.contacts.reserve(jobs_.size());
  for (const Job& job : jobs_) {
    auto contact = s.clients[0][job.owner]->Submit(kTemplates[job.tmpl]);
    if (!contact.ok()) {
      std::fprintf(stderr, "stackbench: set-up submit failed: %s\n",
                   contact.error().message().c_str());
      std::exit(2);
    }
    s.contacts.push_back(std::move(contact).value());
  }
  // Same decisions, next generation: invalidates the decision cache.
  s.updater = std::make_unique<Updater>([&s, this] { s.vo->Replace(vo_doc_); });
}

void GramManage::Teardown() {
  if (!stack_) return;
  stack_->server->Shutdown();
  stack_->chain.sink->Flush();
  stack_.reset();
  RemoveAuditFiles(AuditPath());
}

OpOutcome GramManage::Issue(gram::wire::WireClient& client, Action action,
                            const std::string& contact,
                            const Expectation& expected) {
  const auto judge = [&](const Error* error) {
    return Judge(expected, error, [](std::string_view name) { return name == "vo"; });
  };
  switch (action) {
    case kInformation: {
      auto reply = client.Status(contact);
      return judge(reply.ok() ? nullptr : &reply.error());
    }
    case kSignal: {
      auto reply = client.Signal(contact, {gram::SignalKind::kPriority, 1});
      return judge(reply.ok() ? nullptr : &reply.error());
    }
    case kCancel: {
      auto reply = client.Cancel(contact);
      return judge(reply.ok() ? nullptr : &reply.error());
    }
  }
  return {Verdict::kFailed, "unknown action"};
}

std::string GramManage::DescribeTuple(const Tuple& tuple) const {
  return "requester='" + IdentityDn(tuple.requester) + "' action=" +
         std::string{kActionNames[tuple.action]} + " job_owner='" +
         UserDn(tuple.owner) + "' rsl='" + kTemplates[tuple.tmpl] + "'";
}

OpOutcome GramManage::Run(Phase phase, std::size_t index, int thread) {
  const Op& op = (phase == Phase::kClosed ? closed_ : open_)[index];
  const Tuple& tuple = tuples_[op.tuple];
  OpOutcome outcome = Issue(*stack_->clients[thread][op.requester], op.action,
                            stack_->contacts[op.job], tuple.expected);
  if (outcome.verdict == Verdict::kMismatch) {
    outcome.detail = DescribeTuple(tuple) + ": " + outcome.detail;
  }
  // Mid-period, so each swap-period chunk or window holds its swap and
  // the misses or re-mints that follow it.
  if (index % kSwapEvery == kSwapEvery / 2) stack_->updater->Trigger();
  return outcome;
}

CorrectnessReport GramManage::CheckCorrectness() {
  Stack& s = *stack_;
  CorrectnessReport report;
  for (const Tuple& tuple : tuples_) {
    std::string contact;
    if (tuple.action == kCancel && tuple.expected.permit) {
      // A permitted cancel ends its job: cancel a fresh one.
      contact = s.clients[0][tuple.owner]
                    ->Submit(kTemplates[tuple.tmpl])
                    .value_or("");
    } else {
      // Live job j has owner j % kUsers and template (j / kUsers) % 3.
      contact = s.contacts[tuple.owner + kUsers * tuple.tmpl];
    }
    auto& client = *s.clients[0][tuple.requester];
    const OpOutcome outcome = Issue(client, tuple.action, contact, tuple.expected);
    ++report.tuples;
    if (outcome.verdict != Verdict::kExpected) {
      report.ok = false;
      report.first_bad = DescribeTuple(tuple) + ": " + outcome.detail;
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

void GramManage::CorruptOracle() {
  Expectation& expected = tuples_[closed_[0].tuple].expected;
  expected.permit = !expected.permit;
  if (!expected.permit) expected.reason = "corrupted oracle entry";
}

std::map<std::string, double> GramManage::Counters() {
  Stack& s = *stack_;
  const gram::wire::ServerStats stats = s.server->Snapshot();
  double busy_us = 0;
  for (std::int64_t us : stats.worker_busy_us) busy_us += static_cast<double>(us);
  return {
      {"server_workers", stats.workers},
      {"server_busy_us", busy_us},
      {"server_shed", static_cast<double>(stats.shed_queue_full +
                                          stats.shed_deadline +
                                          stats.shed_shutdown)},
      {"audit_written", static_cast<double>(s.chain.sink->written())},
      {"audit_dropped", static_cast<double>(s.chain.sink->dropped())},
      {"lib_spans", static_cast<double>(obs::Tracer().size() +
                                        obs::Tracer().dropped())},
  };
}

void GramManage::Probe(Metrics* out) {
  Stack& s = *stack_;
  std::vector<const gsi::Credential*> users;
  for (const gsi::Credential& cred : s.creds) users.push_back(&cred);
  ProbeHandshake(users, s.site.gatekeeper().host_credential(), s.site.trust(),
                 s.site.clock().Now(), out);
  ProbeCodec(s.tap, out);
  ProbeRsl({std::begin(kTemplates), std::end(kTemplates)}, out);
}

}  // namespace

std::unique_ptr<Workload> MakeGramManage(const WorkloadConfig& config) {
  return std::make_unique<GramManage>(config);
}

}  // namespace stackbench
