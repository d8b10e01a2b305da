#include "gram_common.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "gram/pdp_callout.h"
#include "trace.h"

namespace stackbench {

using namespace gridauthz;

namespace {

constexpr const char* kOu = "/O=Grid/O=Globus/OU=mcs.anl.gov";
constexpr int kVoStatements = 1000;

std::string Two(int n) {
  char buffer[8];
  std::snprintf(buffer, sizeof buffer, "%02d", n);
  return buffer;
}

}  // namespace

core::PolicyDocument ParsePolicy(const std::string& text) {
  auto document = core::PolicyDocument::Parse(text);
  if (!document.ok()) {
    std::fprintf(stderr, "stackbench: generated policy does not parse: %s\n",
                 document.error().message().c_str());
    std::exit(2);
  }
  return std::move(document).value();
}

std::string UserDn(int user) { return std::string{kOu} + "/CN=User " + Two(user); }
std::string UserAccount(int user) { return "user" + Two(user); }
std::string AdminDn(int admin) {
  return std::string{kOu} + "/CN=VO Admin " + std::to_string(admin);
}
std::string AdminAccount(int admin) { return "voadmin" + std::to_string(admin); }

std::string LocalPolicyText() {
  return std::string{kOu} + R"(:
&(action = start)(directory = /sandbox/test)
&(action = start)(directory = /sandbox/scratch)
&(action = information)
&(action = signal)
&(action = cancel)
)";
}

std::string VoPolicyText() {
  std::ostringstream text;
  text << "&" << kOu << ": (action = start)(jobtag != NULL)\n";
  int statements = 1;
  for (int u = 0; u < kUsers; ++u, ++statements) {
    text << "\n" << UserDn(u) << ":\n"
         << "&(action = start)(executable = test1)(directory = /sandbox/test)"
            "(jobtag = ADS)(count<4)\n"
         << "&(action = start)(executable = test2)(directory = /sandbox/test)"
            "(jobtag = NFC)(count<4)\n";
    if (u % 4 == 0) {
      text << "&(action = start)(executable = TRANSP)"
              "(directory = /sandbox/scratch)(jobtag = NFC)\n";
    }
    text << "&(action = information)(jobowner = self)\n"
         << "&(action = signal)(jobowner = self)\n"
         << "&(action = cancel)(jobowner = self)\n";
  }
  for (int a = 0; a < kAdmins; ++a, ++statements) {
    text << "\n" << AdminDn(a) << ":\n"
         << "&(action = information)(jobtag = NFC)\n"
         << "&(action = signal)(jobtag = NFC)\n"
         << "&(action = cancel)(jobtag = NFC)\n";
  }
  for (int m = 0; statements < kVoStatements; ++m, ++statements) {
    const int p = m % 23;
    text << "\n/O=Grid/O=Partner" << p << "/CN=Member " << m << ":\n"
         << "&(action = start)(executable = sim" << m % 7 << ")(jobtag = P" << p
         << ")(count<8)\n"
         << "&(action = information)(jobowner = self)\n";
  }
  return text.str();
}

GramOracle::GramOracle(core::PolicyDocument local, core::PolicyDocument vo)
    : local_(std::move(local)), vo_(std::move(vo)) {}

Expectation GramOracle::Decide(const core::AuthorizationRequest& request) const {
  const core::Decision local = local_.Evaluate(request);
  if (!local.permitted()) return {false, true, local.reason};
  const core::Decision vo = vo_.Evaluate(request);
  if (!vo.permitted()) return {false, false, vo.reason};
  return {true, false, ""};
}

core::AuthorizationRequest MakeRequest(const std::string& subject,
                                       std::string_view action,
                                       const std::string& owner,
                                       const std::string& rsl) {
  core::AuthorizationRequest request;
  request.subject = subject;
  request.action = std::string{action};
  request.job_owner = owner;
  request.job_rsl = rsl::ParseConjunction(rsl).value();
  return request;
}

std::string Describe(const Expectation& expected) {
  if (expected.permit) return "permit";
  return std::string{"deny by "} + (expected.by_local ? "local" : "vo") +
         ": " + expected.reason;
}

OpOutcome Judge(const Expectation& expected, const Error* error,
                const std::function<bool(std::string_view)>& vo_name) {
  if (error == nullptr) {
    if (expected.permit) return {};
    return {Verdict::kMismatch, "stack permitted; oracle expected " +
                                    Describe(expected)};
  }
  if (error->code() != ErrCode::kAuthorizationDenied) {
    return {Verdict::kFailed, error->message()};
  }
  // "GRAM_ERROR_AUTHORIZATION_DENIED: source '<name>': <reason>"
  const std::string& message = error->message();
  constexpr std::string_view kSource = "source '";
  const std::size_t at = message.find(kSource);
  const std::size_t name_end =
      at == std::string::npos ? at : message.find("': ", at + kSource.size());
  bool ok = !expected.permit && name_end != std::string::npos;
  if (ok) {
    const std::string_view name = std::string_view{message}.substr(
        at + kSource.size(), name_end - at - kSource.size());
    ok = (expected.by_local ? name == "local" : vo_name(name)) &&
         std::string_view{message}.substr(name_end + 3) == expected.reason;
  }
  if (ok) return {};
  return {Verdict::kMismatch,
          "stack answered '" + message + "'; oracle expected " +
              Describe(expected)};
}

PepChain BuildPepChain(std::shared_ptr<core::PolicySource> local,
                       std::shared_ptr<core::PolicySource> vo,
                       const Clock* clock, const std::string& audit_path,
                       bool traced) {
  auto combining = std::make_shared<core::CombiningPdp>();
  combining->AddSource(std::move(local));
  combining->AddSource(std::move(vo));
  std::shared_ptr<core::PolicySource> pdp = combining;
  if (traced) pdp = std::make_shared<TimedSource>(kPdp, pdp);

  core::DecisionCacheOptions cache_options;
  cache_options.capacity_per_shard = 2048;  // the Zipf hot set fits
  std::shared_ptr<core::PolicySource> cached =
      std::make_shared<core::CachingPolicySource>(pdp, cache_options);
  if (traced) cached = std::make_shared<TimedSource>(kCache, cached);

  PepChain chain;
  core::FileAuditSinkOptions sink_options;
  sink_options.path = audit_path;
  sink_options.max_file_bytes = 8u << 20;
  chain.sink = std::make_shared<core::FileAuditSink>(sink_options);
  core::AuditingOptions audit_options;
  audit_options.sink = chain.sink;
  if (traced) audit_options.sink = std::make_shared<TimedSink>(chain.sink);
  chain.top = std::make_shared<core::AuditingPolicySource>(
      cached, std::make_shared<core::AuditLog>(), clock, audit_options);
  if (traced) chain.top = std::make_shared<TimedSource>(kAudit, chain.top);
  return chain;
}

void RemoveAuditFiles(const std::string& path) {
  std::remove(path.c_str());
  for (std::size_t i = 1; i <= core::FileAuditSinkOptions{}.max_rotated_files; ++i) {
    std::remove((path + "." + std::to_string(i)).c_str());
  }
}

void InstallPep(gram::SimulatedSite& site, const PepChain& chain, bool traced) {
  if (!traced) {
    site.UseJobManagerPep(chain.top);
    return;
  }
  site.callouts().BindDirect(std::string{gram::kJobManagerAuthzType},
                             TimedCallout(gram::MakePdpCallout(chain.top)));
}

}  // namespace stackbench
