// Pieces the two GRAM workloads share: the identities, the resource
// owner's (local) and the VO's policy documents, the PEP chain a
// deployment puts behind the job-manager callout, and the oracle that
// predicts every decision with the naive evaluator.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/audit.h"
#include "core/audit_sink.h"
#include "core/decision_cache.h"
#include "core/evaluator.h"
#include "core/source.h"
#include "gram/site.h"

namespace stackbench {

inline constexpr int kUsers = 64;
inline constexpr int kAdmins = 4;

std::string UserDn(int user);
std::string UserAccount(int user);
std::string AdminDn(int admin);
std::string AdminAccount(int admin);

// Policies travel as text, the way a deployment reads its policy files:
// every stack build parses them again, inside the timed set-up.
//
// Resource-owner policy: any mcs.anl.gov member may start in the sandbox
// directories and manage jobs; the VO policy decides the fine grain.
std::string LocalPolicyText();
// VO policy, ~1k statements: the Figure 3 idioms (the jobtag requirement,
// per-user start grants with count<4, jobowner=self management, a VO
// administrator managing a jobtag group) for every benchmark identity,
// plus partner-organisation statements that never apply to them.
std::string VoPolicyText();
// Parses a generated policy text; exits when it does not parse.
gridauthz::core::PolicyDocument ParsePolicy(const std::string& text);

// What the stack must answer for one request: permit, or a denial whose
// reason names the source that denied ("local" or the VO source).
struct Expectation {
  bool permit = false;
  bool by_local = false;  // denial came from the local source
  std::string reason;     // the evaluator's reason, unprefixed
};

class GramOracle {
 public:
  GramOracle(gridauthz::core::PolicyDocument local,
             gridauthz::core::PolicyDocument vo);
  Expectation Decide(const gridauthz::core::AuthorizationRequest& request) const;

 private:
  gridauthz::core::PolicyEvaluator local_;
  gridauthz::core::PolicyEvaluator vo_;
};

// The request the job-manager callout builds for a job with `rsl`.
gridauthz::core::AuthorizationRequest MakeRequest(const std::string& subject,
                                                  std::string_view action,
                                                  const std::string& owner,
                                                  const std::string& rsl);

// Checks one reply against an expectation. `error` is the wire client's
// error for a non-OK reply, null for OK. The VO source's name differs per
// deployment, so `vo_name` decides which names are acceptable.
OpOutcome Judge(const Expectation& expected, const gridauthz::Error* error,
                const std::function<bool(std::string_view)>& vo_name);

std::string Describe(const Expectation& expected);

// Audited → cached → combined(local, vo): the PEP chain behind the
// job-manager callout. With `traced`, timing decorators sit between the
// layers (and around the audit sink).
struct PepChain {
  std::shared_ptr<gridauthz::core::FileAuditSink> sink;
  std::shared_ptr<gridauthz::core::PolicySource> top;
};

PepChain BuildPepChain(std::shared_ptr<gridauthz::core::PolicySource> local,
                       std::shared_ptr<gridauthz::core::PolicySource> vo,
                       const gridauthz::Clock* clock,
                       const std::string& audit_path, bool traced);

// Deletes a chain's audit file and its rotated predecessors.
void RemoveAuditFiles(const std::string& path);

// Binds the chain as the site's job-manager PEP: exactly
// UseJobManagerPep untraced, or the same callout under a timing
// decorator when traced.
void InstallPep(gridauthz::gram::SimulatedSite& site, const PepChain& chain,
                bool traced);

}  // namespace stackbench
