// Isolated probes for layers with no seam on the request path. Each one
// times a public library function on inputs taken from the workload (its
// credential pairs, the frames captured in the traced run, its RSLs), so
// the figures are per-call costs, not shares of a measured request.
#pragma once

#include <string>
#include <vector>

#include "gsi/credential.h"
#include "trace.h"
#include "workload.h"

namespace stackbench {

// gsi.handshake_us_p50 and gsi.handshake_delegate_us_p50.
void ProbeHandshake(const std::vector<const gridauthz::gsi::Credential*>& users,
                    const gridauthz::gsi::Credential& host,
                    const gridauthz::gsi::TrustRegistry& trust,
                    gridauthz::TimePoint now, Metrics* out);
// gram.codec.parse_ns_p50, gram.codec.encode_ns_p50 and
// gram.codec.bytes_per_op.
void ProbeCodec(const FrameTap& tap, Metrics* out);
// rsl.parse_ns_p50.
void ProbeRsl(const std::vector<std::string>& rsls, Metrics* out);
// obs.span_record_ns_1t and obs.span_record_ns_nproc.
void ProbeScopedSpan(int threads, Metrics* out);

}  // namespace stackbench
