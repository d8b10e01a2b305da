#include "probes.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "gram/wire.h"
#include "gsi/security_context.h"
#include "obs/trace.h"
#include "rsl/rsl.h"

namespace stackbench {

using namespace gridauthz;

namespace {

// Keeps a computed value alive so the timed loop cannot be elided.
template <typename T>
void Keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

// Mean ns per call of `fn` over `reps` calls.
template <typename Fn>
double NsPerCall(int reps, Fn&& fn) {
  const std::int64_t begin = NowNs();
  for (int i = 0; i < reps; ++i) fn();
  return static_cast<double>(NowNs() - begin) / reps;
}

constexpr int kReps = 200;

// Re-encodes a decoded frame with the zero-copy writer; false when the
// frame is not one of the GRAM message types.
bool Encode(const gram::wire::MessageView& view, gram::wire::FrameWriter& writer) {
  const std::string_view type = view.Get("message-type").value_or("");
  using namespace gram::wire;
  if (type == "job-request") {
    auto decoded = JobRequest::Decode(view);
    if (!decoded.ok()) return false;
    decoded->EncodeTo(writer);
  } else if (type == "job-request-reply") {
    auto decoded = JobRequestReply::Decode(view);
    if (!decoded.ok()) return false;
    decoded->EncodeTo(writer);
  } else if (type == "management-request") {
    auto decoded = ManagementRequest::Decode(view);
    if (!decoded.ok()) return false;
    decoded->EncodeTo(writer);
  } else if (type == "management-reply") {
    auto decoded = ManagementReply::Decode(view);
    if (!decoded.ok()) return false;
    decoded->EncodeTo(writer);
  } else {
    return false;
  }
  return true;
}

}  // namespace

void ProbeHandshake(const std::vector<const gsi::Credential*>& users,
                    const gsi::Credential& host, const gsi::TrustRegistry& trust,
                    TimePoint now, Metrics* out) {
  for (bool delegate : {false, true}) {
    std::vector<double> us;
    for (std::size_t i = 0; i < 4 * users.size(); ++i) {
      const std::int64_t begin = NowNs();
      auto result = gsi::EstablishSecurityContext(*users[i % users.size()], host,
                                                  trust, now, delegate);
      us.push_back(static_cast<double>(NowNs() - begin) / 1e3);
      if (!result.ok()) {
        std::fprintf(stderr, "stackbench: handshake probe failed: %s\n",
                     result.error().message().c_str());
        std::exit(2);
      }
    }
    out->push_back({delegate ? "gsi.handshake_delegate_us_p50"
                             : "gsi.handshake_us_p50",
                    Median(us), "us"});
  }
}

void ProbeCodec(const FrameTap& tap, Metrics* out) {
  std::vector<double> parse_ns;
  std::vector<double> encode_ns;
  std::string buffer;
  gram::wire::FrameWriter writer(&buffer);
  for (const std::string& frame : tap.Samples()) {
    auto view = gram::wire::MessageView::Parse(frame);
    if (!view.ok() || !Encode(*view, writer)) continue;
    parse_ns.push_back(NsPerCall(kReps, [&] {
      auto parsed = gram::wire::MessageView::Parse(frame);
      Keep(parsed);
    }));
    encode_ns.push_back(NsPerCall(kReps, [&] {
      Encode(*view, writer);
      Keep(buffer);
    }));
  }
  out->push_back({"gram.codec.parse_ns_p50", Median(parse_ns), "ns"});
  out->push_back({"gram.codec.encode_ns_p50", Median(encode_ns), "ns"});
  const double exchanges = static_cast<double>(tap.exchanges());
  out->push_back({"gram.codec.bytes_per_op",
                  exchanges > 0 ? static_cast<double>(tap.bytes()) / exchanges : 0,
                  "B"});
}

void ProbeRsl(const std::vector<std::string>& rsls, Metrics* out) {
  std::vector<double> ns;
  for (const std::string& text : rsls) {
    ns.push_back(NsPerCall(kReps, [&] {
      auto parsed = rsl::ParseConjunction(text);
      Keep(parsed);
    }));
  }
  out->push_back({"rsl.parse_ns_p50", Median(ns), "ns"});
}

void ProbeScopedSpan(int threads, Metrics* out) {
  constexpr int kSpans = 20000;
  const auto run = [](int n) {
    std::vector<double> per_thread(n);
    std::atomic<int> ready{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < n; ++t) {
      workers.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < n) {
        }
        per_thread[t] = NsPerCall(kSpans, [] { obs::ScopedSpan span("probe/span"); });
      });
    }
    for (std::thread& worker : workers) worker.join();
    return Median(per_thread);
  };
  out->push_back({"obs.span_record_ns_1t", run(1), "ns"});
  out->push_back({"obs.span_record_ns_nproc", run(threads), "ns"});
}

}  // namespace stackbench
