// Benchmark-owned tracing for the traced run. Timing decorators sit on
// the seams the library already exposes — WireTransport, the callout
// bound with CalloutDispatcher::BindDirect, PolicySource, AuditSink,
// FleetNodeHandle::transport — and the FileTransferService call sites.
// Each decorator records one span (layer, trace key, start, end) into a
// per-thread buffer; nothing is written out until the run ends. Parents
// are recovered afterwards from interval nesting inside one trace, which
// also links spans that crossed a thread hop (ServerTransport workers).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"
#include "core/audit_sink.h"
#include "core/source.h"
#include "gram/callout.h"
#include "gram/wire_service.h"

namespace stackbench {

enum Layer : std::uint8_t {
  kServer,       // ServerTransport as the client sees it (queue + work)
  kEndpoint,     // WireEndpoint on a worker thread
  kCallout,      // the bound job-manager authorization callout
  kAudit,        // AuditingPolicySource
  kSink,         // AuditSink::Submit
  kCache,        // CachingPolicySource
  kPdp,          // CombiningPdp (local + VO evaluation)
  kBroker,       // FleetBroker
  kNode,         // one FleetNodeHandle::transport (whole node stack)
  kSessionOpen,  // FileTransferService::OpenDataSession
  kCheckBlock,   // FileTransferService::CheckBlock
  kObject,       // FileTransferService::GetObject / PutObject
  kLayerCount,
};

// Span names as written to the span dump, indexed by Layer.
inline constexpr const char* kLayerNames[kLayerCount] = {
    "gram.server",   "gram.endpoint",     "gram.callout",
    "core.audit",    "core.audit.sink",   "core.cache",
    "core.pdp",      "fleet.broker",      "fleet.node",
    "core.datapath.session_open", "core.datapath.check_block",
    "gridftp.object",
};

struct SpanRec {
  std::uint64_t trace = 0;  // hash of the request's trace id
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  Layer layer = kServer;
  std::uint8_t tag = 0;  // node index for kNode spans
};

// Process-wide span sink with one buffer per recording thread.
class SpanBuffers {
 public:
  static void Record(const SpanRec& span);
  // Moves every buffered span out. Call only while no traced thread is
  // recording (after the stack is torn down).
  static std::vector<SpanRec> Drain();
};

inline std::uint64_t TraceKey(std::string_view trace_id) {
  return Fnv1a(trace_id);
}

// The trace id a frame carries ("" when none), found without decoding
// the frame: the decorators must not add a codec pass of their own.
std::string_view FrameTraceId(std::string_view frame);

// Request/reply frames seen at the outermost wire seam of a traced run:
// byte totals for every frame, plus a bounded sample for the codec probe.
class FrameTap {
 public:
  static constexpr std::size_t kSampleLimit = 256;
  // Frames before Arm() (set-up traffic) are not counted.
  void Arm() { armed_.store(true, std::memory_order_relaxed); }
  void Note(std::string_view request, std::string_view reply);
  std::uint64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }
  std::uint64_t exchanges() const {
    return exchanges_.load(std::memory_order_relaxed);
  }
  std::vector<std::string> Samples() const;

 private:
  std::atomic<bool> armed_{false};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> exchanges_{0};
  std::atomic<std::size_t> sampled_{0};
  mutable std::mutex mu_;
  std::vector<std::string> samples_;  // requests and replies, interleaved
};

class SpanTimer {
 public:
  SpanTimer(Layer layer, std::uint64_t trace, std::uint8_t tag = 0)
      : rec_{trace, NowNs(), 0, layer, tag} {}
  ~SpanTimer() {
    rec_.end_ns = NowNs();
    SpanBuffers::Record(rec_);
  }
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

 private:
  SpanRec rec_;
};

// WireTransport decorator: one span per frame; with a tap, also counts
// and samples the frames for the codec probe.
class TimedTransport final : public gridauthz::gram::wire::WireTransport {
 public:
  TimedTransport(Layer layer, gridauthz::gram::wire::WireTransport* inner,
                 std::uint8_t tag = 0, FrameTap* tap = nullptr)
      : layer_(layer), tag_(tag), inner_(inner), tap_(tap) {}
  std::string Handle(const gridauthz::gsi::Credential& peer,
                     std::string_view frame) override {
    std::string reply;
    {
      SpanTimer span(layer_, TraceKey(FrameTraceId(frame)), tag_);
      reply = inner_->Handle(peer, frame);
    }
    if (tap_ != nullptr) tap_->Note(frame, reply);
    return reply;
  }

 private:
  Layer layer_;
  std::uint8_t tag_;
  gridauthz::gram::wire::WireTransport* inner_;
  FrameTap* tap_;
};

// PolicySource decorator: forwards name and generation so the caching
// and auditing layers around it behave exactly as without it.
class TimedSource final : public gridauthz::core::PolicySource {
 public:
  TimedSource(Layer layer, std::shared_ptr<gridauthz::core::PolicySource> inner)
      : layer_(layer), inner_(std::move(inner)) {}
  const std::string& name() const override { return inner_->name(); }
  gridauthz::Expected<gridauthz::core::Decision> Authorize(
      const gridauthz::core::AuthorizationRequest& request) override;
  std::uint64_t policy_generation() const override {
    return inner_->policy_generation();
  }

 private:
  Layer layer_;
  std::shared_ptr<gridauthz::core::PolicySource> inner_;
};

class TimedSink final : public gridauthz::core::AuditSink {
 public:
  explicit TimedSink(std::shared_ptr<gridauthz::core::AuditSink> inner)
      : inner_(std::move(inner)) {}
  void Submit(gridauthz::core::AuditRecord record) override {
    SpanTimer span(kSink, TraceKey(record.trace_id));
    inner_->Submit(std::move(record));
  }
  void Flush() override { inner_->Flush(); }

 private:
  std::shared_ptr<gridauthz::core::AuditSink> inner_;
};

gridauthz::gram::AuthorizationCallout TimedCallout(
    gridauthz::gram::AuthorizationCallout inner);

// Per-layer results of the nesting analysis.
struct LayerSamples {
  std::array<std::vector<double>, kLayerCount> self_us;  // span - children
  std::array<std::vector<double>, kLayerCount> dur_us;   // whole span
  std::vector<double> queue_wait_us;  // endpoint start - server start
  std::size_t cache_calls = 0;
  std::size_t cache_hits = 0;  // cache spans with no PDP child
  std::array<std::size_t, 8> node_attempts{};
};

LayerSamples AnalyzeSpans(std::vector<SpanRec> spans);

}  // namespace stackbench
