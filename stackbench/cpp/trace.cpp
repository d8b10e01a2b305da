#include "trace.h"

#include <algorithm>

#include "obs/trace.h"

namespace stackbench {
namespace {

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<std::vector<SpanRec>>> buffers;
};

Registry& Buffers() {
  static Registry registry;
  return registry;
}

thread_local std::vector<SpanRec>* tl_buffer = nullptr;

}  // namespace

void SpanBuffers::Record(const SpanRec& span) {
  if (tl_buffer == nullptr) {
    Registry& registry = Buffers();
    std::lock_guard lock(registry.mu);
    registry.buffers.push_back(std::make_unique<std::vector<SpanRec>>());
    registry.buffers.back()->reserve(1 << 14);
    tl_buffer = registry.buffers.back().get();
  }
  tl_buffer->push_back(span);
}

std::vector<SpanRec> SpanBuffers::Drain() {
  Registry& registry = Buffers();
  std::lock_guard lock(registry.mu);
  std::vector<SpanRec> out;
  for (auto& buffer : registry.buffers) {
    out.insert(out.end(), buffer->begin(), buffer->end());
    buffer->clear();
  }
  return out;
}

void FrameTap::Note(std::string_view request, std::string_view reply) {
  if (!armed_.load(std::memory_order_relaxed)) return;
  bytes_.fetch_add(request.size() + reply.size(), std::memory_order_relaxed);
  exchanges_.fetch_add(1, std::memory_order_relaxed);
  if (sampled_.load(std::memory_order_relaxed) >= kSampleLimit) return;
  std::lock_guard lock(mu_);
  if (samples_.size() >= 2 * kSampleLimit) return;
  samples_.emplace_back(request);
  samples_.emplace_back(reply);
  sampled_.store(samples_.size() / 2, std::memory_order_relaxed);
}

std::vector<std::string> FrameTap::Samples() const {
  std::lock_guard lock(mu_);
  return samples_;
}

std::string_view FrameTraceId(std::string_view frame) {
  constexpr std::string_view kKey = "\ntrace-id: ";
  const std::size_t at = frame.find(kKey);
  if (at == std::string_view::npos) return {};
  const std::size_t begin = at + kKey.size();
  const std::size_t end = frame.find('\r', begin);
  return frame.substr(begin, end == std::string_view::npos ? frame.size() - begin
                                                           : end - begin);
}

gridauthz::Expected<gridauthz::core::Decision> TimedSource::Authorize(
    const gridauthz::core::AuthorizationRequest& request) {
  SpanTimer span(layer_, TraceKey(gridauthz::obs::CurrentTraceId()));
  return inner_->Authorize(request);
}

gridauthz::gram::AuthorizationCallout TimedCallout(
    gridauthz::gram::AuthorizationCallout inner) {
  return [inner = std::move(inner)](const gridauthz::gram::CalloutData& data) {
    SpanTimer span(kCallout, TraceKey(data.trace_id));
    return inner(data);
  };
}

LayerSamples AnalyzeSpans(std::vector<SpanRec> spans) {
  // Within one trace, parents start no later and end no earlier than
  // their children; sorting by (trace, start asc, end desc) lets one
  // stack sweep find every span's innermost enclosing span.
  std::sort(spans.begin(), spans.end(), [](const SpanRec& a, const SpanRec& b) {
    if (a.trace != b.trace) return a.trace < b.trace;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.end_ns > b.end_ns;
  });
  const std::size_t n = spans.size();
  std::vector<std::int64_t> child_ns(n, 0);
  std::vector<std::uint8_t> has_pdp_child(n, 0);
  std::vector<std::size_t> parent(n, n);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < n; ++i) {
    const SpanRec& span = spans[i];
    while (!stack.empty()) {
      const SpanRec& top = spans[stack.back()];
      if (top.trace == span.trace && top.start_ns <= span.start_ns &&
          span.end_ns <= top.end_ns) {
        break;
      }
      stack.pop_back();
    }
    if (!stack.empty()) {
      const std::size_t p = stack.back();
      parent[i] = p;
      child_ns[p] += span.end_ns - span.start_ns;
      if (span.layer == kPdp) has_pdp_child[p] = 1;
    }
    stack.push_back(i);
  }

  LayerSamples out;
  for (std::size_t i = 0; i < n; ++i) {
    const SpanRec& span = spans[i];
    const double dur = static_cast<double>(span.end_ns - span.start_ns) / 1e3;
    const double self =
        static_cast<double>(span.end_ns - span.start_ns - child_ns[i]) / 1e3;
    out.dur_us[span.layer].push_back(dur);
    out.self_us[span.layer].push_back(self);
    if (span.layer == kEndpoint && parent[i] < n &&
        spans[parent[i]].layer == kServer) {
      out.queue_wait_us.push_back(
          static_cast<double>(span.start_ns - spans[parent[i]].start_ns) / 1e3);
    }
    if (span.layer == kCache) {
      ++out.cache_calls;
      if (!has_pdp_child[i]) ++out.cache_hits;
    }
    if (span.layer == kNode && span.tag < out.node_attempts.size()) {
      ++out.node_attempts[span.tag];
    }
  }
  return out;
}

}  // namespace stackbench
