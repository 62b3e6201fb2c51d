#include "obs/span_log.hpp"

#include <algorithm>
#include <map>
#include <utility>

namespace ape::obs {

SpanLog::SpanLog(std::size_t capacity) : capacity_(capacity) {
  spans_.reserve(std::min<std::size_t>(capacity_, 1024));
}

TraceContext SpanLog::open_root(std::string name, std::string component, std::string key,
                                sim::Time start) {
  if (!enabled_) return {};
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return {};
  }
  Span span;
  span.trace = next_trace_++;
  span.id = static_cast<SpanId>(spans_.size() + 1);
  span.parent = 0;
  span.name = std::move(name);
  span.component = std::move(component);
  span.key = std::move(key);
  span.start = start;
  spans_.push_back(std::move(span));
  ++open_count_;
  return TraceContext{spans_.back().trace, spans_.back().id};
}

TraceContext SpanLog::open(const TraceContext& parent, std::string name, std::string component,
                           std::string key, sim::Time start) {
  if (!enabled_ || !parent.valid()) return {};
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return {};
  }
  Span span;
  span.trace = parent.trace;
  span.id = static_cast<SpanId>(spans_.size() + 1);
  span.parent = parent.span;
  span.name = std::move(name);
  span.component = std::move(component);
  span.key = std::move(key);
  span.start = start;
  spans_.push_back(std::move(span));
  ++open_count_;
  return TraceContext{spans_.back().trace, spans_.back().id};
}

void SpanLog::close(const TraceContext& ctx, sim::Time end) {
  if (!ctx.valid() || ctx.span > spans_.size()) return;
  Span& span = spans_[static_cast<std::size_t>(ctx.span) - 1];
  if (span.trace != ctx.trace || span.closed) return;
  span.end = end;
  span.closed = true;
  --open_count_;
  closed_.push_back(static_cast<std::size_t>(ctx.span) - 1);
}

std::vector<std::size_t> SpanLog::take_closed() {
  std::sort(closed_.begin(), closed_.end());
  return std::exchange(closed_, {});
}

void SpanLog::clear() {
  spans_.clear();
  ambient_.clear();
  closed_.clear();
  next_trace_ = 1;
  dropped_ = 0;
  open_count_ = 0;
}

// --- analysis -------------------------------------------------------------

namespace {

// Spans of one trace, in open order, keyed for parent lookup.
struct TraceView {
  std::vector<const Span*> spans;
  std::map<SpanId, const Span*> by_id;
  std::map<SpanId, std::vector<const Span*>> children;  // parent id -> children
  const Span* root = nullptr;
  std::size_t root_count = 0;
};

// Ordered map: validation/attribution output order must be deterministic.
std::map<TraceId, TraceView> group_by_trace(const std::vector<Span>& spans) {
  std::map<TraceId, TraceView> traces;
  for (const Span& span : spans) {
    TraceView& view = traces[span.trace];
    view.spans.push_back(&span);
    view.by_id.emplace(span.id, &span);
    if (span.parent == 0) {
      ++view.root_count;
      if (view.root == nullptr) view.root = &span;
    } else {
      view.children[span.parent].push_back(&span);
    }
  }
  return traces;
}

}  // namespace

std::vector<SpanIssue> validate_spans(const std::vector<Span>& spans) {
  std::vector<SpanIssue> issues;
  const auto traces = group_by_trace(spans);
  for (const auto& [trace, view] : traces) {
    if (view.root_count != 1) {
      issues.push_back({trace, 0,
                        "expected exactly one root span, found " +
                            std::to_string(view.root_count)});
    }
    for (const Span* span : view.spans) {
      if (!span->closed) {
        issues.push_back({trace, span->id, "span '" + span->name + "' never closed"});
        continue;
      }
      if (span->end < span->start) {
        issues.push_back({trace, span->id, "span '" + span->name + "' ends before it starts"});
      }
      if (span->parent != 0) {
        const auto parent_it = view.by_id.find(span->parent);
        if (parent_it == view.by_id.end()) {
          issues.push_back({trace, span->id,
                            "span '" + span->name + "' has unknown parent " +
                                std::to_string(span->parent)});
        } else if (parent_it->second->closed &&
                   (span->start < parent_it->second->start ||
                    span->end > parent_it->second->end)) {
          issues.push_back({trace, span->id,
                            "span '" + span->name + "' escapes parent '" +
                                parent_it->second->name + "' bounds"});
        }
      }
    }
    // Sibling non-overlap: within one parent, children must be sequential
    // in sim-time.  This is what makes exclusive-time attribution exact.
    for (const auto& [parent, kids] : view.children) {
      std::vector<const Span*> sorted = kids;
      std::stable_sort(sorted.begin(), sorted.end(),
                       [](const Span* a, const Span* b) { return a->start < b->start; });
      for (std::size_t i = 1; i < sorted.size(); ++i) {
        if (!sorted[i - 1]->closed || !sorted[i]->closed) continue;
        if (sorted[i]->start < sorted[i - 1]->end) {
          issues.push_back({trace, sorted[i]->id,
                            "span '" + sorted[i]->name + "' overlaps sibling '" +
                                sorted[i - 1]->name + "'"});
        }
      }
    }
  }
  return issues;
}

std::vector<TraceAttribution> attribute_traces(const std::vector<Span>& spans) {
  std::vector<TraceAttribution> out;
  const auto traces = group_by_trace(spans);
  out.reserve(traces.size());
  for (const auto& [trace, view] : traces) {
    TraceAttribution attr;
    attr.trace = trace;
    attr.root = view.root;
    if (view.root != nullptr && view.root->closed) attr.end_to_end = view.root->duration();
    attr.rows.reserve(view.spans.size());
    for (const Span* span : view.spans) {
      sim::Duration covered{0};
      if (const auto kids = view.children.find(span->id); kids != view.children.end()) {
        for (const Span* child : kids->second) covered += child->duration();
      }
      SpanAttribution row;
      row.span = span;
      row.exclusive = span->duration() - covered;
      attr.exclusive_sum += row.exclusive;
      attr.rows.push_back(row);
    }
    attr.reconciles = view.root_count == 1 && view.root->closed &&
                      attr.exclusive_sum == attr.end_to_end;
    out.push_back(std::move(attr));
  }
  return out;
}

}  // namespace ape::obs
