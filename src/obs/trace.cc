#include "obs/trace.h"

namespace tcells::obs {

Trace::Trace(uint64_t query_id) : query_id_(query_id) {
  root_ = std::make_unique<Span>();
  root_->id = next_id_++;
  root_->name = kSpanQuery;
}

Span* Trace::StartSpan(Span* parent, std::string name) {
  if (parent == nullptr) parent = root_.get();
  auto span = std::make_unique<Span>();
  span->id = next_id_++;
  span->parent_id = parent->id;
  span->name = std::move(name);
  parent->children.push_back(std::move(span));
  return parent->children.back().get();
}

namespace {

void Visit(const Span& span, int depth,
           const std::function<void(const Span&, int)>& fn) {
  fn(span, depth);
  for (const auto& child : span.children) Visit(*child, depth + 1, fn);
}

void AppendQuoted(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default: out->push_back(c);
    }
  }
  out->push_back('"');
}

void SpanToJson(const Span& span, const TraceExportOptions& options,
                const std::string& indent, std::string* out) {
  const std::string in2 = indent + "  ";
  *out += "{\n" + in2 + "\"name\": ";
  AppendQuoted(span.name, out);
  *out += ",\n" + in2 + "\"id\": " + std::to_string(span.id);
  *out += ",\n" + in2 + "\"sim_begin_seconds\": " +
          FormatDouble(span.sim_begin_seconds);
  *out += ",\n" + in2 + "\"sim_end_seconds\": " +
          FormatDouble(span.sim_end_seconds);
  if (options.include_wall_time) {
    *out += ",\n" + in2 + "\"wall_micros\": " + FormatDouble(span.wall_micros);
  }
  if (!span.counts.empty()) {
    *out += ",\n" + in2 + "\"counts\": {";
    bool first = true;
    for (const auto& [key, value] : span.counts) {
      if (!first) *out += ", ";
      first = false;
      AppendQuoted(key, out);
      *out += ": " + std::to_string(value);
    }
    *out += "}";
  }
  if (!span.values.empty()) {
    *out += ",\n" + in2 + "\"values\": {";
    bool first = true;
    for (const auto& [key, value] : span.values) {
      if (!first) *out += ", ";
      first = false;
      AppendQuoted(key, out);
      *out += ": " + FormatDouble(value);
    }
    *out += "}";
  }
  if (!span.labels.empty()) {
    *out += ",\n" + in2 + "\"labels\": {";
    bool first = true;
    for (const auto& [key, value] : span.labels) {
      if (!first) *out += ", ";
      first = false;
      AppendQuoted(key, out);
      *out += ": ";
      AppendQuoted(value, out);
    }
    *out += "}";
  }
  if (!span.children.empty()) {
    *out += ",\n" + in2 + "\"children\": [";
    for (size_t i = 0; i < span.children.size(); ++i) {
      *out += i ? ", " : "";
      SpanToJson(*span.children[i], options, in2, out);
    }
    *out += "]";
  }
  *out += "\n" + indent + "}";
}

}  // namespace

void Trace::ForEach(
    const std::function<void(const Span&, int depth)>& fn) const {
  Visit(*root_, 0, fn);
}

uint64_t Trace::SumCount(const std::string& span_name,
                         const std::string& key) const {
  uint64_t total = 0;
  ForEach([&](const Span& span, int) {
    if (span.name != span_name) return;
    auto it = span.counts.find(key);
    if (it != span.counts.end()) total += it->second;
  });
  return total;
}

size_t Trace::CountSpans(const std::string& span_name) const {
  size_t n = 0;
  ForEach([&](const Span& span, int) {
    if (span.name == span_name) ++n;
  });
  return n;
}

std::string Trace::ToJson(const TraceExportOptions& options) const {
  std::string out = "{\n  \"query_id\": " + std::to_string(query_id_);
  out += ",\n  \"span\": ";
  SpanToJson(*root_, options, "  ", &out);
  out += "\n}\n";
  return out;
}

std::shared_ptr<Trace> Tracer::StartTrace(uint64_t query_id) {
  auto trace = std::make_shared<Trace>(query_id);
  std::lock_guard<std::mutex> lock(mu_);
  traces_.push_back(trace);
  return trace;
}

std::shared_ptr<const Trace> Tracer::TraceFor(uint64_t query_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = traces_.rbegin(); it != traces_.rend(); ++it) {
    if ((*it)->query_id() == query_id) return *it;
  }
  return nullptr;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return traces_.size();
}

}  // namespace tcells::obs
