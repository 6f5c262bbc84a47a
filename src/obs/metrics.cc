#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace tcells::obs {

std::string FormatDouble(double value) {
  char buf[64];
  // Shortest precision that round-trips: equal doubles always produce equal
  // strings, and simple values print simply ("0.1", not "0.100000...001").
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0) {}

void Histogram::Record(double value) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t bucket =
      std::lower_bound(bounds_.begin(), bounds_.end(), value) - bounds_.begin();
  counts_[bucket] += 1;
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  count_ += 1;
  sum_ += value;
}

Histogram::Snapshot Histogram::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  snap.bounds = bounds_;
  snap.counts = counts_;
  snap.count = count_;
  snap.sum = sum_;
  snap.min = min_;
  snap.max = max_;
  return snap;
}

std::vector<double> Histogram::ExponentialBounds(double start, double factor,
                                                 size_t n) {
  std::vector<double> bounds;
  bounds.reserve(n);
  double b = start;
  for (size_t i = 0; i < n; ++i) {
    bounds.push_back(b);
    b *= factor;
  }
  return bounds;
}

std::vector<double> Histogram::DefaultSizeBounds() {
  return ExponentialBounds(64, 4, 11);  // 64 B .. 64 MiB
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  Snapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->value();
  }
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms[name] = histogram->snapshot();
  }
  return snap;
}

namespace {

void AppendJsonString(const std::string& s, std::string* out) {
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

}  // namespace

std::string MetricsRegistry::ToJson() const {
  Snapshot snap = snapshot();
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    AppendJsonString(name, &out);
    out += ": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    AppendJsonString(name, &out);
    out += ": {\"count\": " + std::to_string(h.count);
    out += ", \"sum\": " + FormatDouble(h.sum);
    if (h.count > 0) {
      out += ", \"min\": " + FormatDouble(h.min);
      out += ", \"max\": " + FormatDouble(h.max);
    }
    out += ", \"buckets\": [";
    for (size_t i = 0; i < h.counts.size(); ++i) {
      if (i) out += ", ";
      out += "[";
      out += i < h.bounds.size() ? FormatDouble(h.bounds[i]) : "null";
      out += ", " + std::to_string(h.counts[i]) + "]";
    }
    out += "]}";
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

std::string MetricsRegistry::ToCsv() const {
  Snapshot snap = snapshot();
  std::string out = "kind,name,field,value\n";
  for (const auto& [name, value] : snap.counters) {
    out += "counter," + name + ",value," + std::to_string(value) + "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    out += "histogram," + name + ",count," + std::to_string(h.count) + "\n";
    out += "histogram," + name + ",sum," + FormatDouble(h.sum) + "\n";
    if (h.count > 0) {
      out += "histogram," + name + ",min," + FormatDouble(h.min) + "\n";
      out += "histogram," + name + ",max," + FormatDouble(h.max) + "\n";
    }
    for (size_t i = 0; i < h.counts.size(); ++i) {
      out += "histogram," + name + ",le_";
      out += i < h.bounds.size() ? FormatDouble(h.bounds[i]) : "inf";
      out += "," + std::to_string(h.counts[i]) + "\n";
    }
  }
  return out;
}

}  // namespace tcells::obs
