#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.h"
#include "common/strings.h"

namespace db::obs {

std::int32_t HistogramStats::BucketIndex(double value) {
  if (!(value >= 1.0)) return 0;  // underflow bucket (incl. negatives/NaN)
  int exp = 0;
  // frexp: value = m * 2^exp with m in [0.5, 1) — so the octave is
  // exp - 1 and value / 2^octave lands in [1, 2).
  const double mantissa = std::frexp(value, &exp);
  const std::int32_t octave = exp - 1;
  const auto sub = std::min<std::int32_t>(
      kSubBuckets - 1,
      static_cast<std::int32_t>((mantissa * 2.0 - 1.0) * kSubBuckets));
  return 1 + octave * kSubBuckets + sub;
}

double HistogramStats::BucketLowerBound(std::int32_t index) {
  if (index <= 0) return 0.0;
  const std::int32_t octave = (index - 1) / kSubBuckets;
  const std::int32_t sub = (index - 1) % kSubBuckets;
  return std::ldexp(
      1.0 + static_cast<double>(sub) / static_cast<double>(kSubBuckets),
      octave);
}

void HistogramStats::Observe(double value, std::int64_t n) {
  DB_CHECK_MSG(n >= 1, "a histogram observes at least one sample");
  if (count == 0) {
    min = value;
    max = value;
  } else {
    min = std::min(min, value);
    max = std::max(max, value);
  }
  count += n;
  sum += value * static_cast<double>(n);
  buckets[BucketIndex(value)] += n;
}

void HistogramStats::Merge(const HistogramStats& other) {
  if (other.count == 0) return;
  if (count == 0) {
    min = other.min;
    max = other.max;
  } else {
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }
  count += other.count;
  sum += other.sum;
  for (const auto& [index, n] : other.buckets) buckets[index] += n;
}

double HistogramStats::Quantile(double q) const {
  DB_CHECK_MSG(q >= 0.0 && q <= 100.0,
               "quantile must be a percentile in [0, 100]");
  if (count == 0) return 0.0;  // the documented zero state
  // Nearest rank: the smallest rank whose cumulative share covers q.
  const auto rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::ceil(q / 100.0 * static_cast<double>(count))));
  std::int64_t cumulative = 0;
  for (const auto& [index, n] : buckets) {
    cumulative += n;
    if (cumulative >= rank)
      return std::clamp(BucketLowerBound(index), min, max);
  }
  return max;  // unreachable: bucket counts always sum to `count`
}

void MetricsRegistry::AddCounter(std::string_view name,
                                 std::int64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    counters_.emplace(std::string(name), delta);
  else
    it->second += delta;
}

void MetricsRegistry::SetGauge(std::string_view name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    gauges_.emplace(std::string(name), value);
  else
    it->second = value;
}

void MetricsRegistry::Observe(std::string_view name, double value,
                              std::int64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  histograms_[std::string(name)].Observe(value, n);
}

void MetricsRegistry::MergeHistogram(std::string_view name,
                                     const HistogramStats& h) {
  if (h.count == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  histograms_[std::string(name)].Merge(h);
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other) {
  // Snapshot `other` first so locks never nest between two registries.
  std::map<std::string, std::int64_t, std::less<>> counters;
  std::map<std::string, double, std::less<>> gauges;
  std::map<std::string, HistogramStats, std::less<>> histograms;
  {
    std::lock_guard<std::mutex> lock(other.mu_);
    counters = other.counters_;
    gauges = other.gauges_;
    histograms = other.histograms_;
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, value] : counters) counters_[name] += value;
  for (const auto& [name, value] : gauges) gauges_[name] = value;
  for (const auto& [name, h] : histograms) histograms_[name].Merge(h);
}

std::int64_t MetricsRegistry::CounterValue(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::GaugeValue(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

HistogramStats MetricsRegistry::HistogramOf(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? HistogramStats{} : it->second;
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    os << (first ? "" : ",") << "\n    \"" << name << "\": " << value;
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges_) {
    os << (first ? "" : ",") << "\n    \"" << name
       << "\": " << FormatJsonDouble(value);
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    os << (first ? "" : ",") << "\n    \"" << name << "\": {\"count\": "
       << h.count << ", \"sum\": " << FormatJsonDouble(h.sum)
       << ", \"min\": " << FormatJsonDouble(h.min)
       << ", \"max\": " << FormatJsonDouble(h.max)
       << ", \"mean\": " << FormatJsonDouble(h.Mean())
       << ", \"p50\": " << FormatJsonDouble(h.P50())
       << ", \"p90\": " << FormatJsonDouble(h.P90())
       << ", \"p99\": " << FormatJsonDouble(h.P99())
       << ", \"p999\": " << FormatJsonDouble(h.P999()) << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
  return os.str();
}

}  // namespace db::obs
