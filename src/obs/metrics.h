// MetricsRegistry: named counters, gauges and histograms shared by the
// toolchain, the simulators and the inference server.
//
// Design rules, chosen so the registry never breaks the repo's
// determinism guarantee (PR 1: every reported number is a pure function
// of the simulated workload, not of thread timing):
//
//   * Counters and histograms are *commutative* — concurrent publishers
//     (replica threads) may interleave arbitrarily and the final value is
//     still identical run to run.
//   * Gauges are last-write-wins and must therefore only be set from
//     deterministic single-threaded code (e.g. InferenceServer::Drain
//     after the replica threads joined).
//   * Iteration and JSON export walk the metric names in sorted order,
//     so two runs that published the same values emit byte-identical
//     JSON regardless of publication order.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

#include <map>

namespace db::obs {

/// Fixed-boundary log-scaled bucket histogram (HdrHistogram-style).
///
/// Bucket scheme: values below 1.0 (including negatives) land in the
/// underflow bucket 0; a value v >= 1.0 lands in octave e = floor(log2
/// v), subdivided into kSubBuckets linear sub-buckets, so the bucket
/// index is 1 + e*kSubBuckets + floor((v/2^e - 1)*kSubBuckets).  The
/// boundaries are fixed properties of the scheme — never derived from
/// the data — which makes merges commutative (bucket counts add) and
/// quantile reads exact deterministic functions of the bucket counts:
/// Quantile(q) is the lower boundary of the bucket holding the
/// nearest-rank sample, clamped into [min, max].  With 32 sub-buckets
/// per octave the relative quantile error is bounded by 1/32 (~3.1%),
/// and a single-sample histogram reports every quantile exactly.
///
/// Zero state: a default-constructed (or never-observed) histogram is
/// the documented empty value — count 0, sum/min/max/mean and every
/// quantile exactly 0.0, no buckets.  `min`/`max` are only meaningful
/// when count > 0 (the first sample initialises both).
struct HistogramStats {
  static constexpr std::int32_t kSubBuckets = 32;

  std::int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  /// Sparse bucket counts, keyed by bucket index (sorted, so export and
  /// iteration are deterministic).
  std::map<std::int32_t, std::int64_t> buckets;

  /// Bucket index of `value` under the fixed boundary scheme.
  static std::int32_t BucketIndex(double value);
  /// Inclusive lower boundary of bucket `index` (0.0 for bucket 0).
  static double BucketLowerBound(std::int32_t index);

  /// Feed `n` samples of `value` (commutative with any other
  /// Observe/Merge order; exact for the integer cycle counts the
  /// simulators publish).
  void Observe(double value, std::int64_t n = 1);

  /// Merge another histogram in (commutative and associative: bucket
  /// counts and sums add, min/max combine).
  void Merge(const HistogramStats& other);

  double Mean() const {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }

  /// Nearest-rank quantile from the bucket counts; `q` is a percentile
  /// in [0, 100].  Returns the sample's bucket lower boundary clamped
  /// into [min, max]; 0.0 on an empty histogram (the zero state).
  double Quantile(double q) const;

  double P50() const { return Quantile(50.0); }
  double P90() const { return Quantile(90.0); }
  double P99() const { return Quantile(99.0); }
  double P999() const { return Quantile(99.9); }
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Add `delta` to the named counter (created at zero on first use).
  void AddCounter(std::string_view name, std::int64_t delta = 1);

  /// Set the named gauge (single-writer; see header comment).
  void SetGauge(std::string_view name, double value);

  /// Feed `n` samples of `value` into the named histogram.
  void Observe(std::string_view name, double value, std::int64_t n = 1);

  /// Merge a whole histogram into the named one; an empty histogram
  /// publishes nothing, like a sample that was never observed.
  void MergeHistogram(std::string_view name, const HistogramStats& h);

  /// Merge the commutative kinds of `other` into this registry:
  /// counters add, histograms merge bucket-wise, gauges last-write-win
  /// (the caller sequences gauge-bearing merges deterministically).
  void MergeFrom(const MetricsRegistry& other);

  /// Reads return the zero value for names never published: counters 0,
  /// gauges 0.0, histograms the documented HistogramStats zero state.
  std::int64_t CounterValue(std::string_view name) const;
  double GaugeValue(std::string_view name) const;
  HistogramStats HistogramOf(std::string_view name) const;

  std::size_t size() const;  // total metrics across all three kinds

  /// JSON object {"counters":{...},"gauges":{...},"histograms":{...}}
  /// with names in sorted order; histograms render count/sum/min/max/
  /// mean plus the p50/p90/p99/p999 bucket quantiles.  Byte-stable for
  /// equal contents.
  std::string ToJson() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::int64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, HistogramStats, std::less<>> histograms_;
};

}  // namespace db::obs
