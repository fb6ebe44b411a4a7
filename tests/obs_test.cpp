// Tests for the observability layer (src/obs): metrics registry
// round-trip, deterministic span tracing, and the Chrome-trace export —
// including the byte-stability guarantees the serving path relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/diagnostics.h"
#include "common/strings.h"
#include "core/design_json.h"
#include "core/generator.h"
#include "dse/explorer.h"
#include "frontend/network_def.h"
#include "models/zoo.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/timeseries.h"
#include "obs/tracer.h"
#include "sim/perf_model.h"
#include "sim/trace.h"

namespace db {
namespace {

using obs::MetricsRegistry;
using obs::ScopedSpan;
using obs::Span;
using obs::TickClock;
using obs::Tracer;
using obs::WriteChromeTrace;

/// Minimal recursive-descent JSON validator: enough grammar to reject
/// malformed output without pulling in a JSON dependency.
class JsonValidator {
 public:
  explicit JsonValidator(std::string_view text) : text_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        ++pos_;
        continue;
      }
      ++pos_;
      if (c == '"') return true;
    }
    return false;
  }

  bool Number() {
    const std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\t' || text_[pos_] == '\r'))
      ++pos_;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

/// All "ts" values in event order (the exporter emits one event per
/// line, so scanning linearly preserves emission order).
std::vector<double> TimestampsInOrder(const std::string& trace) {
  std::vector<double> out;
  std::size_t pos = 0;
  while ((pos = trace.find("\"ts\":", pos)) != std::string::npos) {
    pos += 5;
    out.push_back(std::stod(trace.substr(pos)));
  }
  return out;
}

TEST(Metrics, CounterRoundTrip) {
  MetricsRegistry m;
  EXPECT_EQ(m.CounterValue("never"), 0);
  m.AddCounter("requests");
  m.AddCounter("requests");
  m.AddCounter("bytes", 4096);
  m.AddCounter("bytes", -96);
  EXPECT_EQ(m.CounterValue("requests"), 2);
  EXPECT_EQ(m.CounterValue("bytes"), 4000);
}

TEST(Metrics, GaugeLastWriteWins) {
  MetricsRegistry m;
  EXPECT_DOUBLE_EQ(m.GaugeValue("never"), 0.0);
  m.SetGauge("depth", 3.0);
  m.SetGauge("depth", 7.5);
  EXPECT_DOUBLE_EQ(m.GaugeValue("depth"), 7.5);
}

TEST(Metrics, HistogramTracksStreamingStats) {
  MetricsRegistry m;
  const obs::HistogramStats empty = m.HistogramOf("never");
  EXPECT_EQ(empty.count, 0);
  EXPECT_DOUBLE_EQ(empty.Mean(), 0.0);  // no divide-by-zero
  m.Observe("latency", 10.0);
  m.Observe("latency", 2.0);
  m.Observe("latency", 6.0);
  const obs::HistogramStats h = m.HistogramOf("latency");
  EXPECT_EQ(h.count, 3);
  EXPECT_DOUBLE_EQ(h.sum, 18.0);
  EXPECT_DOUBLE_EQ(h.min, 2.0);
  EXPECT_DOUBLE_EQ(h.max, 10.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 6.0);
}

TEST(Metrics, EmptyHistogramIsTheDocumentedZeroState) {
  // The zero state: count 0, every aggregate and quantile exactly 0.0.
  const obs::HistogramStats h;
  EXPECT_EQ(h.count, 0);
  EXPECT_DOUBLE_EQ(h.sum, 0.0);
  EXPECT_DOUBLE_EQ(h.min, 0.0);
  EXPECT_DOUBLE_EQ(h.max, 0.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.P50(), 0.0);
  EXPECT_DOUBLE_EQ(h.P90(), 0.0);
  EXPECT_DOUBLE_EQ(h.P99(), 0.0);
  EXPECT_DOUBLE_EQ(h.P999(), 0.0);
  EXPECT_TRUE(h.buckets.empty());
  // A never-observed registry name reads the same zero state.
  MetricsRegistry m;
  EXPECT_EQ(m.HistogramOf("never").count, 0);
  EXPECT_DOUBLE_EQ(m.HistogramOf("never").P99(), 0.0);
}

TEST(Metrics, SingleSampleHistogramReportsItExactly) {
  // The bucket quantile is clamped into [min, max], so one sample is
  // reported exactly at every quantile — even off a bucket boundary.
  obs::HistogramStats h;
  h.Observe(37.0);
  EXPECT_EQ(h.count, 1);
  EXPECT_DOUBLE_EQ(h.min, 37.0);
  EXPECT_DOUBLE_EQ(h.max, 37.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 37.0);
  EXPECT_DOUBLE_EQ(h.P50(), 37.0);
  EXPECT_DOUBLE_EQ(h.P999(), 37.0);
}

TEST(Metrics, FirstSampleInitialisesMinAndMax) {
  // min/max must come from the first sample, not from the zero state —
  // otherwise a first sample above 0 would leave min at 0.0 forever.
  obs::HistogramStats h;
  h.Observe(500.0);
  EXPECT_DOUBLE_EQ(h.min, 500.0);
  EXPECT_DOUBLE_EQ(h.max, 500.0);
  h.Observe(700.0);
  EXPECT_DOUBLE_EQ(h.min, 500.0);
  EXPECT_DOUBLE_EQ(h.max, 700.0);
  h.Observe(3.0);
  EXPECT_DOUBLE_EQ(h.min, 3.0);
  EXPECT_DOUBLE_EQ(h.max, 700.0);
}

TEST(Metrics, BucketSchemeIsLogScaledWithFixedBoundaries) {
  using obs::HistogramStats;
  // Values below 1.0 (including negatives) share the underflow bucket.
  EXPECT_EQ(HistogramStats::BucketIndex(0.0), 0);
  EXPECT_EQ(HistogramStats::BucketIndex(-17.0), 0);
  EXPECT_EQ(HistogramStats::BucketIndex(0.999), 0);
  EXPECT_DOUBLE_EQ(HistogramStats::BucketLowerBound(0), 0.0);
  // Powers of two open their octave at sub-bucket 0.
  EXPECT_EQ(HistogramStats::BucketIndex(1.0), 1);
  EXPECT_EQ(HistogramStats::BucketIndex(2.0),
            1 + HistogramStats::kSubBuckets);
  EXPECT_EQ(HistogramStats::BucketIndex(4.0),
            1 + 2 * HistogramStats::kSubBuckets);
  // Every value's bucket lower bound is <= the value, within 1/32.
  for (const double v : {1.0, 1.5, 3.0, 37.0, 1000.0, 123456.789, 1e12}) {
    const std::int32_t index = HistogramStats::BucketIndex(v);
    const double lb = HistogramStats::BucketLowerBound(index);
    EXPECT_LE(lb, v) << v;
    EXPECT_GT(lb * (1.0 + 2.0 / HistogramStats::kSubBuckets), v) << v;
  }
}

TEST(Metrics, HistogramQuantilesAreDeterministicBucketReads) {
  obs::HistogramStats h;
  for (int i = 1; i <= 100; ++i) h.Observe(static_cast<double>(i));
  // Nearest rank 50 = sample 50, which sits exactly on its bucket's
  // lower boundary (octave [32, 64) has unit-width sub-buckets); the
  // p99 rank is sample 99, whose octave-[64, 128) bucket [98, 100)
  // opens at 98.
  EXPECT_DOUBLE_EQ(h.P50(), 50.0);
  EXPECT_DOUBLE_EQ(h.P99(), 98.0);
  // Quantiles never leave the observed range.
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.Quantile(100.0), 100.0);
  // Relative error of every quantile is bounded by the bucket width.
  for (const double q : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
    const double exact = std::ceil(q);  // nearest-rank over 1..100
    const double bucketed = h.Quantile(q);
    EXPECT_LE(bucketed, exact);
    EXPECT_GE(bucketed * (1.0 + 2.0 / obs::HistogramStats::kSubBuckets),
              exact)
        << q;
  }
}

TEST(Metrics, HistogramMergeIsCommutativeAndAssociative) {
  obs::HistogramStats a, b, c;
  for (int i = 0; i < 50; ++i) a.Observe(static_cast<double>(10 + i));
  for (int i = 0; i < 30; ++i) b.Observe(static_cast<double>(1000 + 7 * i));
  c.Observe(2.5);

  obs::HistogramStats ab = a;
  ab.Merge(b);
  ab.Merge(c);
  obs::HistogramStats cb = c;
  cb.Merge(b);
  cb.Merge(a);
  EXPECT_EQ(ab.count, cb.count);
  EXPECT_DOUBLE_EQ(ab.sum, cb.sum);
  EXPECT_DOUBLE_EQ(ab.min, cb.min);
  EXPECT_DOUBLE_EQ(ab.max, cb.max);
  EXPECT_EQ(ab.buckets, cb.buckets);
  EXPECT_DOUBLE_EQ(ab.P50(), cb.P50());
  EXPECT_DOUBLE_EQ(ab.P999(), cb.P999());
  // Merging an empty histogram is the identity.
  obs::HistogramStats with_empty = ab;
  with_empty.Merge(obs::HistogramStats{});
  EXPECT_EQ(with_empty.buckets, ab.buckets);
  EXPECT_DOUBLE_EQ(with_empty.min, ab.min);
}

TEST(Metrics, RegistryMergeFromCombinesCommutativeKinds) {
  MetricsRegistry a;
  a.AddCounter("sim.invocations", 3);
  a.Observe("serve.latency_cycles", 100.0);
  a.SetGauge("serve.replicas", 2.0);
  MetricsRegistry b;
  b.AddCounter("sim.invocations", 4);
  b.Observe("serve.latency_cycles", 900.0);
  a.MergeFrom(b);
  EXPECT_EQ(a.CounterValue("sim.invocations"), 7);
  const obs::HistogramStats h = a.HistogramOf("serve.latency_cycles");
  EXPECT_EQ(h.count, 2);
  EXPECT_DOUBLE_EQ(h.min, 100.0);
  EXPECT_DOUBLE_EQ(h.max, 900.0);
  EXPECT_DOUBLE_EQ(a.GaugeValue("serve.replicas"), 2.0);
}

TEST(Metrics, ShuffledThreadedPublicationIsByteIdentical) {
  // N threads publish disjoint slices of one sample set in shuffled
  // per-thread orders; any interleaving must yield byte-identical JSON
  // and identical quantiles — the property that lets the server's
  // replica lanes share one registry.
  constexpr int kThreads = 4;
  constexpr int kSamples = 400;
  std::vector<double> samples;
  samples.reserve(kSamples);
  std::uint64_t state = 0x9e3779b97f4a7c15ull;  // deterministic LCG-ish
  for (int i = 0; i < kSamples; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    samples.push_back(static_cast<double>(1 + (state >> 40)));
  }

  auto publish = [&](std::uint64_t seed) {
    auto registry = std::make_unique<MetricsRegistry>();
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        // Each thread walks its stride-slice in a seed-dependent
        // rotation, so runs interleave (and order within a thread)
        // differently while the multiset of samples stays fixed.
        const int slice = kSamples / kThreads;
        const int offset =
            static_cast<int>((seed + static_cast<std::uint64_t>(t)) %
                             static_cast<std::uint64_t>(slice));
        for (int i = 0; i < slice; ++i) {
          const int k = (offset + i) % slice;
          registry->Observe(
              "serve.latency_cycles",
              samples[static_cast<std::size_t>(k * kThreads + t)]);
          registry->AddCounter("sim.invocations");
        }
      });
    }
    for (std::thread& t : threads) t.join();
    return registry;
  };

  const auto a = publish(1);
  const auto b = publish(99);
  EXPECT_EQ(a->ToJson(), b->ToJson());
  const obs::HistogramStats ha = a->HistogramOf("serve.latency_cycles");
  const obs::HistogramStats hb = b->HistogramOf("serve.latency_cycles");
  EXPECT_EQ(ha.count, kSamples);
  EXPECT_DOUBLE_EQ(ha.P50(), hb.P50());
  EXPECT_DOUBLE_EQ(ha.P99(), hb.P99());
  EXPECT_DOUBLE_EQ(ha.P999(), hb.P999());
  EXPECT_EQ(ha.buckets, hb.buckets);
}

TEST(TimeSeries, AppendAndExportAreDeterministic) {
  obs::TimeSeriesRecorder ts;
  ts.SetSampleInterval(64);
  ts.Append("load.queue_depth", 0, 0.0);
  ts.Append("load.queue_depth", 64, 3.0);
  ts.Append("load.queue_depth", 128, 1.0);
  ts.Append("load.replica0.busy", 0, 0.0);
  ts.Append("load.replica0.busy", 64, 0.5);
  EXPECT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts.sample_interval(), 64);
  ASSERT_EQ(ts.SeriesOf("load.queue_depth").size(), 3u);
  EXPECT_EQ(ts.SeriesOf("load.queue_depth")[1].cycle, 64);
  EXPECT_DOUBLE_EQ(ts.SeriesOf("load.queue_depth")[1].value, 3.0);
  EXPECT_TRUE(ts.SeriesOf("never").empty());

  const std::string expected =
      "{\n  \"sample_interval_cycles\": 64,\n  \"series\": {\n"
      "    \"load.queue_depth\": [[0, 0], [64, 3], [128, 1]],\n"
      "    \"load.replica0.busy\": [[0, 0], [64, 0.5]]\n  }\n}\n";
  EXPECT_EQ(ts.ToJson(), expected);
  EXPECT_TRUE(JsonValidator(ts.ToJson()).Valid());
}

TEST(TimeSeries, RejectsDecreasingCycles) {
  obs::TimeSeriesRecorder ts;
  ts.Append("s", 100, 1.0);
  EXPECT_THROW(ts.Append("s", 99, 2.0), std::logic_error);
  EXPECT_THROW(ts.SetSampleInterval(0), std::logic_error);
}

TEST(Metrics, SizeSpansAllThreeKinds) {
  MetricsRegistry m;
  EXPECT_EQ(m.size(), 0u);
  m.AddCounter("a");
  m.SetGauge("b", 1.0);
  m.Observe("c", 1.0);
  m.Observe("c", 2.0);  // same histogram, not a new metric
  EXPECT_EQ(m.size(), 3u);
}

TEST(Metrics, JsonGolden) {
  MetricsRegistry m;
  m.AddCounter("serve.requests", 8);
  m.SetGauge("serve.depth", 3.0);
  m.SetGauge("serve.util", 0.5);
  m.Observe("serve.wait", 4.0);
  m.Observe("serve.wait", 2.0);
  const std::string expected =
      "{\n"
      "  \"counters\": {\n"
      "    \"serve.requests\": 8\n"
      "  },\n"
      "  \"gauges\": {\n"
      "    \"serve.depth\": 3,\n"
      "    \"serve.util\": 0.5\n"
      "  },\n"
      "  \"histograms\": {\n"
      "    \"serve.wait\": {\"count\": 2, \"sum\": 6, \"min\": 2, "
      "\"max\": 4, \"mean\": 3, \"p50\": 2, \"p90\": 4, \"p99\": 4, "
      "\"p999\": 4}\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(m.ToJson(), expected);
  EXPECT_TRUE(JsonValidator(m.ToJson()).Valid());
}

TEST(Metrics, JsonByteStableAcrossPublicationOrder) {
  // Commutative metrics published in any interleaving must export the
  // same bytes — the property that lets concurrent workers publish.
  MetricsRegistry a;
  a.AddCounter("x", 1);
  a.AddCounter("y", 2);
  a.Observe("h", 1.0);
  a.Observe("h", 5.0);
  MetricsRegistry b;
  b.Observe("h", 5.0);
  b.AddCounter("y", 2);
  b.Observe("h", 1.0);
  b.AddCounter("x", 1);
  EXPECT_EQ(a.ToJson(), b.ToJson());
}

TEST(Metrics, EmptyRegistryIsValidJson) {
  MetricsRegistry m;
  EXPECT_TRUE(JsonValidator(m.ToJson()).Valid());
}

TEST(Tracer, RejectsNegativeLengthSpans) {
  Tracer t;
  Span bad;
  bad.track = "x";
  bad.start = 10;
  bad.end = 9;
  EXPECT_THROW(t.Record(bad), std::logic_error);
}

TEST(Tracer, SortedImposesDeterministicTotalOrder) {
  auto build = [](const std::vector<int>& order) {
    auto tracer = std::make_unique<Tracer>();
    // Three spans: same start, different lengths; plus a later one.
    std::vector<Span> spans(4);
    spans[0].track = "t";  spans[0].name = "long";   spans[0].start = 0;
    spans[0].end = 100;
    spans[1].track = "t";  spans[1].name = "short";  spans[1].start = 0;
    spans[1].end = 10;
    spans[2].track = "a";  spans[2].name = "other";  spans[2].start = 0;
    spans[2].end = 50;
    spans[3].track = "t";  spans[3].name = "late";   spans[3].start = 60;
    spans[3].end = 70;
    for (int i : order) tracer->Record(spans[static_cast<std::size_t>(i)]);
    return tracer;
  };
  const auto a = build({0, 1, 2, 3});
  const auto b = build({3, 2, 1, 0});
  const auto sa = a->Sorted();
  const auto sb = b->Sorted();
  ASSERT_EQ(sa.size(), 4u);
  // (start, track, longest-first, ...): track "a" first at start 0,
  // then "t"/long before "t"/short, then the late span.
  EXPECT_EQ(sa[0].name, "other");
  EXPECT_EQ(sa[1].name, "long");
  EXPECT_EQ(sa[2].name, "short");
  EXPECT_EQ(sa[3].name, "late");
  for (std::size_t i = 0; i < sa.size(); ++i)
    EXPECT_EQ(sa[i].name, sb[i].name) << i;
}

TEST(Tracer, TrackEndContinuesTimeline) {
  Tracer t;
  EXPECT_EQ(t.TrackEnd("toolchain"), 0);
  t.RecordSpan("toolchain", "a", 0, 3);
  t.RecordSpan("toolchain", "b", 3, 7);
  t.RecordSpan("elsewhere", "c", 0, 99);
  EXPECT_EQ(t.TrackEnd("toolchain"), 7);
  EXPECT_EQ(t.TrackEnd("elsewhere"), 99);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_FALSE(t.empty());
}

TEST(ScopedSpan, RecordsClockIntervalWithArgs) {
  Tracer t;
  TickClock clock(5);
  {
    ScopedSpan span(&t, clock, "toolchain", "phase", "gen");
    span.AddArg("attempt", "2");
    clock.Advance(3);
  }
  const auto spans = t.Sorted();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].track, "toolchain");
  EXPECT_EQ(spans[0].name, "phase");
  EXPECT_EQ(spans[0].category, "gen");
  EXPECT_EQ(spans[0].start, 5);
  EXPECT_EQ(spans[0].end, 8);
  ASSERT_EQ(spans[0].args.size(), 1u);
  EXPECT_EQ(spans[0].args[0].first, "attempt");
  EXPECT_EQ(spans[0].args[0].second, "2");
}

TEST(ScopedSpan, NullTracerIsNoOp) {
  TickClock clock;
  ScopedSpan span(nullptr, clock, "t", "n");
  span.AddArg("k", "v");  // must not crash
  clock.Advance(1);
}

TEST(ChromeTrace, ValidJsonWithMonotonicTimestamps) {
  Tracer t;
  t.RecordSpan("toolchain", "parse", 0, 1, "gen");
  t.RecordSpan("toolchain", "emit", 1, 2, "gen");
  t.RecordSpan("sim/dram", "layer 0", 0, 120, "sim");
  t.RecordSpan("sim/datapath", "layer 0", 20, 200, "sim");
  Span async;
  async.track = "serve/queue";
  async.name = "req 0";
  async.start = 10;
  async.end = 150;
  async.async = true;
  async.id = 7;
  t.Record(async);

  const std::string trace = WriteChromeTrace(t, 100.0);
  EXPECT_TRUE(JsonValidator(trace).Valid());
  const std::vector<double> ts = TimestampsInOrder(trace);
  ASSERT_EQ(ts.size(), 6u);  // 4 complete + async begin/end
  for (std::size_t i = 1; i < ts.size(); ++i)
    EXPECT_GE(ts[i], ts[i - 1]) << "event " << i;
  // Cycle -> microsecond mapping: ts_us = cycles / frequency_mhz.
  EXPECT_NE(trace.find("\"dur\":1.200"), std::string::npos);  // 120 @ 100MHz
  EXPECT_NE(trace.find("\"ts\":1.500"), std::string::npos);   // async end
  // Async spans pair begin/end by id; "serve/queue" sorts first → tid 1.
  EXPECT_NE(trace.find("\"ph\":\"b\",\"pid\":1,\"tid\":1,\"id\":7"),
            std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"e\",\"pid\":1,\"tid\":1,\"id\":7"),
            std::string::npos);
  // Track names become thread names, in sorted-name order.
  EXPECT_LT(trace.find("\"name\":\"serve/queue\""),
            trace.find("\"name\":\"sim/datapath\""));
  EXPECT_LT(trace.find("\"name\":\"sim/datapath\""),
            trace.find("\"name\":\"toolchain\""));
}

TEST(ChromeTrace, ByteStableAcrossRecordOrder) {
  auto build = [](bool reversed) {
    auto tracer = std::make_unique<Tracer>();
    std::vector<Span> spans(3);
    spans[0].track = "serve/replica 0";  spans[0].name = "batch 0";
    spans[0].start = 0;  spans[0].end = 500;
    spans[1].track = "serve/replica 0";  spans[1].name = "req 0";
    spans[1].start = 0;  spans[1].end = 250;
    spans[2].track = "serve/replica 1";  spans[2].name = "req 1";
    spans[2].start = 100;  spans[2].end = 400;
    if (reversed) std::reverse(spans.begin(), spans.end());
    for (Span& s : spans) tracer->Record(std::move(s));
    return WriteChromeTrace(*tracer, 150.0);
  };
  EXPECT_EQ(build(false), build(true));
}

TEST(ChromeTrace, SpansDifferingOnlyInArgsAreByteStableAcrossRecordOrder) {
  // Two bit flips on one replica in one cycle: same track, name, start
  // and end; only the args tell them apart.
  auto build = [](bool reversed) {
    Tracer tracer;
    std::vector<Span> spans(2);
    for (int i = 0; i < 2; ++i) {
      Span& s = spans[static_cast<std::size_t>(i)];
      s.track = "serve/replica 0";
      s.category = "fault";
      s.name = "fault:bit_flip";
      s.start = 300;
      s.end = 300;
      s.args.emplace_back("detail", std::to_string(4096 + i));
    }
    if (reversed) std::reverse(spans.begin(), spans.end());
    for (Span& s : spans) tracer.Record(std::move(s));
    return WriteChromeTrace(tracer, 150.0);
  };
  EXPECT_EQ(build(false), build(true));
}

TEST(ChromeTrace, ZeroLengthAsyncSpanOpensBeforeClosing) {
  // A request served the cycle it arrived has a zero-length queue span;
  // its begin event must still precede its end event.
  Tracer t;
  Span s;
  s.track = "serve/queue";
  s.name = "req 0";
  s.start = 42;
  s.end = 42;
  s.async = true;
  s.id = 0;
  t.Record(s);
  const std::string trace = WriteChromeTrace(t, 100.0);
  EXPECT_TRUE(JsonValidator(trace).Valid());
  const std::size_t begin = trace.find("\"ph\":\"b\"");
  const std::size_t end = trace.find("\"ph\":\"e\"");
  ASSERT_NE(begin, std::string::npos);
  ASSERT_NE(end, std::string::npos);
  EXPECT_LT(begin, end);
}

TEST(ChromeTrace, EscapesSpecialCharacters) {
  Tracer t;
  Span s;
  s.track = "t";
  s.name = "say \"hi\"\nnow\tplease\x01";
  s.start = 0;
  s.end = 1;
  s.args.emplace_back("path", "a\\b");
  t.Record(s);
  const std::string trace = WriteChromeTrace(t, 1.0);
  EXPECT_TRUE(JsonValidator(trace).Valid());
  EXPECT_NE(trace.find("say \\\"hi\\\"\\nnow\\tplease\\u0001"),
            std::string::npos);
  EXPECT_NE(trace.find("a\\\\b"), std::string::npos);
}

TEST(ChromeTrace, RejectsNonPositiveFrequency) {
  Tracer t;
  EXPECT_THROW(WriteChromeTrace(t, 0.0), std::logic_error);
  EXPECT_THROW(WriteChromeTrace(t, -5.0), std::logic_error);
}

TEST(ExportPerfTrace, SpansMirrorBusyCycles) {
  PerfTrace trace;
  trace.events.push_back(
      TraceEvent{TraceEvent::Resource::kDram, 0, 0, 100});
  trace.events.push_back(
      TraceEvent{TraceEvent::Resource::kDram, 1, 150, 170});
  trace.events.push_back(
      TraceEvent{TraceEvent::Resource::kDatapath, 0, 40, 90});
  trace.total_cycles = 170;

  Tracer tracer;
  ExportPerfTrace(trace, tracer);
  std::int64_t dram = 0, datapath = 0;
  for (const Span& s : tracer.Sorted()) {
    EXPECT_EQ(s.category, "sim");
    if (s.track == "sim/dram") dram += s.end - s.start;
    if (s.track == "sim/datapath") datapath += s.end - s.start;
  }
  EXPECT_EQ(dram, trace.BusyCycles(TraceEvent::Resource::kDram));
  EXPECT_EQ(datapath, trace.BusyCycles(TraceEvent::Resource::kDatapath));
  EXPECT_EQ(tracer.size(), trace.events.size());
}

TEST(GeneratorTrace, ToolchainPhasesAreContiguous) {
  const Network net = BuildZooModel(ZooModel::kMnist);
  Tracer tracer;
  GenerateAccelerator(net, DbConstraint(), &tracer);
  const auto spans = tracer.Sorted();
  ASSERT_FALSE(spans.empty());
  bool saw_size = false, saw_emit = false, saw_rtl_verify = false;
  std::int64_t cursor = 0;
  for (const Span& s : spans) {
    EXPECT_EQ(s.track, "toolchain");
    EXPECT_EQ(s.start, cursor);  // one tick per phase, no gaps
    EXPECT_EQ(s.end, cursor + 1);
    cursor = s.end;
    saw_size |= s.name == "size datapath";
    saw_emit |= s.name == "rtl emit";
    saw_rtl_verify |= s.name == "rtl verify";
  }
  EXPECT_TRUE(saw_size);
  EXPECT_TRUE(saw_emit);
  EXPECT_TRUE(saw_rtl_verify);
  // The trace export of a generator run is itself byte-stable.
  Tracer again;
  GenerateAccelerator(net, DbConstraint(), &again);
  EXPECT_EQ(WriteChromeTrace(tracer, 150.0),
            WriteChromeTrace(again, 150.0));
}

// Network and layer names come from user scripts: the prototxt lexer
// takes an escaped quote, a backslash, a tab and any other byte but a
// newline.  Every JSON export must carry them escaped.
TEST(JsonExports, EscapeHostileNetworkAndLayerNames) {
  const std::string net_name = "q\"n\\e\tt\x01";
  const std::string layer_name = "c\"o\\n\tv\x01";
  const std::string net_json = "q\\\"n\\\\e\\tt\\u0001";
  const std::string layer_json = "c\\\"o\\\\n\\tv\\u0001";
  EXPECT_EQ(EscapeJson(net_name), net_json);
  EXPECT_EQ(EscapeJson(layer_name), layer_json);

  // The MNIST script with both names spelled the prototxt way.
  auto quoted = [](const std::string& name) {
    std::string out = "\"";
    for (const char c : name) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + "\"";
  };
  std::string script = ZooModelPrototxt(ZooModel::kMnist);
  auto replace_all = [&](const std::string& from, const std::string& to) {
    for (std::size_t pos = 0;
         (pos = script.find(from, pos)) != std::string::npos;
         pos += to.size())
      script.replace(pos, from.size(), to);
  };
  replace_all("\"mnist\"", quoted(net_name));
  replace_all("\"conv1\"", quoted(layer_name));
  const Network net = Network::Build(ParseNetworkDef(script));
  ASSERT_EQ(net.name(), net_name);
  const AcceleratorDesign design = GenerateAccelerator(net, DbConstraint());

  const std::string profile =
      BuildProfileReport(net, design, SimulatePerformance(net, design))
          .ToJson();
  const std::string design_json = DesignToJson(design);
  dse::TuneOptions tune;
  tune.sweep.lanes_pct = {100};
  tune.sweep.port_elems = {16};
  tune.sweep.data_split_pct = {45};
  tune.sweep.allow_dsp = {true};
  const std::string tuned = dse::Explore(net, DbConstraint(), tune).ToJson();
  analysis::AnalysisReport report;
  report.Add(analysis::Severity::kNote, "name.check", net_name + "/" + layer_name,
             layer_name);
  const std::string diagnostics = report.ToJson();
  Tracer tracer;
  tracer.RecordSpan(net_name, layer_name, 0, 1, layer_name);
  const std::string trace = WriteChromeTrace(tracer, 100.0);

  const std::vector<std::pair<const char*, const std::string*>> exports = {
      {"profile", &profile},         {"design.json", &design_json},
      {"tune", &tuned},              {"diagnostics", &diagnostics},
      {"chrome trace", &trace}};
  for (const auto& [what, json] : exports) {
    SCOPED_TRACE(what);
    EXPECT_TRUE(JsonValidator(*json).Valid());
    EXPECT_EQ(json->find(net_name), std::string::npos);
    EXPECT_EQ(json->find(layer_name), std::string::npos);
  }
  for (const std::string* json : {&profile, &design_json, &tuned})
    EXPECT_NE(json->find("\"" + net_json + "\""), std::string::npos);
  for (const std::string* json : {&profile, &design_json, &diagnostics,
                                  &trace})
    EXPECT_NE(json->find("\"" + layer_json + "\""), std::string::npos);
  EXPECT_NE(diagnostics.find(net_json + "/" + layer_json),
            std::string::npos);
  EXPECT_NE(trace.find("\"" + net_json + "\""), std::string::npos);
}

}  // namespace
}  // namespace db
