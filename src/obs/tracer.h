// Deterministic span tracing: the software-shaped sibling of the perf
// simulator's VCD export (sim/trace.h).
//
// A Span is one closed interval on a named *track*.  All timestamps are
// deterministic ticks — simulated accelerator cycles on the simulator
// and serve tracks, ordinal phase ticks on the toolchain track — never
// wall-clock time, so the recorded trace (and its Chrome-trace export,
// see obs/chrome_trace.h) is bit-reproducible across runs and thread
// interleavings.
//
// Track taxonomy used across the repo:
//   "toolchain"        generator phases (parse → … → rtl emit), ticks
//   "sim/dram"         per-layer DRAM-channel busy intervals, cycles
//   "sim/datapath"     per-layer datapath busy intervals, cycles
//   "serve/replica N"  batch + per-request service spans, cycles
//   "serve/queue"      per-request queue residency (async spans), cycles
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace db::obs {

/// One interval [start, end) on a track, in deterministic ticks.
struct Span {
  std::string track;
  std::string name;
  std::string category;  // Chrome-trace "cat"; groups spans for filtering
  std::int64_t start = 0;
  std::int64_t end = 0;
  /// Async spans may overlap others on their track (request lifetimes in
  /// a queue); the exporter renders them as paired begin/end events
  /// keyed by `id` instead of a single nested duration event.
  bool async = false;
  std::int64_t id = 0;
  std::vector<std::pair<std::string, std::string>> args;
};

/// Thread-safe span sink.  Record order does not matter: consumers read
/// through Sorted(), which imposes a deterministic total order.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void Record(Span span);

  /// Convenience for the common synchronous case.
  void RecordSpan(std::string track, std::string name, std::int64_t start,
                  std::int64_t end, std::string category = {});

  bool empty() const;
  std::size_t size() const;

  /// Largest end tick recorded on `track` (0 if none) — lets a later
  /// stage continue a track's timeline where the previous one stopped.
  std::int64_t TrackEnd(std::string_view track) const;

  /// Snapshot in deterministic order: (start, track, longest-first,
  /// name, id).  Equal-start spans sort longest first so Chrome-trace
  /// nesting renders parents before children.
  std::vector<Span> Sorted() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Monotonic deterministic clock for ScopedSpan: the owner advances it
/// explicitly (one tick per toolchain phase, N cycles of simulated
/// work, ...); nothing ever reads wall-clock time.
class TickClock {
 public:
  explicit TickClock(std::int64_t start = 0) : now_(start) {}
  std::int64_t now() const { return now_; }
  void Advance(std::int64_t ticks) { now_ += ticks; }

 private:
  std::int64_t now_ = 0;
};

/// RAII span: samples `clock` at construction and destruction and
/// records [ctor tick, dtor tick) into the tracer.  A null tracer makes
/// the whole object a no-op, so call sites need no branching.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const TickClock& clock, std::string track,
             std::string name, std::string category = {});
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void AddArg(std::string key, std::string value);

 private:
  Tracer* tracer_;
  const TickClock& clock_;
  Span span_;
};

}  // namespace db::obs
