// AcceleratorPool: N replicated instances of one generated design.
//
// Each replica owns a private DRAM MemoryImage (copied from the image
// provisioned once), the SystemContext that reads its weights in place
// from those bytes (so a weight flip reaches the next service unless
// the serving layer scrubs it first), and its own simulated-cycle clock — the software model of a board (or a
// fleet) provisioned with N copies of the same accelerator.  The pool
// also owns one execution lane per replica: a FIFO work deque drained
// by a dedicated thread, so the wall-clock cost of simulating replicas
// overlaps while every simulated number stays a pure function of the
// dispatch order.
//
// The pool is policy-free: *which* replica a batch lands on is the
// ShardRouter's decision, and *what* serving a batch means (faults,
// deadlines, retries) is the caller's task closure.  This keeps the
// replication substrate reusable for servers, benches and tests alike.
//
// Threading contract: Post() calls must come from one thread at a time
// (the server's dispatcher).  A replica's state — image, context, warm
// flag, clock, fault log — is written only by its own lane thread while
// the pool runs, and may be read by anyone after Join().
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "fault/fault_injector.h"
#include "sim/system_sim.h"

namespace db::cluster {

/// One replica's full state: the simulated accelerator instance plus
/// the deterministic bookkeeping the serving layer accumulates on it.
struct Replica {
  // Moving the image moves its byte buffer, which the context views.
  explicit Replica(SystemReplica system)
      : image(std::move(system.image)),
        context(std::move(system.context)) {}

  MemoryImage image;                       // private DRAM bytes
  std::unique_ptr<SystemContext> context;  // reads `image` in place

  // Serving bookkeeping, owned by the replica's lane thread.
  bool warm = false;            // weights resident after the first image
  std::int64_t local_cycle = 0; // the replica's own simulated timeline
  std::int64_t busy_cycles = 0;
  std::int64_t batches = 0;
  std::int64_t requests = 0;    // kOk services executed here
  std::int64_t invocations = 0; // fault-injection invocation coordinate
  std::size_t fault_cursor = 0; // next unfired event in the fault slice
  std::vector<fault::FaultRecord> fault_records;
  std::int64_t scrubs = 0;
  /// Simulated [start, end) windows this replica's datapath was
  /// occupied — service runs plus charged recovery (retry attempts,
  /// stalls, scrubs) — appended in the lane's deterministic service
  /// order, so the list is sorted and disjoint.  The load time-series
  /// derives per-replica busy fractions from it.
  std::vector<std::pair<std::int64_t, std::int64_t>> busy_intervals;
};

/// Cycles of `intervals` (sorted, disjoint) falling inside the window
/// [begin, end) — the per-replica busy share a time-series sample reads.
std::int64_t BusyInWindow(
    const std::vector<std::pair<std::int64_t, std::int64_t>>& intervals,
    std::int64_t begin, std::int64_t end);

class AcceleratorPool {
 public:
  /// Stamp out `replicas` copies of the provisioned image, build one
  /// SystemContext on each copy, and start one lane thread per replica.
  AcceleratorPool(const Network& net, const AcceleratorDesign& design,
                  const MemoryImage& provisioned, int replicas);

  /// Joins the lane threads (abandoning queued work if Close was never
  /// called).
  ~AcceleratorPool();

  AcceleratorPool(const AcceleratorPool&) = delete;
  AcceleratorPool& operator=(const AcceleratorPool&) = delete;

  int size() const { return static_cast<int>(replicas_.size()); }

  /// The replica's state.  While the pool runs, only replica r's own
  /// tasks may touch replica(r); after Join() anyone may read it.
  Replica& replica(int r) { return *replicas_[static_cast<std::size_t>(r)]; }
  const Replica& replica(int r) const {
    return *replicas_[static_cast<std::size_t>(r)];
  }

  /// Enqueue a task on replica r's lane (FIFO per lane).
  void Post(int r, std::function<void()> task);

  /// Close every lane's intake; lane threads exit once their deques
  /// drain.  Idempotent.
  void Close();

  /// Wait for every lane thread to finish (call Close first, or queued
  /// work keeps them alive).  Idempotent.
  void Join();

 private:
  struct Lane {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::function<void()>> work;
    bool closed = false;
    std::thread thread;
  };

  void RunLane(int index);

  std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<std::unique_ptr<Lane>> lanes_;
};

}  // namespace db::cluster
