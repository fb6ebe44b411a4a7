// Deterministic request batching for the inference server.
//
// Requests carry simulated arrival cycles (the server's clock is the
// accelerator clock, not wall time).  The batcher groups consecutive
// requests into batches under two knobs:
//
//   * max_batch_size — a batch closes as soon as it holds this many
//     requests; it dispatches at the last member's arrival cycle.
//   * linger_cycles  — a partial batch waits at most this many cycles
//     after its first member's arrival; the first request whose arrival
//     falls outside the window closes the batch, which dispatches when
//     the linger timer expires (first arrival + linger).
//
// Batch composition depends only on the submission order and the
// arrival cycles, so the same request stream always produces the same
// batches, which is what makes the whole server reproducible.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace db::serve {

/// A closed batch, ready for dispatch.
struct Batch {
  std::int64_t id = 0;  // dense batch index, in close order
  std::int64_t ready_cycle = 0;  // earliest cycle the batch may dispatch
  std::vector<std::int64_t> requests;  // request ids, in arrival order
};

struct BatchPolicy {
  std::int64_t max_batch_size = 4;
  std::int64_t linger_cycles = 0;
};

class Batcher {
 public:
  explicit Batcher(BatchPolicy policy);

  /// Close the open batch if its linger timer expired before `arrival`.
  std::optional<Batch> Expire(std::int64_t arrival);

  /// Feed request `id` (arrival cycles must be non-decreasing).  Returns
  /// the batch this closed, if any: the open batch whose linger expired
  /// before `arrival` (then `id` opens the next one), or the batch `id`
  /// filled.
  std::optional<Batch> Add(std::int64_t id, std::int64_t arrival);

  /// Close the open partial batch (end of the request stream).  The
  /// flush is an explicit end-of-intake signal, so the batch dispatches
  /// at its last member's arrival instead of waiting out the linger.
  std::optional<Batch> Flush();

 private:
  Batch CloseOpen(std::int64_t ready_cycle);

  BatchPolicy policy_;
  std::vector<std::int64_t> open_;
  std::int64_t open_first_arrival_ = 0;
  std::int64_t last_arrival_ = 0;
  std::int64_t next_batch_id_ = 0;
};

}  // namespace db::serve
