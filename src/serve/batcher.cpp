#include "serve/batcher.h"

#include <utility>

#include "common/error.h"

namespace db::serve {

Batcher::Batcher(BatchPolicy policy) : policy_(policy) {
  DB_CHECK_MSG(policy_.max_batch_size >= 1,
               "max_batch_size must be at least 1");
  DB_CHECK_MSG(policy_.linger_cycles >= 0,
               "linger_cycles must be non-negative");
}

Batch Batcher::CloseOpen(std::int64_t ready_cycle) {
  Batch batch;
  batch.id = next_batch_id_++;
  batch.ready_cycle = ready_cycle;
  batch.requests = std::move(open_);
  open_.clear();
  return batch;
}

std::optional<Batch> Batcher::Expire(std::int64_t arrival) {
  if (open_.empty() ||
      arrival <= open_first_arrival_ + policy_.linger_cycles)
    return std::nullopt;
  return CloseOpen(open_first_arrival_ + policy_.linger_cycles);
}

std::optional<Batch> Batcher::Add(std::int64_t id, std::int64_t arrival) {
  DB_CHECK_MSG(arrival >= last_arrival_,
               "request arrival cycles must be non-decreasing");
  last_arrival_ = arrival;
  std::optional<Batch> closed = Expire(arrival);
  if (open_.empty()) open_first_arrival_ = arrival;
  open_.push_back(id);
  if (static_cast<std::int64_t>(open_.size()) == policy_.max_batch_size) {
    DB_CHECK(!closed.has_value());  // max_batch_size >= 1 ⇒ at most one
    closed = CloseOpen(arrival);
  }
  return closed;
}

std::optional<Batch> Batcher::Flush() {
  if (open_.empty()) return std::nullopt;
  return CloseOpen(last_arrival_);
}

}  // namespace db::serve
