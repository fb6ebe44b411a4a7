// System-level simulation: run an inference entirely through the DRAM
// image, the way the board operates (paper §4.1: the ARM core stores the
// preprocessed weights and inputs into DDR3; the accelerator reads and
// writes DRAM through the AXI switches; the host reads the result back).
//
// The datapath reads its weights in place from the image bytes (see
// functional_sim.h), not from a WeightStore or a decoded copy — so a
// corrupted weight region corrupts the very next run, exactly as on
// hardware, until it is scrubbed.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/error.h"
#include "core/memory_image.h"
#include "sim/functional_sim.h"
#include "sim/perf_model.h"

namespace db {

struct SystemRunResult {
  Tensor output;          // host-visible result, read back from the image
  PerfResult perf;        // accelerator timing for the invocation
};

/// Decode a float WeightStore from the image's weight regions (the
/// inverse of BuildMemoryImage's weight serialisation).  The datapath
/// never uses it; it serves tests and probes that want float weights.
WeightStore DecodeWeights(const MemoryImage& image, const Network& net,
                          const AcceleratorDesign& design);

/// The one invocation API over a DRAM image: the weight views into
/// `image` and the I/O blob tile orders are set up once at construction,
/// so each Run() or RunBatch() is just the simulation plus two
/// cached-order blob copies per image.
///
/// Cycle costs depend only on (net, design) and on whether the weights
/// are already resident, never on input values, so the context simulates
/// the cold and the warm invocation timing once, at construction, and
/// every Run() returns one of the two cached results.
///
/// Threading: Run() and RunBatch() are marked const but are NOT safe to
/// call concurrently
/// on the same instance — the wrapped FunctionalSimulator owns a mutable
/// scratch arena (see functional_sim.h).  The serving stack honours this
/// by giving every replica its own SystemContext driven by a single
/// executor thread; anything that wants parallel invocations holds one
/// context per thread (ReplicateSystem stamps these out).
///
/// The context views the weight regions of `image` in place: it must be
/// handed that same image (same mapping) on every Run(), and a
/// mutation of the weight regions (fault injection, scrubbing) shows in
/// the next Run().  The image may be moved, or (unsealed) copy-assigned
/// from an image of the same size, without invalidating the context.
class SystemContext {
 public:
  SystemContext(const Network& net, const AcceleratorDesign& design,
                const MemoryImage& image);

  /// One invocation: write the input blob into `image`, run the
  /// bit-accurate functional simulation on the image's weights, store
  /// the output blob back, and read it out as the host would.  `image`
  /// must be the image this context was built on.  `warm` selects the
  /// steady-state timing (weights resident from an earlier image).
  /// This is RunBatch over one input.
  SystemRunResult Run(MemoryImage& image, const Tensor& input,
                      bool warm = false) const;

  /// Consecutive invocations with no image change between them, run as
  /// one batch-major pass (see functional_sim.h): the weights are read
  /// once for the batch, as the accelerator's buffers hold them across
  /// a batch.  Then, for each input in order, the input blob is stored,
  /// the output blob is stored and read back, so `image` ends byte for
  /// byte as after the same Run() calls in order, and output b equals
  /// Run(image, *inputs[b]).output.  Outputs only: the timing is perf().
  std::vector<Tensor> RunBatch(MemoryImage& image,
                               std::span<const Tensor* const> inputs) const;

  /// The cached timing of a cold or a warm invocation.
  const PerfResult& perf(bool warm) const {
    return warm ? warm_perf_ : cold_perf_;
  }

 private:
  const Network& net_;
  const AcceleratorDesign& design_;
  const std::uint8_t* image_bytes_;  // the mapping sim_ reads weights from
  FunctionalSimulator sim_;
  PerfResult cold_perf_;
  PerfResult warm_perf_;
  // Cached per-invocation hot path: the input/output blob regions and
  // their tile permutations never change for a given (net, design).
  const MemoryRegion* in_region_ = nullptr;
  const MemoryRegion* out_region_ = nullptr;
  std::vector<std::int64_t> in_order_;
  std::vector<std::int64_t> out_order_;
};

/// One replicated accelerator instance: its own DRAM image, a
/// copy-on-write mapping of the sealed provisioned image, plus the
/// SystemContext that reads it.  The inference server holds one of these
/// per replica.  Replicas share every page none of them has written; a
/// write (a bit flip, a scrub, an I/O blob store) gives the writer its
/// own copy of that page, so one replica's image corruption (fault
/// injection) can never perturb a sibling or the provisioned image.  The
/// context's views follow the image's mapping, which moves with the
/// struct.
struct SystemReplica {
  MemoryImage image;
  std::unique_ptr<SystemContext> context;
};

/// Stamp out `count` independent replicas of a provisioned system.
/// Seals `provisioned` first (see MemoryImage::Seal): from here on its
/// bytes are the scrub source and never change.  Every replica starts
/// byte-identical to it, so a request served by any replica produces
/// bit-identical output.
std::vector<SystemReplica> ReplicateSystem(const Network& net,
                                           const AcceleratorDesign& design,
                                           MemoryImage& provisioned,
                                           int count);

}  // namespace db
