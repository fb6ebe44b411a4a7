// Host-side memory-image construction (the ARM core's job in the
// paper's flow: "The ARM core reorganizes the input data and weight data
// of neural networks into an optimized layout as directed by NN-Gen
// compiler, and then stores them into 2GB on-board DDR3 memory").
//
// The image is the byte-exact DRAM content: every weight array quantised
// and serialised into its region, every input blob quantised and
// reordered into the tile order its consumer's TileSpec demands.  The
// tests close the loop by walking the main AGU's load patterns over the
// image and checking that the fetched stream is exactly the data the
// datapath expects.
//
// The image is also the weight store: the functional simulator reads
// its parameters in place from the weight regions (see functional_sim.h),
// so a bit flipped here reaches the datapath on the next invocation.
#pragma once

#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/generator.h"
#include "nn/weights.h"

namespace db {

// Elements are stored little-endian, and typed views read them with
// native loads.
static_assert(std::endian::native == std::endian::little,
              "the DRAM image is little-endian by contract");

/// The little-endian element of `elem_bytes` (1 to 8) at `p`,
/// sign-extended from its top bit.
inline std::int64_t LoadElem(const std::uint8_t* p, int elem_bytes) {
  std::uint64_t value = 0;
  for (int b = 0; b < elem_bytes; ++b)
    value |= static_cast<std::uint64_t>(p[b]) << (8 * b);
  const int shift = 64 - 8 * elem_bytes;
  return static_cast<std::int64_t>(value << shift) >> shift;
}

/// A byte-addressable DRAM image.
///
/// The bytes live in a kernel mapping of an anonymous in-memory file
/// (`memfd_create`), built in place through a writable shared view.
/// Typed weight views read int16/int32 objects straight out of that
/// mapping.  The standard lists malloc and operator new, not mmap, among
/// the operations that implicitly create objects (C++20 [intro.object]);
/// like every C++ program that reads mapped memory, this one assumes mmap
/// creates them too, so those loads are well-defined.  Moving an image
/// moves the mapping: views into it stay valid.  Copy-assigning an
/// unsealed image of the same size copies into the existing mapping, so
/// views survive that too.
///
/// Seal() makes an image read-only for good.  Copying a sealed image maps
/// the same file copy-on-write: O(1), the copies share every clean page,
/// and a write copies only the page it touches.  Such a copy (a replica)
/// holds no file of its own and cannot be sealed; copying an unsealed
/// image or a replica makes a full copy in a new file.  The build is
/// Linux-only for this reason.
class MemoryImage {
 public:
  /// A zero-filled image of `bytes` bytes.  Throws std::bad_alloc when
  /// the file or its mapping cannot be made.
  explicit MemoryImage(std::int64_t bytes);
  MemoryImage(const MemoryImage& other);
  MemoryImage& operator=(const MemoryImage& other);
  MemoryImage(MemoryImage&& other) noexcept;
  MemoryImage& operator=(MemoryImage&& other) noexcept;
  ~MemoryImage();

  std::int64_t size() const { return size_; }

  /// Make the image read-only for good: its own pages are remapped
  /// private and read-only at the same address (typed views survive),
  /// and the file is sealed against writes and resizing.  Every mutator
  /// below then fails a DB_CHECK.  Idempotent; a replica or an empty
  /// image cannot be sealed.
  void Seal();

  /// Write / read one little-endian fixed-point element of `elem_bytes`
  /// at a byte address.  Bounds-checked.
  void WriteElem(std::int64_t addr, std::int64_t raw, int elem_bytes);
  std::int64_t ReadElem(std::int64_t addr, int elem_bytes) const;

  /// Flip one bit of the byte at `addr` (a DRAM soft error).
  /// Bounds-checked; `bit` must be in [0, 8).
  void FlipBit(std::int64_t addr, int bit);

  /// Copy `bytes` bytes starting at `base` from `src` into this image
  /// (scrub-and-reload recovery).  Both images must cover the range.
  void CopyRange(const MemoryImage& src, std::int64_t base,
                 std::int64_t bytes);

  /// The bytes; null for an empty image.  The writable overload fails a
  /// DB_CHECK on a sealed image.
  const std::uint8_t* data() const { return bytes_; }
  std::uint8_t* data() {
    DB_CHECK_MSG(!sealed_, "a sealed DRAM image is read-only");
    return bytes_;
  }

 private:
  void Release() noexcept;

  std::uint8_t* bytes_ = nullptr;  // mapping of size_ bytes
  std::int64_t size_ = 0;
  int fd_ = -1;  // the backing file; -1 for a replica or an empty image
  bool sealed_ = false;
};

/// Where one layer's parameters sit in the image: the byte addresses of
/// its weight matrix, bias and recurrent matrix, stored back to back
/// from the base of its weight region.
struct WeightRegionLayout {
  ParamCounts counts;
  std::int64_t weights_addr = 0;
  std::int64_t bias_addr = 0;
  std::int64_t recurrent_addr = 0;
};

/// Lay out `layer`'s parameters in its weight region.  Throws db::Error
/// when the region is too small for them, or holds more than one
/// port-alignment beat of trailing bytes (an oversized or mis-assembled
/// image whose tail would otherwise be silently ignored).
WeightRegionLayout LayoutWeightRegion(const IrLayer& layer,
                                      const AcceleratorDesign& design);

/// Quantise every weight tensor into its layer's weight region (weight
/// matrix, then bias, then recurrent, row-major).  Each region is
/// bounds-checked once and written in bulk.
void WriteWeights(MemoryImage& image, const Network& net,
                  const AcceleratorDesign& design,
                  const WeightStore& weights);

/// Build the full image for one invocation: all weights plus the given
/// input blobs (keyed by input-layer name).  Weights serialise in their
/// natural (row-major) order; input blobs are permuted into the tile
/// order of their consumer's layout entry.
MemoryImage BuildMemoryImage(const Network& net,
                             const AcceleratorDesign& design,
                             const WeightStore& weights,
                             const std::map<std::string, Tensor>& inputs);

/// The tile order used for a blob: the layout entry of its first
/// consumer (identity for the network output).  Exposed for tests.
std::vector<std::int64_t> BlobTileOrder(const Network& net,
                                        const AcceleratorDesign& design,
                                        int producer_layer_id);

/// Read a blob back out of the image, undoing the tile permutation and
/// dequantising — the host's post-processing of accelerator outputs.
Tensor ExtractBlob(const MemoryImage& image, const Network& net,
                   const AcceleratorDesign& design,
                   const std::string& layer_name);

/// Write a blob (e.g. a simulated accelerator output) into the image in
/// tile order; inverse of ExtractBlob.
void StoreBlob(MemoryImage& image, const Network& net,
               const AcceleratorDesign& design,
               const std::string& layer_name, const Tensor& value);

/// Hot-path variants taking the blob's region and precomputed tile
/// order (see BlobTileOrder) so steady-state callers — one store and one
/// extract per served request — skip the per-call permutation rebuild.
void StoreBlob(MemoryImage& image, const AcceleratorDesign& design,
               const MemoryRegion& region,
               const std::vector<std::int64_t>& order,
               const Tensor& value);
Tensor ExtractBlob(const MemoryImage& image,
                   const AcceleratorDesign& design,
                   const MemoryRegion& region,
                   const std::vector<std::int64_t>& order,
                   const BlobShape& shape);

}  // namespace db
