#include "core/memory_image.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <new>
#include <tuple>
#include <utility>

#include "common/error.h"
#include "core/data_layout.h"

namespace db {
namespace {

/// A fresh zero-filled in-memory file of `bytes` (> 0) bytes, and a
/// writable shared mapping of it.
std::pair<int, std::uint8_t*> NewFile(std::int64_t bytes) {
  const int fd = memfd_create("db-dram-image", MFD_CLOEXEC | MFD_ALLOW_SEALING);
  if (fd < 0) throw std::bad_alloc();
  void* p = MAP_FAILED;
  if (ftruncate(fd, bytes) == 0)
    p = mmap(nullptr, static_cast<std::size_t>(bytes), PROT_READ | PROT_WRITE,
             MAP_SHARED, fd, 0);
  if (p == MAP_FAILED) {
    close(fd);
    throw std::bad_alloc();
  }
  return {fd, static_cast<std::uint8_t*>(p)};
}

template <int kBytes>
void PackRaw(std::uint8_t* dst, const float* values, std::size_t n,
             const FixedFormat& fmt) {
  // A local copy: the uint8_t stores below may alias a reference's
  // fields, but not a local's, so the format stays in registers.
  const FixedFormat f = fmt;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t raw = f.Quantize(values[i]);
    std::memcpy(dst + i * kBytes, &raw, kBytes);
  }
}

}  // namespace

MemoryImage::MemoryImage(std::int64_t bytes) : size_(bytes) {
  DB_CHECK_MSG(bytes >= 0, "negative image size");
  if (bytes > 0) std::tie(fd_, bytes_) = NewFile(bytes);
}

MemoryImage::MemoryImage(const MemoryImage& other) : size_(other.size_) {
  if (size_ == 0) return;
  if (other.sealed_) {
    // A replica: the sealed file mapped copy-on-write, pages faulted in
    // on first touch.
    void* p = mmap(nullptr, static_cast<std::size_t>(size_),
                   PROT_READ | PROT_WRITE, MAP_PRIVATE, other.fd_, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    bytes_ = static_cast<std::uint8_t*>(p);
    return;
  }
  std::tie(fd_, bytes_) = NewFile(size_);
  std::memcpy(bytes_, other.bytes_, static_cast<std::size_t>(size_));
}

MemoryImage& MemoryImage::operator=(const MemoryImage& other) {
  if (this == &other) return *this;
  if (size_ != other.size_ || sealed_) return *this = MemoryImage(other);
  if (size_ > 0)
    std::memcpy(bytes_, other.bytes_, static_cast<std::size_t>(size_));
  return *this;
}

MemoryImage::MemoryImage(MemoryImage&& other) noexcept
    : bytes_(std::exchange(other.bytes_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      fd_(std::exchange(other.fd_, -1)),
      sealed_(std::exchange(other.sealed_, false)) {}

MemoryImage& MemoryImage::operator=(MemoryImage&& other) noexcept {
  if (this == &other) return *this;
  Release();
  bytes_ = std::exchange(other.bytes_, nullptr);
  size_ = std::exchange(other.size_, 0);
  fd_ = std::exchange(other.fd_, -1);
  sealed_ = std::exchange(other.sealed_, false);
  return *this;
}

MemoryImage::~MemoryImage() { Release(); }

void MemoryImage::Release() noexcept {
  if (bytes_ != nullptr) munmap(bytes_, static_cast<std::size_t>(size_));
  if (fd_ >= 0) close(fd_);
}

void MemoryImage::Seal() {
  if (sealed_) return;
  DB_CHECK_MSG(fd_ >= 0, "only an image that owns its file can be sealed "
                         "(not a replica, not an empty image)");
  // The writable shared view would block F_SEAL_WRITE; replace it, at
  // the same address, by a private read-only one.  Its pages fault in
  // again only when read.
  if (mmap(bytes_, static_cast<std::size_t>(size_), PROT_READ,
           MAP_PRIVATE | MAP_FIXED, fd_, 0) == MAP_FAILED)
    throw std::bad_alloc();
  DB_CHECK_MSG(fcntl(fd_, F_ADD_SEALS,
                     F_SEAL_WRITE | F_SEAL_GROW | F_SEAL_SHRINK) == 0,
               "sealing the DRAM image file failed");
  sealed_ = true;
}

void MemoryImage::WriteElem(std::int64_t addr, std::int64_t raw,
                            int elem_bytes) {
  DB_CHECK_MSG(addr >= 0 && addr + elem_bytes <= size(),
               "image write out of bounds");
  std::uint8_t* bytes = data();
  for (int b = 0; b < elem_bytes; ++b)
    bytes[addr + b] = static_cast<std::uint8_t>((raw >> (8 * b)) & 0xFF);
}

std::int64_t MemoryImage::ReadElem(std::int64_t addr,
                                   int elem_bytes) const {
  DB_CHECK_MSG(addr >= 0 && addr + elem_bytes <= size(),
               "image read out of bounds");
  return LoadElem(bytes_ + addr, elem_bytes);
}

void MemoryImage::FlipBit(std::int64_t addr, int bit) {
  DB_CHECK_MSG(addr >= 0 && addr < size(), "bit flip out of bounds");
  DB_CHECK_MSG(bit >= 0 && bit < 8, "bit index must be in [0, 8)");
  data()[addr] ^= static_cast<std::uint8_t>(1u << bit);
}

void MemoryImage::CopyRange(const MemoryImage& src, std::int64_t base,
                            std::int64_t bytes) {
  DB_CHECK_MSG(bytes >= 0, "negative copy length");
  DB_CHECK_MSG(base >= 0 && base + bytes <= size() &&
                   base + bytes <= src.size(),
               "copy range out of bounds");
  std::uint8_t* dst = data();
  if (bytes > 0)
    std::memcpy(dst + base, src.data() + base,
                static_cast<std::size_t>(bytes));
}

std::vector<std::int64_t> BlobTileOrder(const Network& net,
                                        const AcceleratorDesign& design,
                                        int producer_layer_id) {
  const IrLayer& producer = net.layer(producer_layer_id);
  // Find the first consumer; its input layout dictates the blob order.
  for (const IrLayer& layer : net.layers()) {
    for (std::size_t i = 0; i < layer.input_ids.size(); ++i) {
      if (layer.input_ids[i] != producer_layer_id) continue;
      const TileSpec& spec =
          design.layout.ForLayer(layer.id).input_layout;
      return TilePermutation(producer.output_shape, spec);
    }
  }
  // Network output: stored linearly.
  std::vector<std::int64_t> identity(
      static_cast<std::size_t>(producer.output_shape.NumElements()));
  for (std::size_t i = 0; i < identity.size(); ++i)
    identity[i] = static_cast<std::int64_t>(i);
  return identity;
}

WeightRegionLayout LayoutWeightRegion(const IrLayer& layer,
                                      const AcceleratorDesign& design) {
  const std::int64_t elem_bytes = design.config.ElementBytes();
  const MemoryRegion& region = design.memory_map.Weights(layer.name());
  WeightRegionLayout layout;
  layout.counts = ParamCountsFor(layer);
  layout.weights_addr = region.base;
  layout.bias_addr = layout.weights_addr + layout.counts.weights * elem_bytes;
  layout.recurrent_addr = layout.bias_addr + layout.counts.bias * elem_bytes;
  // Anything beyond the MemoryMap's port-alignment padding is trailing
  // garbage.  Mirrors the mem.layout weight-sizing verifier rule.
  const std::int64_t align =
      std::max<std::int64_t>(design.config.memory_port_elems * elem_bytes, 1);
  const std::int64_t leftover =
      region.end() -
      (layout.recurrent_addr + layout.counts.recurrent * elem_bytes);
  if (leftover < 0)
    DB_THROW("weight region '" << layer.name() << "' is "
             << -leftover << " bytes short of its parameters");
  if (leftover >= align)
    DB_THROW("weight region '" << layer.name()
             << "' not fully consumed: " << leftover
             << " trailing bytes exceed one alignment beat (" << align
             << ")");
  return layout;
}

void WriteWeights(MemoryImage& image, const Network& net,
                  const AcceleratorDesign& design,
                  const WeightStore& weights) {
  const FixedFormat& fmt = design.config.format;
  const std::int64_t elem_bytes = design.config.ElementBytes();
  for (const IrLayer* layer : net.ComputeLayers()) {
    if (!design.memory_map.HasWeights(layer->name())) continue;
    const MemoryRegion& region =
        design.memory_map.Weights(layer->name());
    const LayerParams& params = weights.at(layer->name());
    DB_CHECK_MSG(region.base >= 0 && region.end() <= image.size() &&
                     params.TotalCount() * elem_bytes <= region.bytes,
                 "weights overflow their region");
    std::uint8_t* dst = image.data() + region.base;
    for (const Tensor* t : {&params.weights, &params.bias,
                            &params.recurrent}) {
      const float* src = t->storage().data();
      const std::size_t n = static_cast<std::size_t>(t->size());
      switch (elem_bytes) {
        case 1: PackRaw<1>(dst, src, n, fmt); break;
        case 2: PackRaw<2>(dst, src, n, fmt); break;
        case 3: PackRaw<3>(dst, src, n, fmt); break;
        default: PackRaw<4>(dst, src, n, fmt); break;
      }
      dst += n * static_cast<std::size_t>(elem_bytes);
    }
  }
}

MemoryImage BuildMemoryImage(const Network& net,
                             const AcceleratorDesign& design,
                             const WeightStore& weights,
                             const std::map<std::string, Tensor>& inputs) {
  MemoryImage image(design.memory_map.total_bytes());
  WriteWeights(image, net, design, weights);

  // Input blobs, permuted into the consumer's tile order.
  for (int id : net.input_ids()) {
    const IrLayer& in_layer = net.layer(id);
    const auto it = inputs.find(in_layer.name());
    if (it == inputs.end())
      DB_THROW("BuildMemoryImage: missing input '" << in_layer.name()
               << "'");
    StoreBlob(image, net, design, in_layer.name(), it->second);
  }
  return image;
}

void StoreBlob(MemoryImage& image, const AcceleratorDesign& design,
               const MemoryRegion& region,
               const std::vector<std::int64_t>& order,
               const Tensor& value) {
  const FixedFormat& fmt = design.config.format;
  const int elem_bytes = static_cast<int>(design.config.ElementBytes());
  DB_CHECK_MSG(static_cast<std::int64_t>(order.size()) == value.size(),
               "blob size mismatch");
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    const std::int64_t addr =
        region.base + static_cast<std::int64_t>(pos) * elem_bytes;
    DB_CHECK_MSG(addr + elem_bytes <= region.end(),
                 "blob overflows its region");
    image.WriteElem(addr, fmt.Quantize(value[order[pos]]), elem_bytes);
  }
}

void StoreBlob(MemoryImage& image, const Network& net,
               const AcceleratorDesign& design,
               const std::string& layer_name, const Tensor& value) {
  const MemoryRegion& region = design.memory_map.Blob(layer_name);
  int layer_id = -1;
  for (const IrLayer& layer : net.layers())
    if (layer.name() == layer_name) layer_id = layer.id;
  DB_CHECK_MSG(layer_id >= 0, "unknown blob layer");
  StoreBlob(image, design, region, BlobTileOrder(net, design, layer_id),
            value);
}

Tensor ExtractBlob(const MemoryImage& image,
                   const AcceleratorDesign& design,
                   const MemoryRegion& region,
                   const std::vector<std::int64_t>& order,
                   const BlobShape& shape) {
  const FixedFormat& fmt = design.config.format;
  const int elem_bytes = static_cast<int>(design.config.ElementBytes());
  Tensor out(Shape{shape.channels, shape.height, shape.width});
  DB_CHECK_MSG(static_cast<std::int64_t>(order.size()) == out.size(),
               "blob size mismatch");
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    const std::int64_t addr =
        region.base + static_cast<std::int64_t>(pos) * elem_bytes;
    out[order[pos]] = static_cast<float>(
        fmt.Dequantize(image.ReadElem(addr, elem_bytes)));
  }
  return out;
}

Tensor ExtractBlob(const MemoryImage& image, const Network& net,
                   const AcceleratorDesign& design,
                   const std::string& layer_name) {
  int layer_id = -1;
  for (const IrLayer& layer : net.layers())
    if (layer.name() == layer_name) layer_id = layer.id;
  DB_CHECK_MSG(layer_id >= 0, "unknown blob layer");
  return ExtractBlob(image, design,
                     design.memory_map.Blob(layer_name),
                     BlobTileOrder(net, design, layer_id),
                     net.layer(layer_id).output_shape);
}

}  // namespace db
