#include "sim/kernels.h"

#include <sys/mman.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "common/error.h"
#include "common/strings.h"

namespace db::sim {

// ---------------------------------------------------------------------
// Scalar reference kernels
// ---------------------------------------------------------------------

namespace {

void ScalarWriteback(std::int32_t* out, const std::int64_t* acc,
                     std::size_t n, int frac_bits, std::int32_t raw_min,
                     std::int32_t raw_max) {
  for (std::size_t i = 0; i < n; ++i) {
    std::int64_t v = RoundShiftHalfAway(acc[i], frac_bits);
    if (v > raw_max) v = raw_max;
    if (v < raw_min) v = raw_min;
    out[i] = static_cast<std::int32_t>(v);
  }
}

void ScalarRelu(std::int32_t* out, const std::int32_t* in, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = in[i] > 0 ? in[i] : 0;
}

std::int32_t ScalarMaxValue(const std::int32_t* in, std::size_t n,
                            std::int32_t init) {
  std::int32_t best = init;
  for (std::size_t i = 0; i < n; ++i)
    if (in[i] > best) best = in[i];
  return best;
}

constexpr KernelOps kScalarOps = {
    "scalar",
    DotReference<std::int64_t, std::int32_t>,
    DotReference<std::int64_t, std::int16_t>,
    ConvTileReference<double, double>,
    ScalarWriteback,
    ScalarRelu,
    ScalarMaxValue,
};

}  // namespace

// ---------------------------------------------------------------------
// Backend selection
// ---------------------------------------------------------------------

namespace detail {
#if defined(DB_HAVE_AVX2_KERNELS)
// Defined in kernels_avx2.cpp (compiled with -mavx2 -mfma).
const KernelOps& Avx2KernelsImpl();
#endif
#if defined(DB_HAVE_AVX512_KERNELS)
// Defined in kernels_avx512.cpp (compiled with -mavx512f -mfma).
void Avx512ConvTile(double* acc, const double* w, const double* in,
                    const std::int64_t* off, std::size_t taps);
#endif
}  // namespace detail

bool Avx2Available() {
#if defined(DB_HAVE_AVX2_KERNELS) && defined(__x86_64__)
  return __builtin_cpu_supports("avx2") != 0 &&
         __builtin_cpu_supports("fma") != 0;
#else
  return false;
#endif
}

bool Avx512Available() {
#if defined(DB_HAVE_AVX512_KERNELS) && defined(__x86_64__)
  return Avx2Available() && __builtin_cpu_supports("avx512f") != 0;
#else
  return false;
#endif
}

std::vector<KernelBackend> AvailableBackends() {
  // Each backend needs the one before it (avx512 reuses the avx2 table),
  // so the available ones are a prefix of this list.
  constexpr KernelBackend kAll[] = {KernelBackend::kScalar,
                                    KernelBackend::kAvx2,
                                    KernelBackend::kAvx512};
  const std::size_t n = 1 + (Avx2Available() ? 1 : 0) +
                        (Avx512Available() ? 1 : 0);
  return {kAll, kAll + n};
}

std::string KernelBackendName(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kAuto: return "auto";
    case KernelBackend::kScalar: return "scalar";
    case KernelBackend::kAvx2: return "avx2";
    case KernelBackend::kAvx512: return "avx512";
  }
  return "?";
}

KernelBackend ParseKernelBackend(const std::string& name) {
  const std::string n = ToLower(name);
  for (const KernelBackend backend :
       {KernelBackend::kAuto, KernelBackend::kScalar, KernelBackend::kAvx2,
        KernelBackend::kAvx512})
    if (n == KernelBackendName(backend)) return backend;
  DB_THROW("unknown kernel backend '" << name
           << "' (want auto, scalar, avx2 or avx512)");
}

namespace {

/// What kAuto resolves to; the CPU does not change under a process.
KernelBackend Widest() {
  static const KernelBackend widest = AvailableBackends().back();
  return widest;
}

bool Available(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kAvx2: return Avx2Available();
    case KernelBackend::kAvx512: return Avx512Available();
    default: return true;
  }
}

/// The initial request: DB_SIM_KERNEL env var, else auto.
KernelBackend InitialBackend() {
  const char* env = std::getenv("DB_SIM_KERNEL");
  if (env == nullptr || *env == '\0') return KernelBackend::kAuto;
  return ParseKernelBackend(env);
}

std::atomic<KernelBackend>& RequestedBackend() {
  static std::atomic<KernelBackend> requested{InitialBackend()};
  return requested;
}

}  // namespace

void SetKernelBackend(KernelBackend backend) {
  if (!Available(backend))
    DB_THROW("cannot select the " << KernelBackendName(backend)
             << " kernel backend: not available on this host");
  RequestedBackend().store(backend, std::memory_order_relaxed);
}

KernelBackend ActiveKernelBackend() {
  const KernelBackend requested =
      RequestedBackend().load(std::memory_order_relaxed);
  return requested == KernelBackend::kAuto ? Widest() : requested;
}

const KernelOps& KernelsFor(KernelBackend backend) {
  if (backend == KernelBackend::kAuto) backend = Widest();
  if (!Available(backend))
    DB_THROW(KernelBackendName(backend)
             << " kernels are not available on this host");
  switch (backend) {
#if defined(DB_HAVE_AVX2_KERNELS)
    case KernelBackend::kAvx2: return detail::Avx2KernelsImpl();
#endif
#if defined(DB_HAVE_AVX512_KERNELS)
    case KernelBackend::kAvx512: {
      // The AVX2 table with the conv tile on zmm registers: the other
      // kernels are memory-bound or short, so wider lanes buy nothing.
      static const KernelOps avx512 = [] {
        KernelOps ops = detail::Avx2KernelsImpl();
        ops.name = "avx512";
        ops.conv_tile = detail::Avx512ConvTile;
        return ops;
      }();
      return avx512;
    }
#endif
    default: return kScalarOps;
  }
}

const KernelOps& ActiveKernels() { return KernelsFor(ActiveKernelBackend()); }

// ---------------------------------------------------------------------
// SimArena
// ---------------------------------------------------------------------

namespace {
constexpr std::size_t kArenaAlign = 64;
constexpr std::size_t kArenaMinBlock = std::size_t{64} * 1024;
// Blocks from this size up are anonymous mappings: one freed with its
// arena returns its pages to the system, where a freed heap block this
// large can stay resident in the allocator (some 7 MB per Alexnet
// replica).  Smaller blocks, such as MNIST's whole arena, stay
// on the heap, which recycles them without a system call.
constexpr std::size_t kArenaMapMinBytes = std::size_t{1} << 20;

std::size_t RoundUpAligned(std::size_t bytes) {
  return (bytes + kArenaAlign - 1) & ~(kArenaAlign - 1);
}
}  // namespace

std::byte* SimArena::NewBlock(std::size_t bytes) {
  if (bytes < kArenaMapMinBytes)
    return static_cast<std::byte*>(
        ::operator new(bytes, std::align_val_t{kArenaAlign}));
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return static_cast<std::byte*>(p);
}

void SimArena::DeleteBlock(const Block& b) {
  if (b.size < kArenaMapMinBytes)
    ::operator delete(b.data, std::align_val_t{kArenaAlign});
  else
    ::munmap(b.data, b.size);
}

SimArena::~SimArena() {
  for (const Block& b : blocks_) DeleteBlock(b);
}

std::size_t SimArena::capacity_bytes() const {
  std::size_t total = 0;
  for (const Block& b : blocks_) total += b.size;
  return total;
}

void* SimArena::AllocBytes(std::size_t bytes) {
  const std::size_t need = RoundUpAligned(bytes == 0 ? 1 : bytes);
  while (current_ < blocks_.size()) {
    Block& b = blocks_[current_];
    if (b.used + need <= b.size) {
      void* p = b.data + b.used;
      b.used += need;
      used_ += need;
      return p;
    }
    ++current_;
  }
  // Grow: at least double the current capacity so the block count stays
  // logarithmic in the eventual footprint.
  std::size_t size = std::max(need, kArenaMinBlock);
  size = std::max(size, capacity_bytes());
  Block b;
  b.data = NewBlock(size);
  b.size = size;
  b.used = need;
  blocks_.push_back(b);
  current_ = blocks_.size() - 1;
  used_ += need;
  return b.data;
}

void SimArena::Rewind(const Mark& m) {
  for (std::size_t i = m.block; i < blocks_.size(); ++i)
    blocks_[i].used = i == m.block ? m.block_used : 0;
  current_ = m.block;
  used_ = m.used;
}

void SimArena::Reset() {
  // Every block stays: a run that overflowed has touched the pages of its
  // new block already, and a coalesced replacement would fault each of
  // them in again on the next run.
  for (Block& b : blocks_) b.used = 0;
  current_ = 0;
  used_ = 0;
}

}  // namespace db::sim
