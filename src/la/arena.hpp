// Bump allocator for pass-scoped intermediates: ad::Tape node values,
// gradients and adjoint scratch, for update steps and acting forwards.
//
// An Arena hands out cache-line-aligned double/byte spans from its
// chunks; reset() rewinds every chunk without releasing memory, so a
// pass that fits the chunks earlier passes grew performs ZERO heap
// allocations. Overflow mid-pass is handled without invalidating live
// pointers: the overflowing request is served from a fresh chunk (at
// least as large as all earlier chunks together), and later passes
// walk the chunks in the same order. Chunks are never merged or freed
// before the arena dies: re-allocating a merged copy would keep two
// copies resident once the allocator has recycled the growth chunks
// from its heap (it does, after the first large block is freed). The
// `reallocations()` counter makes the warmup/steady-state boundary
// testable (tests assert it stops moving).
//
// Not thread-safe; keep one Arena per owner.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace np::la {

class Arena {
 public:
  /// Starts empty; the first allocation (or reserve()) creates storage.
  Arena() = default;

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Grow capacity to at least `bytes` (no-op when already large
  /// enough). Call during setup so the hot path never overflows.
  void reserve(std::size_t bytes);

  /// `count` doubles, 64-byte aligned, zero-INITIALIZED BY THE CALLER
  /// (contents are indeterminate). Valid until the next reset().
  double* alloc_doubles(std::size_t count);

  /// `count` bytes, 64-byte aligned. Valid until the next reset().
  std::uint8_t* alloc_bytes(std::size_t count);

  /// Rewind to empty, keeping every chunk.
  void reset();

  /// Bytes handed out since the last reset() (aligned sizes).
  std::size_t used_bytes() const { return used_; }
  /// Largest used_bytes() ever observed — the steady-state footprint.
  std::size_t high_water_bytes() const { return high_water_; }
  /// Total bytes owned across chunks.
  std::size_t capacity_bytes() const { return capacity_; }
  /// Number of heap allocations ever made by this arena. Stable across
  /// passes == the hot path is allocation-free.
  long reallocations() const { return reallocations_; }

 private:
  struct Chunk {
    std::unique_ptr<std::uint8_t[]> data;
    std::size_t size = 0;
    std::size_t offset = 0;
  };

  std::uint8_t* alloc_aligned(std::size_t bytes);
  void add_chunk(std::size_t bytes);

  std::vector<Chunk> chunks_;
  std::size_t active_ = 0;  ///< chunk currently being bumped
  std::size_t used_ = 0;
  std::size_t high_water_ = 0;
  std::size_t capacity_ = 0;
  long reallocations_ = 0;
};

}  // namespace np::la
