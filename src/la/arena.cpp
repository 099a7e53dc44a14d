#include "la/arena.hpp"

#include <algorithm>
#include <cstring>
#include <new>

#include "util/check.hpp"

namespace np::la {

namespace {
constexpr std::size_t kAlignment = 64;

std::size_t align_up(std::size_t n) {
  return (n + kAlignment - 1) & ~(kAlignment - 1);
}
}  // namespace

void Arena::add_chunk(std::size_t bytes) {
  Chunk chunk;
  // Over-align the chunk manually: operator new[] guarantees only
  // alignof(max_align_t), so allocate slack and round the base up in
  // alloc_aligned (the stored pointer is the raw allocation).
  chunk.size = align_up(bytes) + kAlignment;
  // Not zero-filled: pages the arena never hands out stay untouched,
  // so capacity beyond the high-water mark costs no resident memory.
  chunk.data = std::make_unique_for_overwrite<std::uint8_t[]>(chunk.size);
  capacity_ += chunk.size;
  ++reallocations_;
  chunks_.push_back(std::move(chunk));
}

void Arena::reserve(std::size_t bytes) {
  if (bytes == 0) return;
  if (chunks_.empty()) {
    add_chunk(bytes);
    return;
  }
  std::size_t total = 0;
  for (const Chunk& c : chunks_) total += c.size;
  if (total >= bytes) return;
  // Growing invalidates nothing that is live after a reset(); callers
  // reserve between passes only.
  NP_ASSERT(used_ == 0, "Arena::reserve: cannot grow with live allocations");
  chunks_.clear();
  capacity_ = 0;
  add_chunk(bytes);
  active_ = 0;
}

std::uint8_t* Arena::alloc_aligned(std::size_t bytes) {
  const std::size_t need = align_up(bytes);
  if (chunks_.empty()) add_chunk(std::max<std::size_t>(need, 1 << 16));
  for (;;) {
    Chunk& chunk = chunks_[active_];
    const std::uintptr_t raw =
        reinterpret_cast<std::uintptr_t>(chunk.data.get()) + chunk.offset;
    const std::uintptr_t aligned = (raw + kAlignment - 1) & ~(kAlignment - 1);
    const std::size_t pad = aligned - raw;
    if (chunk.offset + pad + need <= chunk.size) {
      chunk.offset += pad + need;
      used_ += pad + need;
      high_water_ = std::max(high_water_, used_);
      return reinterpret_cast<std::uint8_t*>(aligned);
    }
    if (active_ + 1 < chunks_.size()) {
      ++active_;
      continue;
    }
    // Overflow: a fresh chunk keeps existing spans valid, and later
    // passes reuse it after the chunks before it.
    add_chunk(std::max(need, capacity_));
    ++active_;
  }
}

double* Arena::alloc_doubles(std::size_t count) {
  return reinterpret_cast<double*>(alloc_aligned(count * sizeof(double)));
}

std::uint8_t* Arena::alloc_bytes(std::size_t count) { return alloc_aligned(count); }

void Arena::reset() {
  for (Chunk& chunk : chunks_) chunk.offset = 0;
  active_ = 0;
  used_ = 0;
}

}  // namespace np::la
