// Private to la/kernels.cpp and its tests: the two implementations
// behind each dense product, reachable directly so tests can compare
// them bit for bit without a run-time switch.
//
// The portable loops are compiled into every build and run wherever
// the CPU lacks AVX2. The AVX2 register tiles are compiled with
// __attribute__((target("avx2"))) on x86-64 only; elsewhere the *_avx2
// names forward to the portable loops and avx2_available() is false.
#pragma once

#include <cstddef>

namespace np::la::kernels::detail {

/// True when the AVX2 tiles are compiled in and the CPU (and OS)
/// support them. Decided once, on first call.
bool avx2_available();

void matmul_portable(const double* a, std::size_t n, std::size_t k,
                     const double* b, std::size_t m, double* out);
void matmul_avx2(const double* a, std::size_t n, std::size_t k, const double* b,
                 std::size_t m, double* out);

void matmul_tn_portable(const double* a, std::size_t n, std::size_t k,
                        const double* g, std::size_t m, double* out);
void matmul_tn_avx2(const double* a, std::size_t n, std::size_t k,
                    const double* g, std::size_t m, double* out);

}  // namespace np::la::kernels::detail
