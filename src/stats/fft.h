// Iterative radix-2 FFT used for fast convolution of work distributions.
//
// EPRONS-Server computes "equivalent request" distributions as convolutions
// of per-request work PDFs (paper section III-A/C); the paper reports ~20us
// per FFT convolution, which bench_micro_overheads reproduces.
//
// Bit-exactness contract: fft() and convolve() produce, bit for bit, the
// output of the textbook in-place radix-2 Cooley-Tukey transform: swap
// into bit-reversed order, then for each stage len = 2, 4, .., n and each
// block, start w at 1 and step it by `w *= wlen` (wlen = e^(-+2*pi*i/len)
// from std::cos/std::sin), with butterflies u + v*w, u - v*w, and the
// inverse scaled by 1/n at the end; convolve() multiplies the two forward
// spectra pointwise and keeps the clamped real parts of the inverse. The
// kernel reaches that arithmetic faster without changing it: twiddles and
// the bit-reversal table are built once and reused, and convolve() reuses
// the forward spectrum of its second operand `b` while consecutive calls
// on the same thread pass byte-identical `b` contents at the same
// transform size (the DES always convolves with the model's work PDF).
// Any other reordering of floating-point operations would move the
// paper-figure fingerprints; stats_test pins the output hashes. The file
// is compiled with -ffp-contract=off so no FMA fusion can alter the
// sequence.
//
// Thread safety: the reused tables, work buffer and cached spectra are
// thread_local, so concurrent calls share no mutable state. Each thread
// keeps them sized for the largest transform it has run.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace eprons {

/// Smallest power of two >= n (n >= 1).
std::size_t next_pow2(std::size_t n);

/// In-place radix-2 Cooley-Tukey FFT. data.size() must be a power of two.
/// inverse=true applies the inverse transform including the 1/N scaling.
void fft(std::vector<std::complex<double>>& data, bool inverse);

/// Linear convolution of two real sequences via FFT.
/// Result size is a.size() + b.size() - 1. Small negative values produced by
/// round-off are clamped to zero (inputs are probability masses).
std::vector<double> convolve(const std::vector<double>& a,
                             const std::vector<double>& b);

/// Direct O(n*m) convolution; reference implementation for testing and for
/// very short sequences where FFT setup costs dominate.
std::vector<double> convolve_direct(const std::vector<double>& a,
                                    const std::vector<double>& b);

}  // namespace eprons
