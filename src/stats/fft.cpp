#include "stats/fft.h"

#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>

namespace eprons {

namespace {

using Complex = std::complex<double>;

// Per-thread tables and buffers. Every entry is a pure function of the
// transform size (or of the cached operand's bytes), so reusing one across
// calls changes no output bit; keeping them per thread keeps fft() and
// convolve() free of shared mutable state.
struct Workspace {
  // Bit-reversal permutation of the largest size seen; a smaller power of
  // two n reads it shifted right by log2(max / n).
  std::vector<std::uint32_t> bit_reversal;
  // Forward twiddles: the stage of length `len` uses entries
  // [len/2, len), entry len/2 + k holding w^k from the same `w *= wlen`
  // recurrence the per-block loop ran. The inverse stage's twiddles are
  // their exact conjugates (cos is even, sin odd, negation is exact),
  // except that w^0 keeps its +0 imaginary part.
  std::vector<Complex> twiddles;
  // Convolution work array.
  std::vector<Complex> buffer;
  // Byte copy of the last fixed convolution operand and its forward
  // spectra, indexed by log2 of the transform size.
  std::vector<double> operand;
  std::vector<std::vector<Complex>> spectra;
};

thread_local Workspace workspace;

unsigned log2_of(std::size_t n) {
  return static_cast<unsigned>(std::countr_zero(n));
}

// Index map of the bit-reversal permutation for size n.
struct BitReversal {
  const std::uint32_t* table;
  unsigned shift;
  std::size_t operator()(std::size_t i) const { return table[i] >> shift; }
};

BitReversal bit_reversal(Workspace& ws, std::size_t n) {
  std::vector<std::uint32_t>& rev = ws.bit_reversal;
  if (rev.size() < n) {
    rev.assign(n, 0);
    for (std::size_t i = 1, j = 0; i < n; ++i) {
      std::size_t bit = n >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j ^= bit;
      rev[i] = static_cast<std::uint32_t>(j);
    }
  }
  return {rev.data(), log2_of(rev.size()) - log2_of(n)};
}

const Complex* twiddles(Workspace& ws, std::size_t n) {
  std::vector<Complex>& tw = ws.twiddles;
  const std::size_t have = tw.size();
  if (have < n) {
    tw.resize(n);
    for (std::size_t len = have == 0 ? 2 : 2 * have; len <= n; len <<= 1) {
      const double angle = -2.0 * M_PI / static_cast<double>(len);
      const Complex wlen(std::cos(angle), std::sin(angle));
      Complex w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        tw[len / 2 + k] = w;
        w *= wlen;
      }
    }
  }
  return tw.data();
}

// The butterfly stages of an in-place radix-2 transform of bit-reversed
// data, without the inverse's 1/n scaling. The twiddle product is spelled
// (ac - bd, ad + bc): the operations GCC emits for std::complex `*` on
// finite operands, minus its NaN-recovery call.
template <bool kInverse>
void butterflies(Complex* data, std::size_t n, const Complex* tw) {
  // An array of std::complex<double> may be accessed as an array of
  // interleaved (real, imag) doubles ([complex.numbers]).
  double* x = reinterpret_cast<double*>(data);
  for (std::size_t half = 1; half < n; half <<= 1) {
    const double* w = reinterpret_cast<const double*>(tw + half);
    for (std::size_t i = 0; i < n; i += 2 * half) {
      double* lo = x + 2 * i;
      double* hi = lo + 2 * half;
      for (std::size_t k = 0; k < half; ++k) {
        const double a = hi[2 * k];
        const double b = hi[2 * k + 1];
        const double c = w[2 * k];
        // 0 - x negates x exactly but maps +0 to +0, as w^0 of the inverse
        // recurrence has it.
        const double d = kInverse ? 0.0 - w[2 * k + 1] : w[2 * k + 1];
        const double vr = a * c - b * d;
        const double vi = a * d + b * c;
        const double ur = lo[2 * k];
        const double ui = lo[2 * k + 1];
        lo[2 * k] = ur + vr;
        lo[2 * k + 1] = ui + vi;
        hi[2 * k] = ur - vr;
        hi[2 * k + 1] = ui - vi;
      }
    }
  }
}

// Forward spectrum of `b` zero-padded to n, cached per thread for as long
// as consecutive calls pass a byte-identical `b`.
const std::vector<Complex>& operand_spectrum(Workspace& ws,
                                             const std::vector<double>& b,
                                             std::size_t n) {
  if (ws.operand.size() != b.size() ||
      std::memcmp(ws.operand.data(), b.data(), b.size() * sizeof(double)) !=
          0) {
    ws.spectra.clear();
    ws.operand = b;
  }
  const unsigned slot = log2_of(n);
  if (ws.spectra.size() <= slot) ws.spectra.resize(slot + 1);
  std::vector<Complex>& spectrum = ws.spectra[slot];
  if (spectrum.empty()) {
    // Built aside and moved in, so a throwing allocation caches nothing.
    const BitReversal rev = bit_reversal(ws, n);
    const Complex* tw = twiddles(ws, n);
    std::vector<Complex> transformed(n);
    for (std::size_t i = 0; i < b.size(); ++i) transformed[rev(i)] = b[i];
    butterflies<false>(transformed.data(), n, tw);
    spectrum = std::move(transformed);
  }
  return spectrum;
}

}  // namespace

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void fft(std::vector<std::complex<double>>& data, bool inverse) {
  const std::size_t n = data.size();
  assert((n & (n - 1)) == 0 && "fft size must be a power of two");
  if (n <= 1) return;

  Workspace& ws = workspace;
  const BitReversal rev = bit_reversal(ws, n);
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = rev(i);
    if (i < j) std::swap(data[i], data[j]);
  }
  const Complex* tw = twiddles(ws, n);
  if (inverse) {
    butterflies<true>(data.data(), n, tw);
    const double scale = 1.0 / static_cast<double>(n);
    for (auto& x : data) x *= scale;
  } else {
    butterflies<false>(data.data(), n, tw);
  }
}

std::vector<double> convolve(const std::vector<double>& a,
                             const std::vector<double>& b) {
  if (a.empty() || b.empty()) return {};
  const std::size_t out_size = a.size() + b.size() - 1;
  // For tiny inputs the direct method is faster and exact.
  if (a.size() * b.size() <= 1024) return convolve_direct(a, b);

  const std::size_t n = next_pow2(out_size);
  Workspace& ws = workspace;
  const std::vector<Complex>& fb = operand_spectrum(ws, b, n);
  const BitReversal rev = bit_reversal(ws, n);
  const Complex* tw = twiddles(ws, n);

  // Forward transform of `a`, loaded straight into bit-reversed order.
  std::vector<Complex>& buf = ws.buffer;
  buf.assign(n, Complex{});
  for (std::size_t i = 0; i < a.size(); ++i) buf[rev(i)] = a[i];
  butterflies<false>(buf.data(), n, tw);

  // Pointwise product, written straight into bit-reversed order for the
  // inverse transform.
  const auto product = [&](std::size_t i) {
    const double p = buf[i].real();
    const double q = buf[i].imag();
    const double r = fb[i].real();
    const double s = fb[i].imag();
    return Complex(p * r - q * s, p * s + q * r);
  };
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = rev(i);
    if (i == j) {
      buf[i] = product(i);
    } else if (i < j) {
      const Complex pi = product(i);
      buf[i] = product(j);
      buf[j] = pi;
    }
  }
  butterflies<true>(buf.data(), n, tw);

  const double scale = 1.0 / static_cast<double>(n);
  std::vector<double> out(out_size);
  for (std::size_t i = 0; i < out_size; ++i) {
    const double v = buf[i].real() * scale;
    out[i] = v < 0.0 ? 0.0 : v;  // clamp FFT round-off on probability mass
  }
  return out;
}

std::vector<double> convolve_direct(const std::vector<double>& a,
                                    const std::vector<double>& b) {
  if (a.empty() || b.empty()) return {};
  std::vector<double> out(a.size() + b.size() - 1, 0.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double ai = a[i];
    if (ai == 0.0) continue;
    for (std::size_t j = 0; j < b.size(); ++j) {
      out[i + j] += ai * b[j];
    }
  }
  return out;
}

}  // namespace eprons
