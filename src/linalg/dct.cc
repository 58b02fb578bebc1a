#include "linalg/dct.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <stdexcept>

namespace milr {
namespace {

using Complex = Fft::Complex;

constexpr double kPi = 3.14159265358979323846;

/// z·(−i).
inline Complex MulMinusI(Complex z) { return {z.imag(), -z.real()}; }

/// a·b as the plain four-multiply product. std::complex's operator* also
/// recovers infinities from inf·0 (C99 Annex G), a branch and a libcall
/// that cost more than the product itself in these loops; for finite and
/// NaN inputs the result is the same.
inline Complex Mul(Complex a, Complex b) {
  return {a.real() * b.real() - a.imag() * b.imag(),
          a.real() * b.imag() + a.imag() * b.real()};
}

}  // namespace

Fft::Fft(std::size_t n) : n_(n) {
  if (n == 0) throw std::invalid_argument("Fft: length must be positive");
  twiddles_.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    twiddles_[k] = std::polar(1.0, -2.0 * kPi * static_cast<double>(k) /
                                       static_cast<double>(n));
  }
  // Radix-4 stages first (cheapest per point), then 2, then odd primes.
  std::size_t rest = n;
  while (rest % 4 == 0) {
    radices_.push_back(4);
    rest /= 4;
  }
  if (rest % 2 == 0) {
    radices_.push_back(2);
    rest /= 2;
  }
  for (const std::size_t q : {3, 5}) {
    while (rest % q == 0) {
      radices_.push_back(q);
      rest /= q;
    }
  }
  if (rest == 1) return;

  // A prime factor above 5: X_k = c_k·Σ_j (x_j·c_j)·conj(c_{k−j}) with the
  // chirp c_j = e^{−πij²/n}, a linear convolution done as a cyclic one of
  // power-of-two length m ≥ 2n − 1.
  radices_.clear();
  std::size_t m = 1;
  while (m < 2 * n - 1) m *= 2;
  inner_ = std::make_unique<const Fft>(m);
  chirp_.resize(n);
  std::size_t j2 = 0;  // j² mod 2n, kept small so the angle stays exact
  for (std::size_t j = 0; j < n; ++j) {
    chirp_[j] = std::polar(1.0, -kPi * static_cast<double>(j2) /
                                    static_cast<double>(n));
    j2 = (j2 + 2 * j + 1) % (2 * n);
  }
  chirp_spectrum_.assign(m, Complex{});
  chirp_spectrum_[0] = std::conj(chirp_[0]);
  for (std::size_t d = 1; d < n; ++d) {
    chirp_spectrum_[d] = chirp_spectrum_[m - d] = std::conj(chirp_[d]);
  }
  std::vector<Complex> scratch(inner_->scratch_size());
  inner_->Forward(chirp_spectrum_.data(), scratch.data());
  for (auto& v : chirp_spectrum_) v /= static_cast<double>(m);
}

std::size_t Fft::scratch_size() const {
  return inner_ ? inner_->size() + inner_->scratch_size() : n_;
}

void Fft::Forward(Complex* data, Complex* scratch) const {
  if (inner_) {
    Bluestein(data, scratch);
    return;
  }
  if (radices_.empty()) return;  // n == 1
  std::copy(data, data + n_, scratch);
  MixedRadix(data, scratch, 1, 0);
}

void Fft::InverseUnscaled(Complex* data, Complex* scratch) const {
  for (std::size_t k = 0; k < n_; ++k) data[k] = std::conj(data[k]);
  Forward(data, scratch);
  for (std::size_t k = 0; k < n_; ++k) data[k] = std::conj(data[k]);
}

// Decimation in time: the length-L transform of in[0], in[s], in[2s], …
// (L = n / s) is `radix` interleaved sub-transforms of length L / radix,
// written contiguously to `out` and merged by one butterfly pass.
void Fft::MixedRadix(Complex* out, const Complex* in, std::size_t in_stride,
                     std::size_t stage) const {
  const std::size_t radix = radices_[stage];
  const std::size_t m = n_ / (in_stride * radix);
  if (m == 1) {
    for (std::size_t q = 0; q < radix; ++q) out[q] = in[q * in_stride];
  } else {
    for (std::size_t q = 0; q < radix; ++q) {
      MixedRadix(out + q * m, in + q * in_stride, in_stride * radix,
                 stage + 1);
    }
  }
  Butterfly(out, radix, m, in_stride);
}

// out[q·m + k] holds sub-transform q at frequency k. Output t·m + k is
// Σ_q e^{−2πiqt/radix}·(e^{−2πiqk/L}·out[q·m + k]); the inner twiddle is
// twiddles_[q·k·twiddle_stride] because L·twiddle_stride = n.
void Fft::Butterfly(Complex* out, std::size_t radix, std::size_t m,
                    std::size_t twiddle_stride) const {
  const Complex* tw = twiddles_.data();
  switch (radix) {
    case 2:
      for (std::size_t k = 0; k < m; ++k) {
        const Complex a0 = out[k];
        const Complex a1 = Mul(out[k + m], tw[k * twiddle_stride]);
        out[k] = a0 + a1;
        out[k + m] = a0 - a1;
      }
      return;
    case 3: {
      const double sin60 = std::sqrt(3.0) / 2.0;
      for (std::size_t k = 0; k < m; ++k) {
        const Complex a0 = out[k];
        const Complex a1 = Mul(out[k + m], tw[k * twiddle_stride]);
        const Complex a2 = Mul(out[k + 2 * m], tw[2 * k * twiddle_stride]);
        const Complex sum = a1 + a2;
        const Complex t = a0 - 0.5 * sum;
        const Complex u = MulMinusI(sin60 * (a1 - a2));
        out[k] = a0 + sum;
        out[k + m] = t + u;
        out[k + 2 * m] = t - u;
      }
      return;
    }
    case 4:
      for (std::size_t k = 0; k < m; ++k) {
        const Complex a0 = out[k];
        const Complex a1 = Mul(out[k + m], tw[k * twiddle_stride]);
        const Complex a2 = Mul(out[k + 2 * m], tw[2 * k * twiddle_stride]);
        const Complex a3 = Mul(out[k + 3 * m], tw[3 * k * twiddle_stride]);
        const Complex b0 = a0 + a2;
        const Complex b1 = a0 - a2;
        const Complex b2 = a1 + a3;
        const Complex b3 = MulMinusI(a1 - a3);
        out[k] = b0 + b2;
        out[k + m] = b1 + b3;
        out[k + 2 * m] = b0 - b2;
        out[k + 3 * m] = b1 - b3;
      }
      return;
    case 5: {
      const double c1 = std::cos(2.0 * kPi / 5.0);
      const double c2 = std::cos(4.0 * kPi / 5.0);
      const double s1 = std::sin(2.0 * kPi / 5.0);
      const double s2 = std::sin(4.0 * kPi / 5.0);
      for (std::size_t k = 0; k < m; ++k) {
        const Complex a0 = out[k];
        const Complex a1 = Mul(out[k + m], tw[k * twiddle_stride]);
        const Complex a2 = Mul(out[k + 2 * m], tw[2 * k * twiddle_stride]);
        const Complex a3 = Mul(out[k + 3 * m], tw[3 * k * twiddle_stride]);
        const Complex a4 = Mul(out[k + 4 * m], tw[4 * k * twiddle_stride]);
        const Complex s14 = a1 + a4;
        const Complex s23 = a2 + a3;
        const Complex d14 = a1 - a4;
        const Complex d23 = a2 - a3;
        const Complex r1 = a0 + c1 * s14 + c2 * s23;
        const Complex r2 = a0 + c2 * s14 + c1 * s23;
        const Complex i1 = MulMinusI(s1 * d14 + s2 * d23);
        const Complex i2 = MulMinusI(s2 * d14 - s1 * d23);
        out[k] = a0 + s14 + s23;
        out[k + m] = r1 + i1;
        out[k + 2 * m] = r2 + i2;
        out[k + 3 * m] = r2 - i2;
        out[k + 4 * m] = r1 - i1;
      }
      return;
    }
    default:
      throw std::logic_error("Fft: no butterfly for this radix");
  }
}

void Fft::Bluestein(Complex* data, Complex* scratch) const {
  const std::size_t m = inner_->size();
  Complex* a = scratch;
  Complex* inner_scratch = scratch + m;
  for (std::size_t j = 0; j < n_; ++j) a[j] = Mul(data[j], chirp_[j]);
  std::fill(a + n_, a + m, Complex{});
  inner_->Forward(a, inner_scratch);
  for (std::size_t k = 0; k < m; ++k) a[k] = Mul(a[k], chirp_spectrum_[k]);
  inner_->InverseUnscaled(a, inner_scratch);
  for (std::size_t k = 0; k < n_; ++k) data[k] = Mul(chirp_[k], a[k]);
}

DctPlan::DctPlan(std::size_t n) : fft_(n), shift_(n), scale_(n) {
  const double nd = static_cast<double>(n);
  for (std::size_t k = 0; k < n; ++k) {
    shift_[k] = std::polar(1.0, -kPi * static_cast<double>(k) / (2.0 * nd));
    scale_[k] = std::sqrt((k == 0 ? 1.0 : 2.0) / nd);
  }
}

std::size_t DctPlan::CheckedCount(std::span<const double> data) const {
  if (data.size() % size() != 0) {
    throw std::invalid_argument(
        "DctPlan: buffer length is not a multiple of the plan length");
  }
  return data.size() / size();
}

// Makhoul's reordering v = (x_0, x_2, x_4, …, x_5, x_3, x_1) turns the
// DCT-II into Re(e^{−iπk/2n}·FFT(v)_k), for even and odd n alike.
void DctPlan::Dct2(std::span<double> data) const {
  const std::size_t n = size();
  const std::size_t count = CheckedCount(data);
  std::vector<Complex> z(n);
  std::vector<Complex> scratch(fft_.scratch_size());
  for (std::size_t v = 0; v < count; ++v) {
    double* x = data.data() + v * n;
    for (std::size_t m = 0; 2 * m < n; ++m) z[m] = x[2 * m];
    for (std::size_t m = 0; 2 * m + 1 < n; ++m) z[n - 1 - m] = x[2 * m + 1];
    fft_.Forward(z.data(), scratch.data());
    for (std::size_t k = 0; k < n; ++k) {
      x[k] = scale_[k] * Mul(shift_[k], z[k]).real();
    }
  }
}

// Inverse of the above: with C_k = X_k / s_k, FFT(v)_k = e^{iπk/2n}·
// (C_k − i·C_{n−k}) (C_n = 0), and one inverse FFT returns v.
void DctPlan::Dct3(std::span<double> data) const {
  const std::size_t n = size();
  const std::size_t count = CheckedCount(data);
  std::vector<Complex> z(n);
  std::vector<Complex> scratch(fft_.scratch_size());
  const double inv_n = 1.0 / static_cast<double>(n);
  for (std::size_t v = 0; v < count; ++v) {
    double* x = data.data() + v * n;
    z[0] = x[0] / scale_[0];
    for (std::size_t k = 1; k < n; ++k) {
      const Complex c(x[k] / scale_[k], -x[n - k] / scale_[n - k]);
      z[k] = Mul(std::conj(shift_[k]), c);
    }
    fft_.InverseUnscaled(z.data(), scratch.data());
    for (std::size_t m = 0; 2 * m < n; ++m) x[2 * m] = z[m].real() * inv_n;
    for (std::size_t m = 0; 2 * m + 1 < n; ++m) {
      x[2 * m + 1] = z[n - 1 - m].real() * inv_n;
    }
  }
}

}  // namespace milr
