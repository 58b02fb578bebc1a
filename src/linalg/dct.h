// Fast orthonormal DCT-II / DCT-III of any length, in double precision.
//
// MILR's dense parameter solve uses an orthonormal DCT-II basis as its
// seed-regenerable dummy input rows (milr/algebra.h). Recording the golden
// outputs A·W and recovering W = Aᵀ·Y are therefore a DCT-II and a DCT-III
// per weight column; done through an n-point complex FFT (Makhoul, IEEE
// TASSP 1980) they cost O(n log n) per column instead of O(n²), and no n×n
// matrix is ever formed.
//
// The FFT is mixed-radix with butterflies for radices 2, 3, 4 and 5 (the
// dense input lengths of the models here factor into these), and falls back
// to Bluestein's chirp-z convolution over a power-of-two FFT when n has any
// other prime factor. Everything is computed in double, so the transforms
// are accurate to a few ulps of ‖x‖.
#pragma once

#include <complex>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

namespace milr {

/// Unnormalized complex DFT of a fixed length n:
/// X_k = Σ_j x_j·e^{−2πi·jk/n}. Plans are immutable after construction, so
/// one plan may transform different buffers from several threads at once;
/// each call brings its own scratch of at least scratch_size() values.
class Fft {
 public:
  using Complex = std::complex<double>;

  explicit Fft(std::size_t n);

  std::size_t size() const { return n_; }
  std::size_t scratch_size() const;

  /// In-place forward transform of data[0, n).
  void Forward(Complex* data, Complex* scratch) const;

  /// In-place inverse transform, unscaled: Σ_k X_k·e^{+2πi·jk/n}.
  void InverseUnscaled(Complex* data, Complex* scratch) const;

 private:
  void MixedRadix(Complex* out, const Complex* in, std::size_t in_stride,
                  std::size_t stage) const;
  void Butterfly(Complex* out, std::size_t radix, std::size_t m,
                 std::size_t twiddle_stride) const;
  void Bluestein(Complex* data, Complex* scratch) const;

  std::size_t n_ = 0;
  std::vector<std::size_t> radices_;  // stage radices, product n (mixed radix)
  std::vector<Complex> twiddles_;     // e^{−2πik/n}, k < n
  // Bluestein: power-of-two inner transform, chirp e^{−πik²/n} and the
  // scaled spectrum of the conjugate chirp.
  std::unique_ptr<const Fft> inner_;
  std::vector<Complex> chirp_;
  std::vector<Complex> chirp_spectrum_;
};

/// Orthonormal DCT-II and its inverse (the orthonormal DCT-III) of a fixed
/// length n:
///   DCT-II:  X_k = s_k·Σ_c x_c·cos(π(2c+1)k / 2n),
///   DCT-III: x_c = Σ_k s_k·X_k·cos(π(2c+1)k / 2n),
/// with s_0 = √(1/n) and s_k = √(2/n) otherwise. Thread-safe like Fft.
///
/// Both calls transform every consecutive length-n vector of `data`, whose
/// size must be a multiple of n, each through one complex FFT.
class DctPlan {
 public:
  explicit DctPlan(std::size_t n);

  std::size_t size() const { return fft_.size(); }

  /// In-place DCT-II of each length-n vector in `data`.
  void Dct2(std::span<double> data) const;

  /// In-place DCT-III of each length-n vector in `data`; inverts Dct2.
  void Dct3(std::span<double> data) const;

 private:
  using Complex = Fft::Complex;

  std::size_t CheckedCount(std::span<const double> data) const;

  Fft fft_;
  std::vector<Complex> shift_;  // e^{−iπk/2n}
  std::vector<double> scale_;   // s_k
};

}  // namespace milr
