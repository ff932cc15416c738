#include "nn/conv2d.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "nn/kernels.hpp"

namespace flowgen::nn {

namespace {

/// The output indices o in [lo, hi) whose tap k lands inside the input:
/// 0 <= o * stride + k - pad < extent.
struct OutRange {
  std::size_t lo, hi;
};

OutRange outputs_hitting(std::size_t k, std::size_t pad, std::size_t stride,
                         std::size_t extent, std::size_t out_extent) {
  const auto s = static_cast<std::ptrdiff_t>(stride);
  const std::ptrdiff_t first =
      static_cast<std::ptrdiff_t>(pad) - static_cast<std::ptrdiff_t>(k);
  const std::ptrdiff_t last = static_cast<std::ptrdiff_t>(extent) - 1 + first;
  if (last < 0) return {0, 0};
  const std::size_t lo =
      first <= 0 ? 0 : static_cast<std::size_t>((first + s - 1) / s);
  const std::size_t hi =
      std::min(out_extent, static_cast<std::size_t>(last / s) + 1);
  return {std::min(lo, hi), hi};
}

}  // namespace

Conv2D::Conv2D(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel_h, std::size_t kernel_w, util::Rng& rng,
               std::size_t stride)
    : in_ch_(in_channels),
      out_ch_(out_channels),
      kh_(kernel_h),
      kw_(kernel_w),
      stride_(stride),
      weights_({kernel_h, kernel_w, in_channels, out_channels}),
      bias_({out_channels}),
      grad_weights_({kernel_h, kernel_w, in_channels, out_channels}),
      grad_bias_({out_channels}) {
  weights_.glorot_init(rng, kernel_h * kernel_w * in_channels,
                       kernel_h * kernel_w * out_channels);
}

// Every output element receives one input pixel per tap, so looping taps
// outermost in raster order gives each element its terms in the reference
// (ky, kx, ci) order while one C_in x C_out weight slice stays in cache.
Tensor Conv2D::forward(const Tensor& input, bool /*training*/) {
  assert(input.rank() == 4 && input.dim(3) == in_ch_);
  cached_input_ = input;
  const std::size_t n = input.dim(0);
  const std::size_t h = input.dim(1);
  const std::size_t w = input.dim(2);
  const std::size_t oh = (h + stride_ - 1) / stride_;
  const std::size_t ow = (w + stride_ - 1) / stride_;
  // 'same' padding: centre the kernel; pad_top/left derived from kernel size.
  const std::size_t pad_t = (kh_ - 1) / 2;
  const std::size_t pad_l = (kw_ - 1) / 2;

  Tensor out({n, oh, ow, out_ch_});
  const double* __restrict in = input.data();
  double* __restrict o = out.data();
  kernels::Nonzeros nz(in_ch_);
  for (std::size_t ky = 0; ky < kh_; ++ky) {
    const OutRange ys = outputs_hitting(ky, pad_t, stride_, h, oh);
    for (std::size_t kx = 0; kx < kw_; ++kx) {
      const OutRange xs = outputs_hitting(kx, pad_l, stride_, w, ow);
      const double* __restrict wtap =
          weights_.data() + (ky * kw_ + kx) * in_ch_ * out_ch_;
      for (std::size_t b = 0; b < n; ++b) {
        for (std::size_t oy = ys.lo; oy < ys.hi; ++oy) {
          const std::size_t iy = oy * stride_ + ky - pad_t;
          for (std::size_t ox = xs.lo; ox < xs.hi; ++ox) {
            const std::size_t ix = ox * stride_ + kx - pad_l;
            kernels::gemv_acc(o + ((b * oh + oy) * ow + ox) * out_ch_,
                              out_ch_, in + ((b * h + iy) * w + ix) * in_ch_,
                              in_ch_, wtap, out_ch_, nz);
          }
        }
      }
    }
  }
  const double* __restrict bias = bias_.data();
  for (std::size_t px = 0; px < n * oh * ow; ++px) {
    double* __restrict orow = o + px * out_ch_;
    for (std::size_t co = 0; co < out_ch_; ++co) orow[co] += bias[co];
  }
  return out;
}

// Reference order per accumulator: grad_weights_ and grad_bias_ sum over
// (b, oy, ox) in raster order; grad_input sums over (oy, ox) in raster
// order, then co ascending. An input pixel meets output (oy, ox) through
// tap ky = iy + pad_t - oy * stride (likewise kx), so raster (oy, ox) is
// descending (ky, kx): looping taps in reverse raster order with (b, oy, ox)
// inside and co innermost reproduces that order, over a transposed
// C_out x C_in copy of the current tap's weights so the inner loop runs
// along contiguous ci.
Tensor Conv2D::backward(const Tensor& grad_output) {
  const Tensor& input = cached_input_;
  const std::size_t n = input.dim(0);
  const std::size_t h = input.dim(1);
  const std::size_t w = input.dim(2);
  const std::size_t oh = grad_output.dim(1);
  const std::size_t ow = grad_output.dim(2);
  const std::size_t pad_t = (kh_ - 1) / 2;
  const std::size_t pad_l = (kw_ - 1) / 2;

  grad_weights_.zero();
  grad_bias_.zero();
  Tensor grad_input(input.shape());
  const double* __restrict in = input.data();
  const double* __restrict go = grad_output.data();
  double* __restrict gi = grad_input.data();

  // The reference skipped go == 0 terms here and in the weight gradient,
  // where add_outer skips x == 0 instead. Either way only +-0 terms differ,
  // and they cannot change a sum that starts at +0 over finite terms
  // (+0 + -0 = +0), so the results are bit-identical.
  double* __restrict gb = grad_bias_.data();
  for (std::size_t px = 0; px < n * oh * ow; ++px) {
    const double* __restrict grow = go + px * out_ch_;
    for (std::size_t co = 0; co < out_ch_; ++co) gb[co] += grow[co];
  }

  std::vector<double> wt(in_ch_ * out_ch_);
  double* __restrict wtap_t = wt.data();
  kernels::Nonzeros nz(out_ch_);
  for (std::size_t ky = kh_; ky-- > 0;) {
    const OutRange ys = outputs_hitting(ky, pad_t, stride_, h, oh);
    for (std::size_t kx = kw_; kx-- > 0;) {
      const OutRange xs = outputs_hitting(kx, pad_l, stride_, w, ow);
      if (ys.lo == ys.hi || xs.lo == xs.hi) continue;
      const std::size_t tap = (ky * kw_ + kx) * in_ch_ * out_ch_;
      const double* __restrict wtap = weights_.data() + tap;
      double* __restrict gwtap = grad_weights_.data() + tap;
      for (std::size_t ci = 0; ci < in_ch_; ++ci) {
        for (std::size_t co = 0; co < out_ch_; ++co) {
          wtap_t[co * in_ch_ + ci] = wtap[ci * out_ch_ + co];
        }
      }
      for (std::size_t b = 0; b < n; ++b) {
        for (std::size_t oy = ys.lo; oy < ys.hi; ++oy) {
          const std::size_t iy = oy * stride_ + ky - pad_t;
          for (std::size_t ox = xs.lo; ox < xs.hi; ++ox) {
            const std::size_t ix = ox * stride_ + kx - pad_l;
            const std::size_t ipx = ((b * h + iy) * w + ix) * in_ch_;
            const double* __restrict grow =
                go + ((b * oh + oy) * ow + ox) * out_ch_;
            kernels::add_outer(gwtap, out_ch_, in + ipx, in_ch_, grow,
                               out_ch_);
            kernels::gemv_acc(gi + ipx, in_ch_, grow, out_ch_, wtap_t,
                              in_ch_, nz);
          }
        }
      }
    }
  }
  return grad_input;
}

}  // namespace flowgen::nn
