#include "nn/locally_connected.hpp"

#include <cassert>
#include <stdexcept>

#include "nn/kernels.hpp"

namespace flowgen::nn {

LocallyConnected2D::LocallyConnected2D(std::size_t in_h, std::size_t in_w,
                                       std::size_t in_channels,
                                       std::size_t out_channels,
                                       std::size_t kernel_h,
                                       std::size_t kernel_w, util::Rng& rng)
    : in_h_(in_h),
      in_w_(in_w),
      in_ch_(in_channels),
      out_ch_(out_channels),
      kh_(kernel_h),
      kw_(kernel_w),
      oh_(in_h - kernel_h + 1),
      ow_(in_w - kernel_w + 1) {
  if (in_h < kernel_h || in_w < kernel_w) {
    throw std::invalid_argument("LocallyConnected2D: kernel exceeds input");
  }
  const std::size_t patch = kh_ * kw_ * in_ch_;
  weights_ = Tensor({oh_ * ow_, patch, out_ch_});
  grad_weights_ = Tensor({oh_ * ow_, patch, out_ch_});
  bias_ = Tensor({oh_ * ow_, out_ch_});
  grad_bias_ = Tensor({oh_ * ow_, out_ch_});
  weights_.glorot_init(rng, patch, out_ch_);
}

Tensor LocallyConnected2D::forward(const Tensor& input, bool /*training*/) {
  assert(input.rank() == 4 && input.dim(1) == in_h_ &&
         input.dim(2) == in_w_ && input.dim(3) == in_ch_);
  cached_input_ = input;
  const std::size_t n = input.dim(0);
  const std::size_t patch = kh_ * kw_ * in_ch_;

  Tensor out({n, oh_, ow_, out_ch_});
  const double* __restrict in = input.data();
  double* __restrict o = out.data();
  kernels::Nonzeros nz(in_ch_);
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t oy = 0; oy < oh_; ++oy) {
      for (std::size_t ox = 0; ox < ow_; ++ox) {
        const std::size_t pos = oy * ow_ + ox;
        const double* __restrict wpos = weights_.data() + pos * patch * out_ch_;
        double* __restrict orow = o + ((b * oh_ + oy) * ow_ + ox) * out_ch_;
        for (std::size_t ky = 0; ky < kh_; ++ky) {
          for (std::size_t kx = 0; kx < kw_; ++kx) {
            kernels::gemv_acc(
                orow, out_ch_,
                in + ((b * in_h_ + oy + ky) * in_w_ + ox + kx) * in_ch_,
                in_ch_, wpos + (ky * kw_ + kx) * in_ch_ * out_ch_, out_ch_,
                nz);
          }
        }
        const double* __restrict bias = bias_.data() + pos * out_ch_;
        for (std::size_t co = 0; co < out_ch_; ++co) orow[co] += bias[co];
      }
    }
  }
  return out;
}

// Reference order per accumulator: grad_weights_ and grad_bias_ sum over b
// ascending (each output position owns its weights); grad_input sums over
// (oy, ox) in raster order, then co ascending. The (b, oy, ox) loop keeps
// that order; grad_input's co sum is a dot product along contiguous co.
Tensor LocallyConnected2D::backward(const Tensor& grad_output) {
  const Tensor& input = cached_input_;
  const std::size_t n = input.dim(0);
  const std::size_t patch = kh_ * kw_ * in_ch_;

  grad_weights_.zero();
  grad_bias_.zero();
  Tensor grad_input(input.shape());
  const double* __restrict in = input.data();
  const double* __restrict go = grad_output.data();
  double* __restrict gi = grad_input.data();

  // The reference skipped go == 0 terms; add_outer skips x == 0 instead,
  // and the grad_input dot products skip nothing. Either way only +-0 terms
  // differ, and they cannot change a sum that starts at +0 over finite
  // terms (+0 + -0 = +0), so the results are bit-identical.
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t oy = 0; oy < oh_; ++oy) {
      for (std::size_t ox = 0; ox < ow_; ++ox) {
        const std::size_t pos = oy * ow_ + ox;
        const double* __restrict grow =
            go + ((b * oh_ + oy) * ow_ + ox) * out_ch_;
        double* __restrict gb = grad_bias_.data() + pos * out_ch_;
        for (std::size_t co = 0; co < out_ch_; ++co) gb[co] += grow[co];
        const std::size_t wpos = pos * patch * out_ch_;
        for (std::size_t ky = 0; ky < kh_; ++ky) {
          for (std::size_t kx = 0; kx < kw_; ++kx) {
            const std::size_t ipx =
                ((b * in_h_ + oy + ky) * in_w_ + ox + kx) * in_ch_;
            const std::size_t wtap = wpos + (ky * kw_ + kx) * in_ch_ * out_ch_;
            for (std::size_t ci = 0; ci < in_ch_; ++ci) {
              const double* __restrict wrow =
                  weights_.data() + wtap + ci * out_ch_;
              double acc = gi[ipx + ci];
              for (std::size_t co = 0; co < out_ch_; ++co) {
                acc += wrow[co] * grow[co];
              }
              gi[ipx + ci] = acc;
            }
            kernels::add_outer(grad_weights_.data() + wtap, out_ch_,
                               in + ipx, in_ch_, grow, out_ch_);
          }
        }
      }
    }
  }
  return grad_input;
}

}  // namespace flowgen::nn
