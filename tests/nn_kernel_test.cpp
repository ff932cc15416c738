// Exact-bits oracle for the trainable-layer kernels. The reference layers
// below are the original scalar loops (4-index at() on every multiply-add,
// `co` outside `ci`, the go == 0 / x == 0 skips). The production kernels
// reorder loops for contiguous access but promise the same terms in the
// same order for every accumulator, so forward outputs and all gradients
// must match the reference bit for bit (memcmp), not just within a
// tolerance. Inputs carry exact zeros, -0.0 and one-hot rows; upstream
// gradients carry exact zeros, so every skip is exercised.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "nn/conv2d.hpp"
#include "nn/layers.hpp"
#include "nn/locally_connected.hpp"
#include "util/rng.hpp"

namespace flowgen::nn {
namespace {

struct RefGrads {
  Tensor input, weights, bias;
};

// --- reference Conv2D ('same' padding, stride s) -------------------------

Tensor ref_conv_forward(const Tensor& input, const Tensor& weights,
                        const Tensor& bias, std::size_t stride) {
  const std::size_t kh = weights.dim(0), kw = weights.dim(1);
  const std::size_t in_ch = weights.dim(2), out_ch = weights.dim(3);
  const std::size_t n = input.dim(0), h = input.dim(1), w = input.dim(2);
  const std::size_t oh = (h + stride - 1) / stride;
  const std::size_t ow = (w + stride - 1) / stride;
  const std::ptrdiff_t pad_t = static_cast<std::ptrdiff_t>(kh - 1) / 2;
  const std::ptrdiff_t pad_l = static_cast<std::ptrdiff_t>(kw - 1) / 2;
  Tensor out({n, oh, ow, out_ch});
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        for (std::size_t ky = 0; ky < kh; ++ky) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * stride + ky) - pad_t;
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
          for (std::size_t kx = 0; kx < kw; ++kx) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * stride + kx) - pad_l;
            if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
            for (std::size_t ci = 0; ci < in_ch; ++ci) {
              const double x =
                  input.at(b, static_cast<std::size_t>(iy),
                           static_cast<std::size_t>(ix), ci);
              if (x == 0.0) continue;
              for (std::size_t co = 0; co < out_ch; ++co) {
                out.at(b, oy, ox, co) += x * weights.at(ky, kx, ci, co);
              }
            }
          }
        }
        for (std::size_t co = 0; co < out_ch; ++co) {
          out.at(b, oy, ox, co) += bias[co];
        }
      }
    }
  }
  return out;
}

RefGrads ref_conv_backward(const Tensor& input, const Tensor& weights,
                           const Tensor& grad_output, std::size_t stride) {
  const std::size_t kh = weights.dim(0), kw = weights.dim(1);
  const std::size_t in_ch = weights.dim(2), out_ch = weights.dim(3);
  const std::size_t n = input.dim(0), h = input.dim(1), w = input.dim(2);
  const std::size_t oh = grad_output.dim(1), ow = grad_output.dim(2);
  const std::ptrdiff_t pad_t = static_cast<std::ptrdiff_t>(kh - 1) / 2;
  const std::ptrdiff_t pad_l = static_cast<std::ptrdiff_t>(kw - 1) / 2;
  RefGrads g{Tensor(input.shape()), Tensor(weights.shape()),
             Tensor({out_ch})};
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        for (std::size_t co = 0; co < out_ch; ++co) {
          const double go = grad_output.at(b, oy, ox, co);
          if (go == 0.0) continue;
          g.bias[co] += go;
          for (std::size_t ky = 0; ky < kh; ++ky) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy * stride + ky) - pad_t;
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
            for (std::size_t kx = 0; kx < kw; ++kx) {
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(ox * stride + kx) - pad_l;
              if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
              for (std::size_t ci = 0; ci < in_ch; ++ci) {
                const auto uy = static_cast<std::size_t>(iy);
                const auto ux = static_cast<std::size_t>(ix);
                g.weights.at(ky, kx, ci, co) += input.at(b, uy, ux, ci) * go;
                g.input.at(b, uy, ux, ci) += weights.at(ky, kx, ci, co) * go;
              }
            }
          }
        }
      }
    }
  }
  return g;
}

// --- reference LocallyConnected2D ('valid', stride 1) ---------------------

struct LocalGeom {
  std::size_t kh, kw, in_ch, out_ch, oh, ow;
  std::size_t patch() const { return kh * kw * in_ch; }
};

Tensor ref_local_forward(const Tensor& input, const Tensor& weights,
                         const Tensor& bias, const LocalGeom& g) {
  const std::size_t n = input.dim(0);
  Tensor out({n, g.oh, g.ow, g.out_ch});
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t oy = 0; oy < g.oh; ++oy) {
      for (std::size_t ox = 0; ox < g.ow; ++ox) {
        const std::size_t pos = oy * g.ow + ox;
        std::size_t p = 0;
        for (std::size_t ky = 0; ky < g.kh; ++ky) {
          for (std::size_t kx = 0; kx < g.kw; ++kx) {
            for (std::size_t ci = 0; ci < g.in_ch; ++ci, ++p) {
              const double x = input.at(b, oy + ky, ox + kx, ci);
              if (x == 0.0) continue;
              for (std::size_t co = 0; co < g.out_ch; ++co) {
                out.at(b, oy, ox, co) +=
                    x * weights[(pos * g.patch() + p) * g.out_ch + co];
              }
            }
          }
        }
        for (std::size_t co = 0; co < g.out_ch; ++co) {
          out.at(b, oy, ox, co) += bias[pos * g.out_ch + co];
        }
      }
    }
  }
  return out;
}

RefGrads ref_local_backward(const Tensor& input, const Tensor& weights,
                            const Tensor& grad_output, const LocalGeom& g) {
  const std::size_t n = input.dim(0);
  RefGrads r{Tensor(input.shape()), Tensor(weights.shape()),
             Tensor({g.oh * g.ow, g.out_ch})};
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t oy = 0; oy < g.oh; ++oy) {
      for (std::size_t ox = 0; ox < g.ow; ++ox) {
        const std::size_t pos = oy * g.ow + ox;
        for (std::size_t co = 0; co < g.out_ch; ++co) {
          const double go = grad_output.at(b, oy, ox, co);
          if (go == 0.0) continue;
          r.bias[pos * g.out_ch + co] += go;
          std::size_t p = 0;
          for (std::size_t ky = 0; ky < g.kh; ++ky) {
            for (std::size_t kx = 0; kx < g.kw; ++kx) {
              for (std::size_t ci = 0; ci < g.in_ch; ++ci, ++p) {
                r.weights[(pos * g.patch() + p) * g.out_ch + co] +=
                    input.at(b, oy + ky, ox + kx, ci) * go;
                r.input.at(b, oy + ky, ox + kx, ci) +=
                    weights[(pos * g.patch() + p) * g.out_ch + co] * go;
              }
            }
          }
        }
      }
    }
  }
  return r;
}

// --- reference Dense -------------------------------------------------------

Tensor ref_dense_forward(const Tensor& input, const Tensor& weights,
                         const Tensor& bias) {
  const std::size_t n = input.dim(0);
  const std::size_t in = weights.dim(0), out_f = weights.dim(1);
  Tensor out({n, out_f});
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < in; ++k) {
      const double x = input.at(i, k);
      if (x == 0.0) continue;
      for (std::size_t j = 0; j < out_f; ++j) {
        out.at(i, j) += x * weights.at(k, j);
      }
    }
    for (std::size_t j = 0; j < out_f; ++j) out.at(i, j) += bias[j];
  }
  return out;
}

RefGrads ref_dense_backward(const Tensor& input, const Tensor& weights,
                            const Tensor& grad_output) {
  const std::size_t n = input.dim(0);
  const std::size_t in = weights.dim(0), out_f = weights.dim(1);
  RefGrads g{Tensor({n, in}), Tensor(weights.shape()), Tensor({out_f})};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < out_f; ++j) {
      const double go = grad_output.at(i, j);
      g.bias[j] += go;
      for (std::size_t k = 0; k < in; ++k) {
        g.weights.at(k, j) += input.at(i, k) * go;
        g.input.at(i, k) += weights.at(k, j) * go;
      }
    }
  }
  return g;
}

// --- inputs and comparison -------------------------------------------------

/// Normal noise with ~1/4 exact zeros and ~1/8 negative zeros.
Tensor awkward_tensor(const std::vector<std::size_t>& shape, util::Rng& rng) {
  Tensor t(shape);
  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::uint64_t r = rng.below(8);
    t[i] = r < 2 ? 0.0 : r == 2 ? -0.0 : rng.normal();
  }
  return t;
}

/// Rank-4 (N,H,W,C) input whose first image is one-hot along W per row.
Tensor awkward_image(const std::vector<std::size_t>& shape, util::Rng& rng) {
  Tensor t = awkward_tensor(shape, rng);
  const std::size_t h = shape[1], w = shape[2], c = shape[3];
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      for (std::size_t ch = 0; ch < c; ++ch) {
        t.at(0, y, x, ch) = (x == y % w) ? 1.0 : 0.0;
      }
    }
  }
  return t;
}

void expect_bits(const Tensor& got, const Tensor& want, const char* what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
            0)
      << what << " differs from the reference loop order";
}

void check_conv(std::size_t in_ch, std::size_t out_ch, std::size_t kh,
                std::size_t kw, std::size_t stride,
                const std::vector<std::size_t>& in_shape, std::uint64_t seed) {
  util::Rng rng(seed);
  Conv2D layer(in_ch, out_ch, kh, kw, rng, stride);
  // Nonzero bias so the forward bias add is compared too.
  for (std::size_t i = 0; i < layer.params()[1]->size(); ++i) {
    (*layer.params()[1])[i] = rng.normal();
  }
  const Tensor& w = *layer.params()[0];
  const Tensor& bias = *layer.params()[1];
  const Tensor x = awkward_image(in_shape, rng);

  const Tensor out = layer.forward(x, /*training=*/true);
  expect_bits(out, ref_conv_forward(x, w, bias, stride), "Conv2D forward");

  const Tensor go = awkward_tensor(out.shape(), rng);
  const Tensor gi = layer.backward(go);
  const RefGrads ref = ref_conv_backward(x, w, go, stride);
  expect_bits(gi, ref.input, "Conv2D grad_input");
  expect_bits(*layer.grads()[0], ref.weights, "Conv2D grad_weights");
  expect_bits(*layer.grads()[1], ref.bias, "Conv2D grad_bias");
}

TEST(NnKernelTest, Conv2DPaperKernelOnFlowMatrix) {
  // The classifier's first conv: 6x12 kernel over the 12x6 one-hot matrix.
  check_conv(1, 8, 6, 12, 1, {3, 12, 6, 1}, 11);
}

TEST(NnKernelTest, Conv2DPaperKernelOnPooledMatrixMultiChannel) {
  // The classifier's second conv: 6x12 kernel over the 11x5 pooled map.
  // Channel counts above 16 put both the forward and the grad_input sums
  // through the kernels' register-blocked path and its remainder.
  check_conv(20, 19, 6, 12, 1, {3, 11, 5, 20}, 12);
}

TEST(NnKernelTest, Conv2DSquareKernelMultiChannel) {
  check_conv(3, 5, 3, 3, 1, {2, 7, 6, 3}, 13);
  check_conv(17, 12, 3, 3, 1, {2, 7, 6, 17}, 16);
}

TEST(NnKernelTest, Conv2DStride2) {
  check_conv(3, 4, 3, 3, 2, {2, 7, 8, 3}, 14);
  check_conv(2, 3, 6, 12, 2, {2, 12, 6, 2}, 15);
}

TEST(NnKernelTest, LocallyConnected) {
  util::Rng rng(21);
  const std::size_t in_h = 6, in_w = 5, in_ch = 16, out_ch = 12, kh = 3,
                    kw = 2;
  LocallyConnected2D layer(in_h, in_w, in_ch, out_ch, kh, kw, rng);
  for (std::size_t i = 0; i < layer.params()[1]->size(); ++i) {
    (*layer.params()[1])[i] = rng.normal();
  }
  const LocalGeom g{kh, kw, in_ch, out_ch, layer.out_h(), layer.out_w()};
  const Tensor& w = *layer.params()[0];
  const Tensor& bias = *layer.params()[1];
  const Tensor x = awkward_image({3, in_h, in_w, in_ch}, rng);

  const Tensor out = layer.forward(x, true);
  expect_bits(out, ref_local_forward(x, w, bias, g),
              "LocallyConnected2D forward");

  const Tensor go = awkward_tensor(out.shape(), rng);
  const Tensor gi = layer.backward(go);
  const RefGrads ref = ref_local_backward(x, w, go, g);
  expect_bits(gi, ref.input, "LocallyConnected2D grad_input");
  expect_bits(*layer.grads()[0], ref.weights,
              "LocallyConnected2D grad_weights");
  expect_bits(*layer.grads()[1], ref.bias, "LocallyConnected2D grad_bias");
}

TEST(NnKernelTest, Dense) {
  util::Rng rng(31);
  Dense layer(24, 11, rng);
  for (std::size_t i = 0; i < layer.params()[1]->size(); ++i) {
    (*layer.params()[1])[i] = rng.normal();
  }
  Tensor x = awkward_tensor({4, 24}, rng);
  for (std::size_t k = 0; k < 24; ++k) x.at(0, k) = k == 5 ? 1.0 : 0.0;
  const Tensor& w = *layer.params()[0];

  const Tensor out = layer.forward(x, true);
  expect_bits(out, ref_dense_forward(x, w, *layer.params()[1]),
              "Dense forward");

  const Tensor go = awkward_tensor(out.shape(), rng);
  const Tensor gi = layer.backward(go);
  const RefGrads ref = ref_dense_backward(x, w, go);
  expect_bits(gi, ref.input, "Dense grad_input");
  expect_bits(*layer.grads()[0], ref.weights, "Dense grad_weights");
  expect_bits(*layer.grads()[1], ref.bias, "Dense grad_bias");
}

}  // namespace
}  // namespace flowgen::nn
