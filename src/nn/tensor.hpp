#pragma once
// Dense row-major tensor of doubles, rank <= 4.
//
// Kernel contract for the trainable layers (Conv2D, LocallyConnected2D,
// Dense): inner loops run along a contiguous channel axis on raw pointers
// with offsets hoisted out of them (nn/kernels.hpp), and every accumulator
// receives the same terms in the same order as the plain reference loops
// kept in tests/nn_kernel_test.cpp. Results are bit-identical to those
// loops on any compiler, which that test checks with memcmp. Loop orders
// may change for speed; summation orders may not.

#include <cassert>
#include <cstddef>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace flowgen::nn {

class Tensor {
public:
  Tensor() = default;
  explicit Tensor(std::vector<std::size_t> shape);

  static Tensor zeros(std::vector<std::size_t> shape) {
    return Tensor(std::move(shape));
  }

  const std::vector<std::size_t>& shape() const { return shape_; }
  std::size_t rank() const { return shape_.size(); }
  std::size_t dim(std::size_t i) const { return shape_[i]; }
  std::size_t size() const { return data_.size(); }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  double& operator[](std::size_t i) { return data_[i]; }
  double operator[](std::size_t i) const { return data_[i]; }

  double& at(std::size_t i) { return data_[i]; }
  double& at(std::size_t i, std::size_t j) {
    assert(rank() == 2);
    return data_[i * shape_[1] + j];
  }
  double at(std::size_t i, std::size_t j) const {
    assert(rank() == 2);
    return data_[i * shape_[1] + j];
  }
  double& at(std::size_t i, std::size_t j, std::size_t k, std::size_t l) {
    assert(rank() == 4);
    return data_[((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l];
  }
  double at(std::size_t i, std::size_t j, std::size_t k,
            std::size_t l) const {
    assert(rank() == 4);
    return data_[((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l];
  }

  void fill(double v);
  void zero() { fill(0.0); }

  /// Glorot/Xavier uniform initialisation given fan-in/fan-out.
  void glorot_init(util::Rng& rng, std::size_t fan_in, std::size_t fan_out);

  /// Reshape without copying; the total size must match.
  Tensor reshaped(std::vector<std::size_t> shape) const;

  /// Elementwise in-place helpers used by the optimizers.
  Tensor& operator+=(const Tensor& o);
  Tensor& operator*=(double s);

  std::string shape_string() const;

private:
  std::vector<std::size_t> shape_;
  std::vector<double> data_;
};

}  // namespace flowgen::nn
