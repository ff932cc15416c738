#pragma once
// The two inner kernels the trainable layers are built from. Both walk
// contiguous rows through raw pointers, and both give every accumulator its
// terms in ascending k, so callers choose the loop order that fixes each
// sum's order and these kernels never reorder it.

#include <cstddef>
#include <vector>

namespace flowgen::nn::kernels {

/// Scratch for gemv_acc: the nonzero entries of its k vector.
struct Nonzeros {
  explicit Nonzeros(std::size_t max_k) : idx(max_k), val(max_k) {}
  std::vector<std::size_t> idx;
  std::vector<double> val;
};

/// acc[j0 + j] += val[t] * m[idx[t] * ld + j0 + j] for j < N, t ascending,
/// with the N accumulators held in registers across the whole term list.
template <std::size_t N>
inline void gemv_block(double* __restrict acc, std::size_t j0,
                       const std::size_t* __restrict idx,
                       const double* __restrict val, std::size_t terms,
                       const double* __restrict m, std::size_t ld) {
  double a[N];
  for (std::size_t j = 0; j < N; ++j) a[j] = acc[j0 + j];
  for (std::size_t t = 0; t < terms; ++t) {
    const double x = val[t];
    const double* __restrict row = m + idx[t] * ld + j0;
    for (std::size_t j = 0; j < N; ++j) a[j] += x * row[j];
  }
  for (std::size_t j = 0; j < N; ++j) acc[j0 + j] = a[j];
}

/// acc[j] += s[k] * m[k * ld + j] for k = 0..k_count ascending, j < len,
/// skipping k where s[k] == 0. The nonzeros are gathered first without a
/// branch (sparse gradients would mispredict one per term). Long term lists
/// then keep accumulators in registers in blocks of 8 across the whole
/// list; short ones (a single-channel input) update a row per term. Either
/// way each accumulator receives its terms one at a time in ascending k.
inline void gemv_acc(double* __restrict acc, std::size_t len,
                     const double* __restrict s, std::size_t k_count,
                     const double* __restrict m, std::size_t ld,
                     Nonzeros& nz) {
  std::size_t* __restrict idx = nz.idx.data();
  double* __restrict val = nz.val.data();
  std::size_t terms = 0;
  for (std::size_t k = 0; k < k_count; ++k) {
    idx[terms] = k;
    val[terms] = s[k];
    terms += s[k] != 0.0;
  }

  if (terms < 8) {
    for (std::size_t t = 0; t < terms; ++t) {
      const double x = val[t];
      const double* __restrict row = m + idx[t] * ld;
      for (std::size_t j = 0; j < len; ++j) acc[j] += x * row[j];
    }
    return;
  }
  std::size_t j0 = 0;
  for (; j0 + 8 <= len; j0 += 8) {
    gemv_block<8>(acc, j0, idx, val, terms, m, ld);
  }
  for (; j0 < len; ++j0) gemv_block<1>(acc, j0, idx, val, terms, m, ld);
}

/// m[r * ld + c] += x[r] * g[c] for r < rows, c < cols: one term per
/// element. Rows with x[r] == 0 are skipped; they would add only +-0, which
/// cannot change a sum that starts at +0 over finite terms (+0 + -0 = +0).
inline void add_outer(double* __restrict m, std::size_t ld,
                      const double* __restrict x, std::size_t rows,
                      const double* __restrict g, std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    double* __restrict row = m + r * ld;
    for (std::size_t c = 0; c < cols; ++c) row[c] += xr * g[c];
  }
}

}  // namespace flowgen::nn::kernels
