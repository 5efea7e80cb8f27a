// Straightforward reference versions of the HRR decode steps, kept in the
// tests only: the blocked, fused, per-tier and threaded implementations in
// src/ must reproduce them bit for bit.

#ifndef LDPRANGE_TESTS_DECODE_REFERENCE_H_
#define LDPRANGE_TESTS_DECODE_REFERENCE_H_

#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

namespace ldp::testing_reference {

// The textbook one-pass-at-a-time radix-2 fast Walsh–Hadamard transform.
inline void Radix2Fwht(std::vector<double>& data) {
  const size_t n = data.size();
  for (size_t len = 1; len < n; len <<= 1) {
    for (size_t block = 0; block < n; block += len << 1) {
      for (size_t i = block; i < block + len; ++i) {
        double a = data[i];
        double b = data[i + len];
        data[i] = a + b;
        data[i + len] = a - b;
      }
    }
  }
}

// Hay et al.'s two linear consistency passes (core/consistency.h), one
// parent at a time on one thread.
inline void SerialConsistency(std::vector<std::vector<double>>& levels,
                              uint64_t fanout,
                              std::optional<double> root_pin) {
  const size_t height = levels.size() - 1;
  const double b = static_cast<double>(fanout);
  for (size_t l = height; l-- > 0;) {
    double bi_minus1 = std::pow(b, static_cast<double>(height - l));
    double bi = bi_minus1 * b;
    double self_w = (bi - bi_minus1) / (bi - 1.0);
    double child_w = (bi_minus1 - 1.0) / (bi - 1.0);
    for (size_t k = 0; k < levels[l].size(); ++k) {
      double child_sum = 0.0;
      for (uint64_t c = 0; c < fanout; ++c) {
        child_sum += levels[l + 1][k * fanout + c];
      }
      levels[l][k] = self_w * levels[l][k] + child_w * child_sum;
    }
  }
  if (root_pin.has_value()) levels[0][0] = *root_pin;
  for (size_t l = 0; l < height; ++l) {
    for (size_t k = 0; k < levels[l].size(); ++k) {
      double child_sum = 0.0;
      for (uint64_t c = 0; c < fanout; ++c) {
        child_sum += levels[l + 1][k * fanout + c];
      }
      double adjust = (levels[l][k] - child_sum) / b;
      for (uint64_t c = 0; c < fanout; ++c) {
        levels[l + 1][k * fanout + c] += adjust;
      }
    }
  }
}

}  // namespace ldp::testing_reference

#endif  // LDPRANGE_TESTS_DECODE_REFERENCE_H_
