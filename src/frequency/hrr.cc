#include "frequency/hrr.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "common/bit_util.h"
#include "common/check.h"
#include "common/huge_pages.h"
#include "frequency/hadamard.h"
#include "protocol/wire.h"

namespace ldp {

HrrOracle::HrrOracle(uint64_t domain, double eps)
    : FrequencyOracle(domain, eps), padded_(NextPowerOfTwo(domain)) {
  LDP_CHECK_GE(domain, 1u);
  // The absorb's adds, a snapshot's restore and the finalize's load all
  // sweep the sums, so their whole 2 MiB pages are advised for huge
  // pages before the zero-fill first touches them. In place, on the
  // default allocator: freed sums stay plain heap chunks of their own
  // size, which a finalize's estimate vectors reuse warm.
  coefficient_sums_.reserve(padded_);
  AdviseHugePages(coefficient_sums_.data(), padded_ * sizeof(int64_t));
  coefficient_sums_.resize(padded_);
}

double HrrOracle::KeepProbability() const {
  double e = std::exp(eps_);
  return e / (1.0 + e);
}

double HrrOracle::ReportBits() const {
  return static_cast<double>(Log2Ceil(padded_)) + 1.0;
}

double HrrOracle::EstimatorVariance() const {
  if (reports_ == 0) return std::numeric_limits<double>::infinity();
  return HrrExactVariance(eps_, static_cast<double>(reports_));
}

HrrReport HrrEncode(uint64_t padded_domain, double eps, uint64_t value,
                    int sign, Rng& rng) {
  LDP_CHECK(IsPowerOfTwo(padded_domain));
  LDP_CHECK_LT(value, padded_domain);
  LDP_CHECK(sign == 1 || sign == -1);
  HrrReport report;
  report.coefficient_index = rng.UniformInt(padded_domain);
  int coefficient = sign * HadamardSign(value, report.coefficient_index);
  double e = std::exp(eps);
  if (!rng.Bernoulli(e / (1.0 + e))) {
    coefficient = -coefficient;
  }
  report.sign = static_cast<int8_t>(coefficient);
  return report;
}

void HrrOracle::SubmitValue(uint64_t value, Rng& rng) {
  SubmitSignedValue(value, +1, rng);
}

void HrrOracle::SubmitSignedValue(uint64_t value, int sign, Rng& rng) {
  LDP_CHECK_LT(value, domain_);
  AbsorbReport(HrrEncode(padded_, eps_, value, sign, rng));
}

std::vector<double> HrrOracle::EstimateFractions() const {
  if (reports_ == 0) {
    return std::vector<double>(domain_, 0.0);
  }
  // theta_hat[z] = FWHT(O)[z] / (N (2p-1)): the index-sampling factor D and
  // the two 1/sqrt(D) normalizations cancel exactly. One transform loads
  // the sums, decodes and applies the debias factor (frequency/hadamard.h);
  // the padded tail is then cut off (a shrink, never a reallocation).
  // Huge pages are advised as for the sums (see the constructor).
  std::vector<double> est;
  est.reserve(padded_);
  AdviseHugePages(est.data(), padded_ * sizeof(double));
  est.resize(padded_);
  double scale =
      1.0 / (static_cast<double>(reports_) * (2.0 * KeepProbability() - 1.0));
  ScaledWalshHadamard(coefficient_sums_, scale, est);
  est.resize(domain_);
  return est;
}

std::unique_ptr<FrequencyOracle> HrrOracle::CloneEmpty() const {
  return std::make_unique<HrrOracle>(domain_, eps_);
}

void HrrOracle::MergeFrom(const FrequencyOracle& other) {
  CheckMergeCompatible(other);
  const auto* o = dynamic_cast<const HrrOracle*>(&other);
  LDP_CHECK_MSG(o != nullptr, "MergeFrom requires an HrrOracle");
  for (uint64_t j = 0; j < padded_; ++j) {
    coefficient_sums_[j] += o->coefficient_sums_[j];
  }
  reports_ += o->reports_;
}

void HrrOracle::MergeFromShard(HrrOracle& other) {
  // A report-free oracle's sums are all zero (HrrStateDecoder enforces it
  // for restored ones), so adopting other's sums equals adding them.
  if (reports_ != 0) {
    MergeFrom(other);
    return;
  }
  CheckMergeCompatible(other);
  coefficient_sums_.swap(other.coefficient_sums_);
  std::swap(reports_, other.reports_);
}

// The sums are int64_t; the wire carries their two's complement bit
// patterns, which is what a uint64_t view of the same words reads (the
// aliasing rules allow a signed object to be accessed through its
// unsigned counterpart).
void HrrOracle::AppendState(std::vector<uint8_t>& out) const {
  protocol::AppendVarU64(out, reports_);
  protocol::AppendVarU64(out, padded_);
  protocol::AppendU64Array(
      out, std::span<const uint64_t>(
               reinterpret_cast<const uint64_t*>(coefficient_sums_.data()),
               coefficient_sums_.size()));
}

size_t HrrOracle::StateBytes() const {
  return protocol::VarU64Size(reports_) + protocol::VarU64Size(padded_) +
         8 * coefficient_sums_.size();
}

HrrStateSize HrrOracle::StateSizeRange() const {
  const size_t fixed = protocol::VarU64Size(padded_) + 8 * padded_;
  return {fixed + 1, fixed + protocol::kMaxVarU64Bytes};
}

std::vector<const FrequencyOracle*> HrrLevels::Views() const {
  std::vector<const FrequencyOracle*> views;
  views.reserve(levels_.size());
  for (const auto& level : levels_) views.push_back(level.get());
  return views;
}

void HrrLevels::AppendState(std::vector<uint8_t>& out) const {
  protocol::AppendVarU64(out, levels_.size());
  for (const auto& level : levels_) level->AppendState(out);
}

size_t HrrLevels::StateBytes() const {
  size_t bytes = protocol::VarU64Size(levels_.size());
  for (const auto& level : levels_) bytes += level->StateBytes();
  return bytes;
}

HrrStateSize HrrLevels::StateSizeRange() const {
  HrrStateSize size{protocol::VarU64Size(levels_.size()),
                    protocol::VarU64Size(levels_.size())};
  for (const auto& level : levels_) {
    const HrrStateSize record = level->StateSizeRange();
    size.min += record.min;
    size.max += record.max;
  }
  return size;
}

void HrrLevels::MergeFromShard(HrrLevels& other) {
  LDP_CHECK_EQ(levels_.size(), other.levels_.size());
  for (size_t l = 0; l < levels_.size(); ++l) {
    levels_[l]->MergeFromShard(*other.levels_[l]);
  }
}

HrrStateDecoder::HrrStateDecoder(HrrOracle& oracle) : oracles_{&oracle} {
  NextRecord();
}

HrrStateDecoder::HrrStateDecoder(HrrLevels& levels) : field_(Field::kLevels) {
  oracles_.reserve(levels.size());
  for (size_t l = 0; l < levels.size(); ++l) oracles_.push_back(&levels[l]);
}

std::span<uint8_t> HrrStateDecoder::Window() {
  switch (field_) {
    case Field::kLevels:
    case Field::kReports:
    case Field::kPadded:
      return {&varint_byte_, 1};
    case Field::kSums: {
      std::vector<int64_t>& sums = oracles_[record_]->coefficient_sums_;
      auto* bytes = reinterpret_cast<uint8_t*>(sums.data());
      return {bytes + sums_landed_, 8 * sums.size() - sums_landed_};
    }
    case Field::kDone:
    case Field::kFailed:
      break;
  }
  return {};
}

bool HrrStateDecoder::Advance(size_t n) {
  if (field_ == Field::kSums) {
    sums_landed_ += n;
    if (sums_landed_ == 8 * oracles_[record_]->coefficient_sums_.size()) {
      SumsDone();
    }
  } else if (field_ != Field::kDone && field_ != Field::kFailed) {
    switch (protocol::FoldVarU64Byte(varint_byte_, varint_index_, &varint_)) {
      case protocol::VarU64Step::kMore:
        ++varint_index_;
        break;
      case protocol::VarU64Step::kDone:
        VarintDone(std::exchange(varint_, 0));
        varint_index_ = 0;
        break;
      case protocol::VarU64Step::kBad:
        field_ = Field::kFailed;
        break;
    }
  }
  return !failed();
}

bool HrrStateDecoder::Feed(std::span<const uint8_t> bytes) {
  while (!bytes.empty()) {
    const std::span<uint8_t> window = Window();
    if (window.empty()) {
      field_ = Field::kFailed;  // a byte past the end of the body
      return false;
    }
    const size_t n = std::min(window.size(), bytes.size());
    std::memcpy(window.data(), bytes.data(), n);
    if (!Advance(n)) return false;
    bytes = bytes.subspan(n);
  }
  return !failed();
}

void HrrStateDecoder::NextRecord() {
  field_ = record_ < oracles_.size() ? Field::kReports : Field::kDone;
}

void HrrStateDecoder::VarintDone(uint64_t value) {
  switch (field_) {
    case Field::kLevels:
      // A cross-check against the destination's own level count, never
      // an allocation size.
      if (value != oracles_.size()) {
        field_ = Field::kFailed;
        return;
      }
      NextRecord();
      return;
    case Field::kReports:
      reports_ = value;
      field_ = Field::kPadded;
      return;
    case Field::kPadded:
      // Likewise the padded domain: a forged value fails here without
      // touching memory.
      if (value != oracles_[record_]->padded_) {
        field_ = Field::kFailed;
        return;
      }
      field_ = Field::kSums;  // padded >= 1: the array is never empty
      sums_landed_ = 0;
      return;
    default:
      return;
  }
}

void HrrStateDecoder::SumsDone() {
  HrrOracle& oracle = *oracles_[record_];
  std::vector<int64_t>& sums = oracle.coefficient_sums_;
  if constexpr (std::endian::native == std::endian::big) {
    // The words landed in wire (little-endian) order; swap in place.
    auto* bytes = reinterpret_cast<uint8_t*>(sums.data());
    for (size_t j = 0; j < sums.size(); ++j) {
      const uint64_t word = protocol::LoadU64Le(bytes + 8 * j);
      std::memcpy(bytes + 8 * j, &word, sizeof(word));
    }
  }
  // No reports, no aggregate: MergeFromShard relies on it.
  if (reports_ == 0 && std::any_of(sums.begin(), sums.end(),
                                   [](int64_t sum) { return sum != 0; })) {
    field_ = Field::kFailed;
    return;
  }
  oracle.reports_ = reports_;
  ++record_;
  NextRecord();
}

}  // namespace ldp
