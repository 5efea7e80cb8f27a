#include "eval/experiment.h"

#include <algorithm>
#include <memory>
#include <mutex>

#include "common/check.h"
#include "common/parallel.h"
#include "core/quantile.h"

namespace ldp {

void EncodePopulation(const Dataset& data, RangeMechanism& mechanism,
                      Rng& rng) {
  LDP_CHECK_EQ(data.domain(), mechanism.domain_size());
  // Stream the ascending expansion through the batch path in fixed-size
  // blocks: same value order and Rng draws as one big EncodeUsers call
  // (bit-identical), but O(block) transient memory instead of O(N) — at
  // paper scale (N = 2^26) a full expansion costs 512 MiB per concurrent
  // trial.
  constexpr uint64_t kBlock = uint64_t{1} << 16;
  std::vector<uint64_t> block;
  block.reserve(std::min<uint64_t>(kBlock, data.size()));
  const std::vector<uint64_t>& counts = data.counts();
  for (uint64_t z = 0; z < counts.size(); ++z) {
    uint64_t remaining = counts[z];
    while (remaining > 0) {
      uint64_t take = std::min<uint64_t>(remaining, kBlock - block.size());
      block.insert(block.end(), take, z);
      remaining -= take;
      if (block.size() == kBlock) {
        mechanism.EncodeUsers(block, rng);
        block.clear();
      }
    }
  }
  if (!block.empty()) {
    mechanism.EncodeUsers(block, rng);
  }
}

void EncodePopulationSharded(const Dataset& data, RangeMechanism& mechanism,
                             uint64_t seed, unsigned threads) {
  LDP_CHECK_EQ(data.domain(), mechanism.domain_size());
  std::vector<uint64_t> values = data.ExpandValues();
  EncodePointsSharded(mechanism, values, seed, threads);
}

namespace {

struct TrialOutcome {
  ErrorStat errors;
};

// Ingests the trial population through the batch path: sequential stream
// when config.encode_threads == 1 (bit-identical to the historical
// per-user loop), sharded clones otherwise.
void EncodeTrialPopulation(const ExperimentConfig& config, const Dataset& data,
                           RangeMechanism& mechanism, Rng& rng) {
  if (config.encode_threads == 1) {
    EncodePopulation(data, mechanism, rng);
  } else {
    EncodePopulationSharded(data, mechanism, rng.Next(),
                            config.encode_threads);
  }
}

TrialOutcome RunRangeTrial(const ExperimentConfig& config,
                           const ValueDistribution& distribution,
                           const QueryWorkload& workload, uint64_t seed) {
  Rng rng(seed);
  Dataset data =
      Dataset::FromDistribution(distribution, config.population, rng);
  std::unique_ptr<RangeMechanism> mechanism =
      MakeMechanism(config.method, config.domain, config.epsilon);
  EncodeTrialPopulation(config, data, *mechanism, rng);
  mechanism->Finalize(rng);
  TrialOutcome outcome;
  workload.Visit(config.domain, [&](uint64_t a, uint64_t b) {
    outcome.errors.Add(mechanism->RangeQuery(a, b), data.TrueRange(a, b));
  });
  return outcome;
}

}  // namespace

ExperimentResult RunRangeExperiment(const ExperimentConfig& config,
                                    const ValueDistribution& distribution,
                                    const QueryWorkload& workload) {
  LDP_CHECK_EQ(distribution.domain(), config.domain);
  LDP_CHECK_GE(config.trials, 1u);
  unsigned threads =
      config.threads != 0 ? config.threads : HardwareThreads();
  ExperimentResult result;
  std::mutex mu;
  ParallelFor(config.trials, threads,
              [&](unsigned /*chunk*/, uint64_t begin, uint64_t end) {
                for (uint64_t t = begin; t < end; ++t) {
                  TrialOutcome outcome = RunRangeTrial(
                      config, distribution, workload, config.seed + t);
                  std::lock_guard<std::mutex> lock(mu);
                  result.per_trial_mse.Add(outcome.errors.mse());
                  result.per_trial_mae.Add(outcome.errors.mae());
                  result.pooled.Merge(outcome.errors);
                }
              });
  return result;
}

QuantileExperimentResult RunQuantileExperiment(
    const ExperimentConfig& config, const ValueDistribution& distribution,
    const std::vector<double>& phis) {
  LDP_CHECK_EQ(distribution.domain(), config.domain);
  LDP_CHECK(!phis.empty());
  unsigned threads =
      config.threads != 0 ? config.threads : HardwareThreads();
  QuantileExperimentResult result;
  result.phis = phis;
  result.value_error.resize(phis.size());
  result.quantile_error.resize(phis.size());
  std::mutex mu;
  ParallelFor(config.trials, threads,
              [&](unsigned /*chunk*/, uint64_t begin, uint64_t end) {
                for (uint64_t t = begin; t < end; ++t) {
                  Rng rng(config.seed + t);
                  Dataset data = Dataset::FromDistribution(
                      distribution, config.population, rng);
                  std::unique_ptr<RangeMechanism> mechanism = MakeMechanism(
                      config.method, config.domain, config.epsilon);
                  EncodeTrialPopulation(config, data, *mechanism, rng);
                  mechanism->Finalize(rng);
                  std::vector<double> cdf = data.Cdf();
                  for (size_t i = 0; i < phis.size(); ++i) {
                    QuantileEvaluation eval =
                        EvaluateQuantile(*mechanism, cdf, phis[i]);
                    std::lock_guard<std::mutex> lock(mu);
                    result.value_error[i].Add(eval.value_error);
                    result.quantile_error[i].Add(eval.quantile_error);
                  }
                }
              });
  return result;
}

}  // namespace ldp
