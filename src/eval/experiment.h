// End-to-end experiment runner (paper Section 5 methodology).
//
// One *trial* is a full protocol simulation: sample a fresh population from
// the input distribution, run every user's client-side encoder, finalize the
// aggregator, then score a query workload against ground truth. Experiments
// repeat trials with independent seeds and report the mean and standard
// deviation of the per-trial MSE — exactly how the paper's bars and tables
// are produced ("each bar plot is the mean of 5 repetitions ... error bars
// capture the observed standard deviation").

#ifndef LDPRANGE_EVAL_EXPERIMENT_H_
#define LDPRANGE_EVAL_EXPERIMENT_H_

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "core/method.h"
#include "data/dataset.h"
#include "data/distributions.h"
#include "data/workload.h"

namespace ldp {

/// Parameters of one experiment cell.
struct ExperimentConfig {
  uint64_t domain = 256;           ///< D
  uint64_t population = 1 << 20;   ///< N
  double epsilon = 1.1;            ///< the paper's default e^eps = 3
  MethodSpec method;               ///< which mechanism to run
  uint64_t trials = 5;             ///< repetitions (paper: 5)
  uint64_t seed = 42;              ///< master seed; trial t uses seed + t
  unsigned threads = 0;            ///< 0 = one thread per hardware core
  /// Worker threads for ingestion *within* one trial (EncodePointsSharded).
  /// 1 (default) keeps the sequential single-Rng stream — bit-identical to
  /// the historical per-user path; >1 (or 0 = hardware threads) shards the
  /// user stream across clones, useful when trials alone cannot saturate
  /// the machine (few trials, huge N).
  unsigned encode_threads = 1;
};

/// Aggregated outcome over all trials.
struct ExperimentResult {
  /// Distribution of per-trial MSE values (the paper's bar + error bar).
  RunningStat per_trial_mse;
  /// Distribution of per-trial mean absolute error.
  RunningStat per_trial_mae;
  /// Pooled per-query error stats across every query of every trial.
  ErrorStat pooled;

  double mean_mse() const { return per_trial_mse.mean(); }
  double stddev_mse() const { return per_trial_mse.sample_stddev(); }
};

/// Per-quantile outcome of a quantile experiment (paper Figure 9).
struct QuantileExperimentResult {
  std::vector<double> phis;
  /// value_error[i]: |returned item - true item| stats across trials.
  std::vector<RunningStat> value_error;
  /// quantile_error[i]: |CDF(returned) - phi| stats across trials.
  std::vector<RunningStat> quantile_error;
};

/// Runs the range-query experiment described by `config` over `workload`.
ExperimentResult RunRangeExperiment(const ExperimentConfig& config,
                                    const ValueDistribution& distribution,
                                    const QueryWorkload& workload);

/// Runs the quantile experiment for the given quantile fractions.
QuantileExperimentResult RunQuantileExperiment(
    const ExperimentConfig& config, const ValueDistribution& distribution,
    const std::vector<double>& phis);

/// Feeds every user of `data` through the mechanism's client-side encoder
/// via the batched EncodeUsers path (one sequential Rng stream — the draws
/// are bit-identical to the historical per-user loop). Exposed for examples
/// and tests building custom pipelines.
void EncodePopulation(const Dataset& data, RangeMechanism& mechanism,
                      Rng& rng);

/// Sharded variant: splits the population across up to `threads` mechanism
/// clones (0 = one per hardware core) with deterministic per-chunk Rng
/// streams derived from `seed`; see EncodePointsSharded for the
/// determinism contract.
void EncodePopulationSharded(const Dataset& data, RangeMechanism& mechanism,
                             uint64_t seed, unsigned threads = 0);

}  // namespace ldp

#endif  // LDPRANGE_EVAL_EXPERIMENT_H_
