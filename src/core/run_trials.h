// Deterministic parallel trial runner.
//
// Every figure/table in the paper averages repeated simulation runs with
// derived seeds. The runs are embarrassingly parallel — each trial owns its
// simulator, RNG streams and scheme state — so this module fans them out
// over the worker pool (core/parallel.h, parallel_for) while keeping
// results (and therefore every aggregate) bit-identical to the serial loop:
// trial i always uses seed config.seed + i, results are collected by index,
// and the aggregation walks them in index order with the same arithmetic.
// `jobs` bounds the total thread count: each trial's island fan-out runs
// within its worker's share, so run_trials(config, 1, J) gives one
// island-sharded run all J threads.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/experiment.h"
#include "core/parallel.h"  // default_jobs

namespace lrs::core {

/// Runs `repeats` independent trials of `config` with derived seeds
/// (config.seed + i) on up to `jobs` threads (0 = default_jobs()).
/// Element i of the result is trial i's outcome regardless of how the
/// trials were scheduled.
std::vector<ExperimentResult> run_trials(const ExperimentConfig& config,
                                         std::size_t repeats,
                                         std::size_t jobs = 0);

/// Folds per-trial results into one averaged ExperimentResult, walking
/// them in index order, so serial and parallel runs agree bitwise.
ExperimentResult aggregate_trials(std::span<const ExperimentResult> trials);

/// Grid runner: out[i] averages `repeats` trials of configs[i]. All
/// (config, trial) pairs share one pool, so a sweep with cheap and
/// expensive points still keeps every thread busy.
std::vector<ExperimentResult> run_experiments_avg(
    std::span<const ExperimentConfig> configs, std::size_t repeats,
    std::size_t jobs = 0);

}  // namespace lrs::core
