// Per-rank straggler detection for synchronous data-parallel training.
//
// In a synchronous step every rank waits for the slowest one, so a single
// persistently slow rank ("straggler" — a thermally throttled GPU, a bad
// NIC, a noisy neighbour) taxes the whole job. The detector keeps a rolling
// window of per-rank step times and flags a rank when its rolling mean sits
// robustly above the fleet: more than `k_mad` median-absolute-deviations
// over the cross-rank median of rolling means, for `persistence`
// consecutive steps, and by at least `min_rel_excess` relative excess (the
// MAD can collapse toward zero on very uniform fleets, so a floor on the
// relative excess keeps micro-jitter from paging).
//
// MAD is used instead of stddev because the statistic must not be dragged
// by the very outlier it is hunting. The defaults are tuned against the
// simulator's lognormal compute jitter (sigma 0.07): at 512 ranks the
// healthy-fleet false-positive rate is zero while a 1.3x perturbed rank is
// flagged within ~window steps.
//
// Cost: the simulator records every step of every simulated point, so a
// step is O(ranks) and allocates nothing. The rolling windows are one flat
// window x ranks ring (every rank is pushed every step, so all ranks share
// its head and count), and both medians are taken by selection in a scratch
// buffer the detector owns.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dlsr::obs {

struct StragglerConfig {
  std::size_t window = 16;       ///< rolling steps per rank
  double k_mad = 6.0;            ///< flag when score = excess/MAD exceeds this
  std::size_t warmup_steps = 8;  ///< steps before any flagging
  std::size_t persistence = 3;   ///< consecutive over-threshold steps to flag
  double min_rel_excess = 0.02;  ///< floor on (mean-median)/median
};

struct StragglerRank {
  std::size_t rank = 0;
  double mean_s = 0.0;    ///< rolling-mean step time at last flag
  double median_s = 0.0;  ///< fleet median of rolling means
  double mad_s = 0.0;     ///< fleet MAD of rolling means
  double score = 0.0;     ///< (mean - median) / MAD at last evaluation
  std::uint64_t flagged_steps = 0;  ///< steps spent above threshold
  std::size_t first_flagged_step = 0;
};

struct StragglerReport {
  std::size_t ranks = 0;
  std::uint64_t steps = 0;
  std::vector<StragglerRank> flagged;  ///< sorted by descending score
  bool clean() const { return flagged.empty(); }
  std::string to_json() const;
};

class StragglerDetector {
 public:
  StragglerDetector(std::size_t num_ranks, StragglerConfig config = {});

  /// Records one synchronous step's per-rank durations (seconds);
  /// `per_rank_s.size()` must equal the construction-time rank count.
  /// Returns the ranks that crossed the persistence threshold on THIS step
  /// (for emitting trace instants exactly once per flag edge). The list is
  /// the detector's own and stays valid until the next record_step().
  const std::vector<std::size_t>& record_step(
      const std::vector<double>& per_rank_s);

  std::size_t num_ranks() const { return ranks_.size(); }
  std::uint64_t steps() const { return steps_; }

  /// Current rolling view: every rank persistently over threshold.
  StragglerReport report() const;

 private:
  struct RankState {
    std::size_t streak = 0;     ///< consecutive over-threshold steps
    bool flagged = false;
    StragglerRank info;
  };

  StragglerConfig config_;
  std::vector<RankState> ranks_;
  /// Rolling step times: `window` rows of one value per rank; row `head_`
  /// is the next to overwrite.
  std::vector<double> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;       ///< filled rows (<= window)
  std::vector<double> sums_;    ///< running sum of each rank's window
  std::vector<double> means_;   ///< rolling mean of each rank, this step
  std::vector<double> scratch_;  ///< selection buffer for median and MAD
  std::vector<std::size_t> newly_flagged_;
  std::uint64_t steps_ = 0;
};

}  // namespace dlsr::obs
