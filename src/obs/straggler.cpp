#include "obs/straggler.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"

namespace dlsr::obs {

StragglerDetector::StragglerDetector(std::size_t num_ranks,
                                     StragglerConfig config)
    : config_(config) {
  DLSR_CHECK(num_ranks > 0, "StragglerDetector needs at least one rank");
  if (config_.window == 0) {
    config_.window = 1;
  }
  ranks_.resize(num_ranks);
  for (std::size_t r = 0; r < num_ranks; ++r) {
    ranks_[r].info.rank = r;
  }
  ring_.assign(config_.window * num_ranks, 0.0);
  sums_.assign(num_ranks, 0.0);
  means_.assign(num_ranks, 0.0);
  scratch_.assign(num_ranks, 0.0);
  newly_flagged_.reserve(num_ranks);
}

const std::vector<std::size_t>& StragglerDetector::record_step(
    const std::vector<double>& per_rank_s) {
  const std::size_t n = ranks_.size();
  DLSR_CHECK(per_rank_s.size() == n,
             strfmt("record_step: got %zu ranks, expected %zu",
                    per_rank_s.size(), n));
  ++steps_;
  newly_flagged_.clear();

  // Push this step into the rolling ring and refresh rolling means.
  const bool full = count_ == config_.window;
  if (!full) {
    ++count_;
  }
  double* row = ring_.data() + head_ * n;
  const double count = static_cast<double>(count_);
  for (std::size_t r = 0; r < n; ++r) {
    if (full) {
      sums_[r] -= row[r];
    }
    row[r] = per_rank_s[r];
    sums_[r] += per_rank_s[r];
    means_[r] = sums_[r] / count;
  }
  head_ = (head_ + 1) % config_.window;

  if (steps_ < config_.warmup_steps || n < 3) {
    return newly_flagged_;
  }

  // Robust fleet center/spread over rolling means: median and MAD.
  std::copy(means_.begin(), means_.end(), scratch_.begin());
  const double med = percentile_inplace(scratch_, 0.5);
  for (std::size_t r = 0; r < n; ++r) {
    scratch_[r] = std::fabs(means_[r] - med);
  }
  const double mad = percentile_inplace(scratch_, 0.5);

  for (std::size_t r = 0; r < n; ++r) {
    RankState& state = ranks_[r];
    const double excess = means_[r] - med;
    const double rel_excess = med > 0.0 ? excess / med : 0.0;
    const double score = mad > 0.0 ? excess / mad : 0.0;
    const bool over = score > config_.k_mad &&
                      rel_excess > config_.min_rel_excess;
    if (over) {
      ++state.streak;
      state.info.mean_s = means_[r];
      state.info.median_s = med;
      state.info.mad_s = mad;
      state.info.score = score;
      ++state.info.flagged_steps;
      if (!state.flagged && state.streak >= config_.persistence) {
        state.flagged = true;
        state.info.first_flagged_step =
            static_cast<std::size_t>(steps_) - 1;
        newly_flagged_.push_back(r);
      }
    } else {
      state.streak = 0;
      state.flagged = false;
    }
  }
  return newly_flagged_;
}

StragglerReport StragglerDetector::report() const {
  StragglerReport out;
  out.ranks = ranks_.size();
  out.steps = steps_;
  for (const RankState& state : ranks_) {
    if (state.flagged) {
      out.flagged.push_back(state.info);
    }
  }
  std::sort(out.flagged.begin(), out.flagged.end(),
            [](const StragglerRank& a, const StragglerRank& b) {
              return a.score > b.score;
            });
  return out;
}

std::string StragglerReport::to_json() const {
  std::ostringstream os;
  os << strfmt("{\"ranks\":%zu,\"steps\":%llu,\"flagged\":[", ranks,
               static_cast<unsigned long long>(steps));
  bool first = true;
  for (const StragglerRank& r : flagged) {
    os << strfmt(
        "%s{\"rank\":%zu,\"mean_s\":%.6g,\"median_s\":%.6g,"
        "\"mad_s\":%.6g,\"score\":%.3f,\"flagged_steps\":%llu,"
        "\"first_flagged_step\":%zu}",
        first ? "" : ",", r.rank, r.mean_s, r.median_s, r.mad_s, r.score,
        static_cast<unsigned long long>(r.flagged_steps),
        r.first_flagged_step);
    first = false;
  }
  os << "]}";
  return os.str();
}

}  // namespace dlsr::obs
