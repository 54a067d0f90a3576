/**
 * @file
 * @brief Sample statistics of the benchmark: percentiles with the sample-count
 *        rule, medians over repeats, and the goodput ladder search.
 *
 * Percentile rule: a percentile q is only reported when at least
 * `min_beyond` (10) samples lie beyond it, i.e. n * (1 - q) >= 10, so a p99
 * needs n >= 1000. Below that the tail is one or two samples and moves with
 * every run.
 */
#ifndef PERFBENCH_STATS_HPP_
#define PERFBENCH_STATS_HPP_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

namespace perfbench {

/// Samples that must lie beyond a percentile for it to be reported.
inline constexpr std::size_t min_beyond = 10;

/// Samples strictly needed beyond the q-th quantile of n samples.
[[nodiscard]] inline double samples_beyond(const std::size_t n, const double q) noexcept {
    return static_cast<double>(n) * (1.0 - q);
}

/// True iff the q-quantile of n samples may be reported.
[[nodiscard]] inline bool percentile_supported(const std::size_t n, const double q) noexcept {
    return n > 0 && samples_beyond(n, q) + 1e-9 >= static_cast<double>(min_beyond);
}

/// Nearest-rank q-quantile of @p samples (copied and sorted); NaN when empty.
/// Infinite samples (failed requests) sort last, so they count as misses.
[[nodiscard]] inline double quantile(std::vector<double> samples, const double q) {
    if (samples.empty()) {
        return std::numeric_limits<double>::quiet_NaN();
    }
    std::sort(samples.begin(), samples.end());
    const double rank = std::ceil(q * static_cast<double>(samples.size()));
    const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return samples[std::min(index, samples.size() - 1)];
}

/// The q-quantile when the sample-count rule allows it, otherwise nullopt.
[[nodiscard]] inline std::optional<double> reported_quantile(const std::vector<double> &samples, const double q) {
    if (!percentile_supported(samples.size(), q)) {
        return std::nullopt;
    }
    return quantile(samples, q);
}

[[nodiscard]] inline double median(const std::vector<double> &samples) {
    if (samples.empty()) {
        return std::numeric_limits<double>::quiet_NaN();
    }
    std::vector<double> s = samples;
    std::sort(s.begin(), s.end());
    const std::size_t n = s.size();
    return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

/// Fixed geometric rate ladder: @p lowest * (1 + step)^k for k = 0 .. count-1.
[[nodiscard]] inline std::vector<double> rate_ladder(const double lowest, const double step, const std::size_t count) {
    std::vector<double> rates(count);
    for (std::size_t k = 0; k < count; ++k) {
        rates[k] = lowest * std::pow(1.0 + step, static_cast<double>(k));
    }
    return rates;
}

/// Outcome of one ladder probe at a fixed offered rate.
struct probe_outcome {
    /// Latency of every attempted request of the probe in seconds; failed,
    /// shed, lost or wrong answers are +infinity (they miss any limit).
    std::vector<double> latencies;
    /// The backlog kept growing (or the generator could not offer the rate).
    bool backlog_growing{ false };
};

/// A probe passes when its pooled p99 is reportable and within
/// @p limit_seconds and its backlog did not grow. Failures sort last, so a
/// probe with more than 1 % failed requests never passes.
[[nodiscard]] inline bool probe_passes(const probe_outcome &outcome, const double limit_seconds) {
    if (outcome.backlog_growing) {
        return false;
    }
    const std::optional<double> p99 = reported_quantile(outcome.latencies, 0.99);
    return p99.has_value() && *p99 <= limit_seconds;
}

struct goodput_result {
    double rate{ 0.0 };           ///< highest passing ladder rate (0 if none)
    std::size_t index{ 0 };       ///< its ladder index
    bool found{ false };          ///< some rung passed
    std::size_t probes{ 0 };      ///< probes run by the search
};

/**
 * @brief Highest rung of @p ladder that passes, by binary search over the
 *        rung index (latency grows with offered load, so pass/fail is
 *        assumed monotone in the rate).
 *
 * A rung fails only if a second probe at it fails too: a stall of the host
 * during one probe must not cut the search into the lower half.
 * @param probe runs the system at one rate and returns its outcome
 */
[[nodiscard]] inline goodput_result goodput_search(const std::vector<double> &ladder, const double limit_seconds,
                                                   const std::function<probe_outcome(double)> &probe) {
    goodput_result result;
    std::size_t lo = 0;              // candidate rungs [lo, hi)
    std::size_t hi = ladder.size();
    const auto passes = [&](const double rate) {
        ++result.probes;
        return probe_passes(probe(rate), limit_seconds);
    };
    while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (passes(ladder[mid]) || passes(ladder[mid])) {
            result.found = true;
            result.index = mid;
            result.rate = ladder[mid];
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    return result;
}

/**
 * @brief Median rate of several independent searches of the same ladder.
 *
 * One search is a chain of pass/fail decisions, and one wrong decision near
 * its top (a probe during a stall of the host, twice) moves it by several
 * rungs; the median of independent searches is steady against that.
 * Searches that found no passing rung count as rate 0.
 */
[[nodiscard]] inline double median_goodput(const std::vector<goodput_result> &searches) {
    std::vector<double> rates;
    for (const goodput_result &r : searches) {
        rates.push_back(r.found ? r.rate : 0.0);
    }
    return median(rates);
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_HPP_
