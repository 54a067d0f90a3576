/**
 * @file
 * @brief Result line of one benchmark phase.
 *
 * Each phase process prints exactly one JSON object as its last stdout line:
 * measured values by metric name, counts of attempted and failed
 * operations, the correctness verdict with its reasons, and free-form run
 * information (profile source, dispatch path mix, sample counts).
 */
#ifndef PERFBENCH_REPORT_HPP_
#define PERFBENCH_REPORT_HPP_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class phase_report {
  public:
    void value(const std::string &name, double v) { values_[name] = v; }
    void info(const std::string &name, double v);
    void info(const std::string &name, const std::string &v);
    /// Count @p n operations, of which @p failed did not produce a correct result.
    void count(const std::size_t n, const std::size_t failed) {
        attempted_ += n;
        failed_ += failed;
    }
    /// Record a failed correctness check; the phase is then not correct.
    void check(bool ok, const std::string &what);

    [[nodiscard]] bool correct() const noexcept { return errors_.empty(); }
    [[nodiscard]] std::string to_json() const;

  private:
    std::map<std::string, double> values_;
    std::map<std::string, std::string> info_;  ///< already JSON-encoded values
    std::size_t attempted_{ 0 };
    std::size_t failed_{ 0 };
    std::vector<std::string> errors_;
};

/// Peak resident set of this process in MB (VmHWM).
[[nodiscard]] double peak_rss_mb();

/// JSON number text: finite values with full precision, null otherwise.
[[nodiscard]] std::string json_number(double v);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_HPP_
