/**
 * @file
 * @brief Workload definitions and seeded input generation.
 *
 * Every number that shapes the load is fixed here per workload: data shapes,
 * thread counts (OpenMP, executor, net), offered rates and the goodput
 * ladder. None is derived from a capacity measured in the same run, so two
 * commits receive exactly the same load. The seed only selects the data.
 */
#ifndef PERFBENCH_INPUTS_HPP_
#define PERFBENCH_INPUTS_HPP_

#include "plssvm/core/data_set.hpp"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Share of the request stream sent to one model under one class.
struct traffic_share {
    std::string model;   ///< "binary" or "mc4"
    bool batch_class{ false };
    double share{ 0.0 };
};

struct workload_def {
    std::string name;
    // --- data ---------------------------------------------------------------
    std::size_t train_points{ 0 };  ///< binary model: training points = support vectors
    std::size_t features{ 0 };
    std::size_t test_points{ 0 };
    std::size_t mc_train_points{ 0 };  ///< 4-class one-vs-all model (0 = none)
    std::size_t mc_features{ 0 };      ///< two blocks of mc_features / 2 informative dims
    // --- fixed thread counts --------------------------------------------------
    std::size_t omp_threads{ 4 };
    std::size_t executor_threads{ 4 };
    std::size_t event_threads{ 1 };
    std::size_t completion_threads{ 2 };
    std::size_t connections{ 4 };
    // --- load -------------------------------------------------------------------
    /// setup_s is parsing the training file (the paper's pipeline); otherwise
    /// reading the models and serving the first reply over the wire
    bool setup_is_parse{ false };
    std::vector<traffic_share> mix;
    double nominal_rate{ 0.0 };      ///< req/s of the latency segments
    double latency_limit_s{ 0.0 };   ///< p99 limit of the goodput ladder
    double ladder_lowest{ 0.0 };     ///< req/s of rung 0
    double ladder_step{ 0.03 };      ///< relative rung spacing (finer than the goodput bound)
    std::size_t ladder_rungs{ 0 };
    double reload_interval_s{ 0.0 };  ///< registry.reload period of the binary model (0 = none)
    // --- correctness floors ---------------------------------------------------
    double accuracy_floor{ 0.0 };     ///< binary test accuracy
    double mc_accuracy_floor{ 0.0 };  ///< 4-class test accuracy
    // --- how the measured seconds are split ---------------------------------
    double train_share{ 0.0 };    ///< repeated fits
    double nominal_share{ 0.0 };  ///< latency segments at the nominal rate (rest: goodput ladder)
};

/// The workload called @p name; throws std::invalid_argument if unknown.
[[nodiscard]] const workload_def &find_workload(const std::string &name);

[[nodiscard]] const std::vector<workload_def> &all_workloads();

/// File names inside a run directory.
namespace files {
inline constexpr const char *train = "train.libsvm";
inline constexpr const char *test = "test.libsvm";
inline constexpr const char *mc_train = "mc_train.libsvm";
inline constexpr const char *mc_test = "mc_test.libsvm";
inline constexpr const char *binary_model = "binary.model";
inline constexpr const char *mc_labels = "mc_labels.txt";
[[nodiscard]] std::string mc_model(std::size_t k);
}  // namespace files

/// Binary "planes" train/test sets from `datagen::make_classification`.
[[nodiscard]] plssvm::data_set<double> make_binary(const workload_def &w, std::uint64_t seed, bool test);

/// Four-class set: the product of two independent binary planes problems on
/// disjoint feature blocks, labels 1..4.
[[nodiscard]] plssvm::data_set<double> make_multiclass(const workload_def &w, std::uint64_t seed, bool test);

/// Write every input data file of @p w for @p seed into @p dir (LIBSVM,
/// dense). The same seed always produces byte-identical files.
void write_inputs(const workload_def &w, std::uint64_t seed, const std::string &dir);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_HPP_
