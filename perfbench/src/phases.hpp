/**
 * @file
 * @brief The benchmark phases; each runs in its own process from the run
 *        directory and prints one `phase_report` line.
 *
 *  - `train`: generate the seeded inputs, parse the training file, fit and
 *    write the served model(s) repeatedly (train_s); traced: the layered
 *    composition q_operator + conjugate_gradients.
 *  - `setup`: one cold start until the system is ready (setup_s).
 *  - `serve`: open-loop latency segments at the nominal rate, the goodput
 *    ladder, accuracy and reply checks; traced: per-layer serving metrics.
 */
#ifndef PERFBENCH_PHASES_HPP_
#define PERFBENCH_PHASES_HPP_

#include "inputs.hpp"
#include "report.hpp"

#include <cstdint>

namespace perfbench {

struct phase_options {
    const workload_def *workload{ nullptr };
    std::uint64_t seed{ 1 };
    double seconds{ 10.0 };
    bool trace{ false };
};

void run_train(const phase_options &opt, phase_report &report);
void run_setup(const phase_options &opt, phase_report &report);
void run_serve(const phase_options &opt, phase_report &report);

}  // namespace perfbench

#endif  // PERFBENCH_PHASES_HPP_
