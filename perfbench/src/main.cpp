/**
 * @file
 * @brief Phase runner of the repository benchmark (driven by `run.py`).
 *
 * Usage: perfbench <train|setup|serve|inputs> --workload <name> --seed <n>
 *                  --seconds <s> --trace <0|1>
 * Runs in the current directory, which holds the run's inputs and outputs,
 * and prints one JSON result line.
 */
#include "inputs.hpp"
#include "phases.hpp"
#include "report.hpp"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#if defined(_OPENMP)
    #include <omp.h>
#endif

int main(int argc, char **argv) {
    if (argc < 2) {
        std::cerr << "usage: perfbench <train|setup|serve|inputs> --workload <name> --seed <n> --seconds <s> --trace <0|1>\n";
        return 2;
    }
    const std::string phase = argv[1];
    perfbench::phase_options opt;
    try {
        std::string workload;
        for (int i = 2; i + 1 < argc; i += 2) {
            const std::string key = argv[i];
            const std::string value = argv[i + 1];
            if (key == "--workload") {
                workload = value;
            } else if (key == "--seed") {
                opt.seed = std::stoull(value);
            } else if (key == "--seconds") {
                opt.seconds = std::stod(value);
            } else if (key == "--trace") {
                opt.trace = value == "1";
            } else {
                throw std::invalid_argument{ "unknown option " + key };
            }
        }
        opt.workload = &perfbench::find_workload(workload);
        // the host-profile calibration would read a profile file from the
        // working directory; the run directory must not hold one
        if (std::filesystem::exists("BENCH_serve.json")) {
            throw std::runtime_error{ "the run directory holds a BENCH_serve.json (hidden input)" };
        }
#if defined(_OPENMP)
        omp_set_dynamic(0);
        omp_set_num_threads(static_cast<int>(opt.workload->omp_threads));
#endif
        perfbench::phase_report report;
        if (phase == "inputs") {
            perfbench::write_inputs(*opt.workload, opt.seed, ".");
        } else if (phase == "train") {
            perfbench::run_train(opt, report);
        } else if (phase == "setup") {
            perfbench::run_setup(opt, report);
        } else if (phase == "serve") {
            perfbench::run_serve(opt, report);
        } else {
            throw std::invalid_argument{ "unknown phase " + phase };
        }
        if (phase != "serve") {
            report.value("peak_rss_mb", perfbench::peak_rss_mb());
        }
        std::cout << report.to_json() << std::endl;
        return report.correct() ? 0 : 3;
    } catch (const std::exception &e) {
        std::cerr << "perfbench " << phase << ": " << e.what() << "\n";
        return 1;
    }
}
