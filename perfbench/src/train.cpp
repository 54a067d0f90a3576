/**
 * @file
 * @brief `train` phase: inputs, repeated fits (train_s) and, traced, the
 *        layered composition of the OpenMP fit.
 */
#include "inputs.hpp"
#include "phases.hpp"
#include "spans.hpp"
#include "stats.hpp"

#include "plssvm/backends/openmp/csvm.hpp"
#include "plssvm/backends/openmp/q_operator.hpp"
#include "plssvm/core/lssvm_math.hpp"
#include "plssvm/core/predict.hpp"
#include "plssvm/ext/multiclass.hpp"
#include "plssvm/serve/calibration.hpp"
#include "plssvm/solver/cg.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#if defined(_OPENMP)
    #include <omp.h>
#endif

namespace perfbench {

namespace {

using plssvm::aos_matrix;
using plssvm::data_set;
using plssvm::model;
using steady = std::chrono::steady_clock;

double seconds_since(const steady::time_point t0) {
    return std::chrono::duration<double>(steady::now() - t0).count();
}

plssvm::parameter rbf_params() {
    plssvm::parameter params;
    params.kernel = plssvm::kernel_type::rbf;
    return params;
}

void set_threads([[maybe_unused]] const std::size_t n) {
#if defined(_OPENMP)
    omp_set_num_threads(static_cast<int>(n));
#endif
}

/// Fit the workload's served models with library defaults and write them.
/// Returns the CG iterations of the binary fit.
std::size_t fit_and_write(const data_set<double> &train, const data_set<double> *mc_train) {
    plssvm::backend::openmp::csvm<double> svm{ rbf_params() };
    const model<double> trained = svm.fit(train);
    trained.save(files::binary_model);
    if (mc_train != nullptr) {
        plssvm::ext::one_vs_all<double> ova{ plssvm::backend_type::openmp, rbf_params() };
        const auto ensemble = ova.fit(*mc_train);
        std::ofstream labels{ files::mc_labels };
        for (std::size_t k = 0; k < ensemble.num_classes(); ++k) {
            ensemble.binary_models()[k].save(files::mc_model(k));
            labels << ensemble.class_labels()[k] << "\n";
        }
    }
    return trained.num_iterations();
}

/// Timing wrapper around the OpenMP implicit Q~ operator: one span per apply.
class timed_operator final : public plssvm::solver::linear_operator<double> {
  public:
    timed_operator(plssvm::backend::openmp::q_operator<double> &inner, span_recorder &spans, const std::size_t parent) :
        inner_{ inner },
        spans_{ spans },
        parent_{ parent } {}

    [[nodiscard]] std::size_t size() const noexcept override { return inner_.size(); }

    void apply(const std::vector<double> &x, std::vector<double> &out) override {
        const std::size_t s = spans_.open("openmp.q_apply", parent_);
        inner_.apply(x, out);
        spans_.close(s);
        ++calls_;
        seconds_ += spans_.spans()[s - 1].seconds();
    }

    [[nodiscard]] std::size_t calls() const noexcept { return calls_; }
    [[nodiscard]] double seconds() const noexcept { return seconds_; }

  private:
    plssvm::backend::openmp::q_operator<double> &inner_;
    span_recorder &spans_;
    std::size_t parent_;
    std::size_t calls_{ 0 };
    double seconds_{ 0.0 };
};

/// Relative L2 distance of two vectors.
double rel_l2(const std::vector<double> &a, const std::vector<double> &b) {
    double num = 0.0;
    double den = 0.0;
    for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
        num += (a[i] - b[i]) * (a[i] - b[i]);
        den += b[i] * b[i];
    }
    return a.size() != b.size() ? INFINITY : std::sqrt(num / std::max(den, 1e-300));
}

/// One fit rebuilt from its layers' public functions, each call wrapped in
/// a span: parse, q_operator set-up, CG over a timing wrapper of the
/// operator, then bias and model assembly.
struct composed_fit {
    span_recorder spans;
    std::size_t fit_span{ 0 };
    model<double> composed;
    std::size_t apply_calls{ 0 };
    double apply_s{ 0.0 };
    std::vector<double> residuals;  ///< relative residual of every CG iteration
    std::size_t cg_iterations{ 0 };  ///< as the CG result reports them
    double layer_sum_s{ 0.0 };       ///< parse + q setup + sum(apply) + CG self + fit other

    [[nodiscard]] double total(const std::string &name) const {
        double sum = 0.0;
        for (const span &s : spans.spans()) {
            sum += s.name == name ? s.seconds() : 0.0;
        }
        return sum;
    }
};

composed_fit compose_fit() {
    composed_fit c;
    span_recorder &spans = c.spans;
    const std::size_t root = spans.open("train.total");
    const std::size_t parse_span = spans.open("io.parse", root);
    const data_set<double> train = data_set<double>::from_libsvm_file(files::train);
    spans.close(parse_span);

    c.fit_span = spans.open("core.fit", root);
    const plssvm::parameter params = rbf_params();
    const std::vector<double> &labels = train.binary_labels();
    const plssvm::kernel_params<double> kp{ params.kernel, params.degree,
                                            static_cast<double>(params.effective_gamma(train.num_features())),
                                            static_cast<double>(params.coef0) };
    const std::vector<double> rhs = plssvm::reduced_rhs(labels);
    const std::size_t setup_span = spans.open("openmp.q_setup", c.fit_span);
    plssvm::backend::openmp::q_operator<double> op{ train.points(), kp, static_cast<double>(params.cost) };
    spans.close(setup_span);
    const std::size_t cg_span = spans.open("solver.cg", c.fit_span);
    timed_operator timed{ op, spans, cg_span };
    std::vector<double> alpha_tilde(op.size(), 0.0);
    // the observer sees every iteration's relative residual
    c.cg_iterations = plssvm::solver::conjugate_gradients(
                          timed, rhs, alpha_tilde, plssvm::solver_control{}, [&](std::size_t, const double rr) { c.residuals.push_back(rr); })
                          .iterations;
    spans.close(cg_span);
    const double bias = plssvm::recover_bias(alpha_tilde, op.q(), op.q_mm(), labels.back());
    std::vector<double> alpha = plssvm::expand_alpha(std::move(alpha_tilde));
    c.composed = model<double>{ params, train.points(), std::move(alpha), -bias, train.distinct_labels()[0], train.distinct_labels()[1] };
    spans.close(c.fit_span);
    spans.close(root);
    c.apply_calls = timed.calls();
    c.apply_s = timed.seconds();
    const std::map<std::string, double> self = self_seconds_by_name(spans.spans());
    c.layer_sum_s = self.at("io.parse") + self.at("openmp.q_setup") + self.at("openmp.q_apply") + self.at("solver.cg") + self.at("core.fit");
    return c;
}

/// Traced run: three composed fits, each right after an untraced parse +
/// `csvm::fit` of the same file; the composition with the median layer sum
/// gives the per-layer numbers and is checked against `fit`'s model.
void traced_composition(const workload_def &w, std::vector<std::size_t> iterations, phase_report &report) {
    std::vector<composed_fit> fits;
    std::vector<double> layer_vs_untraced;
    std::vector<double> overhead;
    model<double> reference_model;
    for (int r = 0; r < 3; ++r) {
        const auto t0 = steady::now();
        const data_set<double> train = data_set<double>::from_libsvm_file(files::train);
        const double parse_s = seconds_since(t0);
        plssvm::backend::openmp::csvm<double> svm{ rbf_params() };
        const auto t1 = steady::now();
        reference_model = svm.fit(train);
        const double fit_s = seconds_since(t1);
        iterations.push_back(reference_model.num_iterations());
        fits.push_back(compose_fit());
        layer_vs_untraced.push_back(fits.back().layer_sum_s / (parse_s + fit_s) - 1.0);
        overhead.push_back(fits.back().spans.spans()[fits.back().fit_span - 1].seconds() / fit_s - 1.0);
    }
    std::vector<std::size_t> order{ 0, 1, 2 };
    std::sort(order.begin(), order.end(), [&](const std::size_t a, const std::size_t b) { return fits[a].layer_sum_s < fits[b].layer_sum_s; });
    const composed_fit &c = fits[order[1]];
    const model<double> &composed = c.composed;

    const std::size_t write_span = fits[order[1]].spans.open("io.model_write");
    composed.save("composed.model");
    fits[order[1]].spans.close(write_span);

    // --- correctness: the composition reproduces fit's model -----------------
    const data_set<double> test = data_set<double>::from_libsvm_file(files::test);
    const std::vector<double> f_ref = plssvm::decision_values(reference_model, test.points());
    const std::vector<double> f_new = plssvm::decision_values(composed, test.points());
    std::size_t label_mismatch = 0;
    for (std::size_t i = 0; i < f_ref.size(); ++i) {
        label_mismatch += (f_ref[i] > 0.0) != (f_new[i] > 0.0) && std::abs(f_ref[i]) > 1e-6;
    }
    const double alpha_diff = rel_l2(composed.alpha(), reference_model.alpha());
    // CG stops at a relative residual of epsilon = 1e-6; two solves whose
    // reductions ran in a different order agree to about that accuracy
    constexpr double composition_tolerance = 1e-3;
    report.check(alpha_diff <= composition_tolerance,
                 "traced composition alpha differs from fit by " + std::to_string(alpha_diff));
    report.check(label_mismatch == 0, "traced composition flips " + std::to_string(label_mismatch) + " test labels");
    report.count(1, alpha_diff <= composition_tolerance && label_mismatch == 0 ? 0 : 1);
    report.info("composition.alpha_rel_l2", alpha_diff);

    // --- per-layer numbers from the spans --------------------------------------
    const std::map<std::string, double> self = self_seconds_by_name(c.spans.spans());
    const double parse_s = c.total("io.parse");
    const double train_bytes = static_cast<double>(std::filesystem::file_size(files::train));
    report.value("io.parse_s", parse_s);
    report.value("io.parse_mb_s", train_bytes / 1e6 / parse_s);
    report.value("io.model_write_s", c.total("io.model_write"));

    const data_set<double> train = data_set<double>::from_libsvm_file(files::train);
    const plssvm::parameter params = rbf_params();
    const plssvm::kernel_params<double> kp{ params.kernel, params.degree,
                                            static_cast<double>(params.effective_gamma(train.num_features())),
                                            static_cast<double>(params.coef0) };
    plssvm::backend::openmp::q_operator<double> op{ train.points(), kp, static_cast<double>(params.cost) };
    const double n = static_cast<double>(op.size());
    const double d = static_cast<double>(train.num_features());
    // operations the implicit product computes per apply (RBF: 3 flops per
    // feature for the squared distance, plus the weighted accumulation) and
    // the compulsory bytes it must read (the point matrix and three vectors)
    const double flops_per_apply = n * n * (3.0 * d + 2.0) + 8.0 * n;
    const double bytes_per_apply = 8.0 * ((n + 1.0) * d + 4.0 * n);
    const double gflops = flops_per_apply * static_cast<double>(c.apply_calls) / c.apply_s * 1e-9;
    const plssvm::sim::host_profile host = plssvm::serve::measure_host_profile();
    const double peak_gflops = host.effective_gflops * static_cast<double>(w.omp_threads);
    const double flop_per_byte = flops_per_apply / bytes_per_apply;
    const double roofline_gflops = std::min(peak_gflops, host.effective_bandwidth_gbs * flop_per_byte);
    report.value("openmp.q_setup_s", c.total("openmp.q_setup"));
    report.value("openmp.q_apply_calls", static_cast<double>(c.apply_calls));
    report.value("openmp.q_apply_s", c.apply_s);
    report.value("openmp.q_apply_gflops", gflops);
    report.value("openmp.q_flop_per_byte", flop_per_byte);
    report.value("openmp.q_apply_roofline_frac", gflops / roofline_gflops);
    report.info("host_profile.gflops_per_thread", host.effective_gflops);
    report.info("host_profile.bandwidth_gbs", host.effective_bandwidth_gbs);

    // single thread vs the workload's OpenMP threads on the same operator
    std::vector<double> x(op.size(), 1e-3);
    std::vector<double> out(op.size());
    const auto time_applies = [&](const std::size_t threads) {
        set_threads(threads);
        std::vector<double> samples;
        for (int r = 0; r < 3; ++r) {
            const auto t0 = steady::now();
            op.apply(x, out);
            samples.push_back(seconds_since(t0));
        }
        set_threads(w.omp_threads);
        return median(samples);
    };
    const double one_thread_s = time_applies(1);
    const double all_threads_s = time_applies(w.omp_threads);
    report.value("openmp.q_apply_speedup", one_thread_s / all_threads_s);

    const double final_residual = c.residuals.empty() ? 1.0 : c.residuals.back();
    for (const composed_fit &f : fits) {
        iterations.push_back(f.residuals.size());
        report.check(f.residuals.size() == f.cg_iterations, "the CG observer saw a different iteration count than the result reports");
    }
    report.value("solver.cg_iterations", static_cast<double>(c.residuals.size()));
    report.value("solver.cg_iterations_min", static_cast<double>(*std::min_element(iterations.begin(), iterations.end())));
    report.value("solver.cg_iterations_max", static_cast<double>(*std::max_element(iterations.begin(), iterations.end())));
    report.value("solver.cg_self_s", self.at("solver.cg"));
    report.value("solver.final_rel_residual", final_residual);
    report.value("solver.decades_per_iter",
                 c.residuals.empty() ? 0.0 : -std::log10(std::max(final_residual, 1e-300)) / static_cast<double>(c.residuals.size()));
    report.value("core.fit_other_s", self.at("core.fit"));

    // layers add up: the median over the three pairs of the layer sum against
    // the untraced parse + fit timed just before it; consecutive fits on a
    // shared host differ by 10 % and more, so one pair alone is no check
    const double residual = std::abs(median(layer_vs_untraced));
    constexpr double layer_sum_tolerance = 0.25;
    report.check(residual <= layer_sum_tolerance, "train layer sum differs from the untraced parse + fit by " + std::to_string(residual));
    report.value("bench.train_layer_residual_frac", residual);
    report.value("bench.train_trace_overhead_frac", median(overhead));
    c.spans.write_jsonl("spans_train.jsonl");
}

}  // namespace

void run_train(const phase_options &opt, phase_report &report) {
    const workload_def &w = *opt.workload;
    write_inputs(w, opt.seed, ".");
    const data_set<double> train = data_set<double>::from_libsvm_file(files::train);
    std::unique_ptr<data_set<double>> mc_train;
    if (w.mc_train_points > 0) {
        mc_train = std::make_unique<data_set<double>>(data_set<double>::from_libsvm_file(files::mc_train));
    }

    // train_s: fit (library-default solver_control) + writing the model
    // file(s), repeated for the phase's share of the measured seconds
    std::vector<double> samples;
    std::vector<std::size_t> iterations;
    const double budget = opt.seconds * w.train_share;
    const auto phase_start = steady::now();
    while (samples.size() < 3 || (seconds_since(phase_start) < budget && samples.size() < 200)) {
        const auto t0 = steady::now();
        iterations.push_back(fit_and_write(train, mc_train.get()));
        samples.push_back(seconds_since(t0));
    }
    report.value("train_s", median(samples));
    report.info("train_s.n", static_cast<double>(samples.size()));
    report.info("train_s.min", *std::min_element(samples.begin(), samples.end()));
    report.info("train_s.max", *std::max_element(samples.begin(), samples.end()));
    {
        std::string all;
        for (const double v : samples) {
            all += std::to_string(v) + " ";
        }
        report.info("train_s.samples", all);
    }
    report.count(samples.size(), 0);

    if (opt.trace) {
        traced_composition(w, iterations, report);
    }
}

}  // namespace perfbench
