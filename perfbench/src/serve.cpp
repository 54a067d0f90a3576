/**
 * @file
 * @brief `setup` and `serve` phases: cold start to the first correct reply,
 *        open-loop latency segments, the goodput ladder and, traced, the
 *        per-layer serving metrics.
 */
#include "inputs.hpp"
#include "loadgen.hpp"
#include "phases.hpp"
#include "spans.hpp"
#include "stats.hpp"

#include "plssvm/core/model.hpp"
#include "plssvm/ext/multiclass.hpp"
#include "plssvm/serve/compiled_model.hpp"
#include "plssvm/serve/executor.hpp"
#include "plssvm/serve/model_registry.hpp"
#include "plssvm/serve/net/framing.hpp"
#include "plssvm/serve/net/protocol.hpp"
#include "plssvm/serve/net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

namespace sv = plssvm::serve;
namespace svn = plssvm::serve::net;
using plssvm::aos_matrix;
using plssvm::data_set;
using plssvm::model;

constexpr double inf = std::numeric_limits<double>::infinity();
/// A binary reply may take either label when the reference decision value is
/// this close to zero (host paths differ in the last bits).
constexpr double tie_tolerance = 1e-9;
/// Independent goodput ladder searches per run; goodput is their median.
constexpr std::size_t goodput_searches = 3;
/// Largest median share of a traced wire request's latency that may lie
/// outside the server's stamps.
constexpr double max_wire_residual_share = 0.5;

double seconds_since(const clock_type::time_point t0) {
    return std::chrono::duration<double>(clock_type::now() - t0).count();
}

// ---------------------------------------------------------------------------
// served models and their reference answers
// ---------------------------------------------------------------------------

struct served_models {
    model<double> binary;
    std::optional<plssvm::ext::multiclass_model<double>> mc;
};

served_models read_models(const workload_def &w) {
    served_models m{ model<double>::load(files::binary_model), std::nullopt };
    if (w.mc_train_points > 0) {
        std::vector<double> labels;
        std::ifstream in{ files::mc_labels };
        double label = 0.0;
        while (in >> label) {
            labels.push_back(label);
        }
        std::vector<model<double>> models;
        for (std::size_t k = 0; k < labels.size(); ++k) {
            models.push_back(model<double>::load(files::mc_model(k)));
        }
        m.mc = plssvm::ext::multiclass_model<double>{ std::move(labels), std::move(models) };
    }
    return m;
}

/// The requests' points, their ground truth and the in-process reference.
struct test_inputs {
    data_set<double> binary;
    std::vector<double> binary_decision;  ///< in-process decision values
    std::optional<data_set<double>> mc;
    std::vector<double> mc_label;  ///< `one_vs_all::predict`

    [[nodiscard]] const aos_matrix<double> &points(const target t) const { return t == target::mc4 ? mc->points() : binary.points(); }

    [[nodiscard]] bool reply_matches(const schedule_item &r, const double reply) const {
        if (r.model == target::mc4) {
            return reply == mc_label[r.row];
        }
        const double f = binary_decision[r.row];
        return std::abs(f) < tie_tolerance || (reply > 0.0) == (f > 0.0);
    }

    [[nodiscard]] bool reply_true(const schedule_item &r, const double reply) const {
        return reply == (r.model == target::mc4 ? mc->labels()[r.row] : binary.labels()[r.row]);
    }
};

test_inputs make_test_inputs(const workload_def &w, const served_models &m) {
    test_inputs t{ data_set<double>::from_libsvm_file(files::test, w.features), {}, std::nullopt, {} };
    // labels in the model's domain: +1 / -1 map onto the decision sign
    t.binary_decision = sv::compiled_model<double>{ m.binary }.decision_values(t.binary.points());
    for (double &f : t.binary_decision) {
        f *= m.binary.positive_label() > 0 ? 1.0 : -1.0;
    }
    if (m.mc.has_value()) {
        t.mc.emplace(data_set<double>::from_libsvm_file(files::mc_test, w.mc_features));
        plssvm::ext::one_vs_all<double> ova{ plssvm::backend_type::openmp, m.mc->binary_models()[0].params() };
        t.mc_label = ova.predict(*m.mc, *t.mc);
    }
    return t;
}

// ---------------------------------------------------------------------------
// the system under test
// ---------------------------------------------------------------------------

/// Host profile the serve phase pins for the predict dispatcher: the median
/// of the in-process calibration over ten runs on a 4-vCPU x86 virtual
/// machine. The calibration itself measures for a few milliseconds and read
/// 3.8 to 9.9 GFLOP/s per thread there, which moved large batches between the
/// reference and blocked paths and made capacity bimodal.
constexpr plssvm::sim::host_profile pinned_host_profile{ 6.8, 6.3, 0, 0.85 };

/// Wire system: executor -> registry -> net server (destroyed in reverse).
struct wire_system {
    /// @param pin_profile dispatch on `pinned_host_profile` instead of the
    ///        engine's calibration (the setup phase keeps the calibration: its
    ///        cost is part of the time until the system is ready)
    wire_system(const workload_def &w, const served_models &m, const bool trace, const bool pin_profile) :
        exec{ w.executor_threads },
        registry{ 4, engine_config(trace, pin_profile) } {
        binary = registry.load("binary", m.binary);
        if (m.mc.has_value()) {
            mc = registry.load("mc4", *m.mc);
        }
        svn::net_server_config cfg;
        cfg.event_threads = w.event_threads;
        cfg.completion_threads = w.completion_threads;
        server = std::make_unique<svn::net_server>(cfg, std::make_shared<svn::registry_dispatcher<double>>(registry));
    }

    sv::engine_config engine_config(const bool trace, const bool pin_profile) {
        sv::engine_config cfg;
        cfg.exec = &exec;
        if (pin_profile) {
            cfg.dispatch.host = pinned_host_profile;
        }
        if (trace) {
            // retain every wire trace of a traced segment for the join
            cfg.obs.flight_recorder_capacity = std::size_t{ 1 } << 16;
        }
        return cfg;
    }

    sv::executor exec;
    sv::model_registry<double> registry;
    std::shared_ptr<sv::inference_engine<double>> binary;
    std::shared_ptr<sv::multiclass_engine<double>> mc;
    std::unique_ptr<svn::net_server> server;
};

int connect_loopback(const std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        throw std::runtime_error{ "socket() failed" };
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr), sizeof(addr)) != 0) {
        ::close(fd);
        throw std::runtime_error{ "connect() to the loopback server failed" };
    }
    const int one = 1;
    (void) ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
}

bool write_all(const int fd, const std::string &data) {
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
        if (n < 0 && errno == EINTR) {
            continue;
        }
        if (n <= 0) {
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

std::string encode_request(const std::uint64_t id, const schedule_item &r, const test_inputs &t, const bool trace_id) {
    svn::net_request req;
    req.id = id;
    req.model = r.model == target::mc4 ? "mc4" : "binary";
    req.cls = r.batch_class ? sv::request_class::batch : sv::request_class::interactive;
    req.trace_id = trace_id ? id : 0;
    const double *row = t.points(r.model).row_data(r.row);
    req.dense.assign(row, row + t.points(r.model).num_cols());
    return svn::encode_frame(svn::frame_type::request, svn::encode_request_binary(req));
}

// ---------------------------------------------------------------------------
// sinks
// ---------------------------------------------------------------------------

/// Loopback binary frames over <= `connections` sockets; one reader thread.
class wire_sink final : public request_sink {
  public:
    wire_sink(const std::uint16_t port, const std::size_t connections, const test_inputs &t) :
        tests_{ t } {
        for (std::size_t c = 0; c < connections; ++c) {
            fds_.push_back(connect_loopback(port));
        }
    }
    ~wire_sink() override {
        for (const int fd : fds_) {
            ::close(fd);
        }
    }

    bool trace_ids{ false };
    [[nodiscard]] std::uint64_t id_base() const noexcept { return base_; }

    void begin(segment_record &record) override {
        record_ = &record;
        reset_answered();
        base_ = next_base_;
        next_base_ += record.schedule.size() + 1;
        frames_.clear();
        frames_.reserve(record.schedule.size());
        for (std::size_t i = 0; i < record.schedule.size(); ++i) {
            frames_.push_back(encode_request(base_ + i, record.schedule[i], tests_, trace_ids));
        }
        stop_.store(false);
        reader_ = std::thread{ [this]() { read_loop(); } };
    }

    /// A request whose write fails is never answered, so it counts as lost.
    void send(const std::size_t i) override { (void) write_all(fds_[i % fds_.size()], frames_[i]); }

    void end(const clock_type::time_point deadline) override {
        while (answered() < record_->schedule.size() && clock_type::now() < deadline) {
            std::this_thread::sleep_for(std::chrono::milliseconds{ 1 });
        }
        stop_.store(true);
        reader_.join();
    }

  private:
    void read_loop() {
        std::vector<pollfd> polls;
        std::vector<svn::frame_decoder> decoders(fds_.size());
        for (const int fd : fds_) {
            polls.push_back(pollfd{ fd, POLLIN, 0 });
        }
        std::string payload;
        char buf[65536];
        const std::size_t n = record_->schedule.size();
        while (!stop_.load() && answered() < n) {
            if (::poll(polls.data(), polls.size(), 5) <= 0) {
                continue;
            }
            for (std::size_t c = 0; c < polls.size(); ++c) {
                if ((polls[c].revents & POLLIN) == 0) {
                    continue;
                }
                const ssize_t got = ::read(polls[c].fd, buf, sizeof(buf));
                if (got <= 0) {
                    continue;
                }
                decoders[c].append(buf, static_cast<std::size_t>(got));
                while (decoders[c].next(payload) == svn::frame_decoder::status::frame) {
                    svn::net_response resp;
                    if (svn::decode_response_binary(payload, resp).has_value() || resp.id < base_ || resp.id - base_ >= n) {
                        continue;  // undecodable, or a late answer of an earlier segment
                    }
                    settle(*record_, resp.id - base_, resp.value, resp.status == svn::response_status::ok);
                }
            }
        }
    }

    const test_inputs &tests_;
    std::vector<int> fds_;
    std::vector<std::string> frames_;
    segment_record *record_{ nullptr };
    std::uint64_t base_{ 1 };
    std::uint64_t next_base_{ 1 };
    std::atomic<bool> stop_{ false };
    std::thread reader_;
};

/**
 * @brief In-process `submit` into the same engines.
 *
 * Each request stream (model and class) has its own FIFO of futures and one
 * waiter thread that settles them as they become ready. A stream's requests
 * complete in about the order they were submitted (its batches are sealed
 * in order), so a ready future does not wait behind a slower one of another
 * class or model, and each answer is stamped when it is ready.
 */
class engine_sink final : public request_sink {
  public:
    engine_sink(wire_system &sys, const test_inputs &t, const workload_def &w) :
        sys_{ sys },
        tests_{ t } {
        for (const traffic_share &share : w.mix) {
            streams_[stream_of(share.model == "mc4" ? target::mc4 : target::binary, share.batch_class)].used = true;
        }
    }

    void begin(segment_record &record) override {
        record_ = &record;
        reset_answered();
        for (stream &st : streams_) {
            st.stop = false;
            if (st.used) {
                st.waiter = std::thread{ [this, &st]() { wait_loop(st); } };
            }
        }
    }

    void send(const std::size_t i) override {
        const schedule_item &r = record_->schedule[i];
        const aos_matrix<double> &points = tests_.points(r.model);
        std::vector<double> point(points.row_data(r.row), points.row_data(r.row) + points.num_cols());
        const sv::request_options options{ r.batch_class ? sv::request_class::batch : sv::request_class::interactive, {} };
        stream &st = streams_[stream_of(r.model, r.batch_class)];
        try {
            std::future<double> f = r.model == target::mc4 ? sys_.mc->submit(std::move(point), options)
                                                           : sys_.binary->submit(std::move(point), options);
            const std::lock_guard lock{ st.mutex };
            st.queue.emplace_back(i, std::move(f));
        } catch (const std::exception &) {
            settle(*record_, i, 0.0, false);  // shed at admission
            return;
        }
        st.cv.notify_one();
    }

    void end(const clock_type::time_point deadline) override {
        for (stream &st : streams_) {
            {
                const std::lock_guard lock{ st.mutex };
                st.deadline = deadline;
                st.stop = true;
            }
            st.cv.notify_all();
        }
        for (stream &st : streams_) {
            if (st.waiter.joinable()) {
                st.waiter.join();
            }
        }
    }

  private:
    struct stream {
        bool used{ false };
        std::mutex mutex;
        std::condition_variable cv;
        std::deque<std::pair<std::size_t, std::future<double>>> queue;  ///< guarded by mutex
        bool stop{ false };                                              ///< guarded by mutex
        clock_type::time_point deadline{};                               ///< guarded by mutex
        std::thread waiter;
    };

    [[nodiscard]] static std::size_t stream_of(const target model, const bool batch_class) {
        return 2 * static_cast<std::size_t>(model) + (batch_class ? 1 : 0);
    }

    void wait_loop(stream &st) {
        while (true) {
            std::pair<std::size_t, std::future<double>> item;
            clock_type::time_point deadline;
            {
                std::unique_lock lock{ st.mutex };
                st.cv.wait(lock, [&st]() { return st.stop || !st.queue.empty(); });
                if (st.queue.empty()) {
                    return;
                }
                item = std::move(st.queue.front());
                st.queue.pop_front();
                deadline = st.stop ? st.deadline : clock_type::time_point::max();
            }
            if (item.second.wait_until(deadline) != std::future_status::ready) {
                continue;  // lost: never settled before the drain deadline
            }
            try {
                settle(*record_, item.first, item.second.get(), true);
            } catch (const std::exception &) {
                settle(*record_, item.first, 0.0, false);
            }
        }
    }

    wire_system &sys_;
    const test_inputs &tests_;
    segment_record *record_{ nullptr };
    std::array<stream, 4> streams_;
};

// ---------------------------------------------------------------------------
// segment evaluation
// ---------------------------------------------------------------------------

struct segment_eval {
    std::vector<double> interactive;  ///< latency from the due time, inf = miss
    std::vector<double> batch;
    std::vector<double> lag;
    std::size_t attempted{ 0 };
    std::size_t failed{ 0 };    ///< failed, shed, lost or wrong
    std::size_t wrong{ 0 };     ///< answered, but not the reference answer
    std::size_t lost{ 0 };
    std::size_t true_answers{ 0 };
    std::size_t binary_answers{ 0 };
    std::size_t binary_true{ 0 };
    std::size_t mc_answers{ 0 };
    std::size_t mc_true{ 0 };
    bool backlog_growing{ false };
};

segment_eval evaluate(const segment_record &rec, const test_inputs &t, const double rate, const double limit_s) {
    segment_eval e;
    const std::size_t n = rec.schedule.size();
    e.attempted = n;
    for (std::size_t i = 0; i < n; ++i) {
        const schedule_item &r = rec.schedule[i];
        double latency = inf;
        e.lag.push_back(rec.lag_s(i));
        if (rec.status[i] == reply_status::pending) {
            ++e.lost;
        } else if (rec.status[i] == reply_status::ok && !t.reply_matches(r, rec.reply[i])) {
            ++e.wrong;
        } else if (rec.status[i] == reply_status::ok) {
            latency = rec.due_latency_s(i);
            const bool truth = t.reply_true(r, rec.reply[i]);
            e.true_answers += truth;
            (r.model == target::mc4 ? e.mc_answers : e.binary_answers) += 1;
            (r.model == target::mc4 ? e.mc_true : e.binary_true) += truth;
        }
        e.failed += latency == inf;
        (r.batch_class ? e.batch : e.interactive).push_back(latency);
    }
    // Little's law: with every answer within the limit, at most rate * limit
    // requests are in flight; twice that (plus slack) means a growing queue
    e.backlog_growing = static_cast<double>(rec.in_flight_at_end) > 2.0 * rate * limit_s + 16.0;
    return e;
}

/// Share of the traffic mix in the batch (or interactive) class.
double class_share(const workload_def &w, const bool batch) {
    double share = 0.0;
    for (const traffic_share &t : w.mix) {
        share += t.batch_class == batch ? t.share : 0.0;
    }
    return share;
}

/// The pooled q-quantile of @p samples, NaN unless the sample-count rule
/// allows it.
double pooled(const std::vector<double> &samples, const double q) {
    return reported_quantile(samples, q).value_or(std::numeric_limits<double>::quiet_NaN());
}

/// Report the pooled q-quantile in ms with its sample count (not reported
/// when fewer than 10 samples lie beyond it).
void report_ms(phase_report &report, const std::string &name, const std::vector<double> &samples, const double q) {
    report.info(name + ".n", static_cast<double>(samples.size()));
    if (const std::optional<double> v = reported_quantile(samples, q)) {
        report.value(name, *v * 1e3);
    }
}

/// Periodic zero-downtime reload of the binary model (writes beside reads).
class reloader {
  public:
    reloader(sv::model_registry<double> &registry, const model<double> &m, const double interval_s) :
        registry_{ registry },
        model_{ m },
        interval_s_{ interval_s } {
        if (interval_s_ > 0.0) {
            thread_ = std::thread{ [this]() { loop(); } };
        }
    }
    reloader(const reloader &) = delete;
    reloader &operator=(const reloader &) = delete;
    ~reloader() { stop(); }

    void stop() {
        {
            const std::lock_guard lock{ mutex_ };
            stop_ = true;
        }
        cv_.notify_all();
        if (thread_.joinable()) {
            thread_.join();
        }
    }

    /// Seconds from each reload call until the new snapshot was live.
    [[nodiscard]] std::vector<double> durations() const {
        const std::lock_guard lock{ mutex_ };
        return durations_;
    }
    [[nodiscard]] std::size_t failures() const {
        const std::lock_guard lock{ mutex_ };
        return failures_;
    }

  private:
    void loop() {
        auto next = clock_type::now();
        while (true) {
            next += std::chrono::duration_cast<clock_type::duration>(std::chrono::duration<double>(interval_s_));
            {
                std::unique_lock lock{ mutex_ };
                if (cv_.wait_until(lock, next, [this]() { return stop_; })) {
                    return;
                }
            }
            const auto t0 = clock_type::now();
            bool ok = true;
            try {
                registry_.reload("binary", model_).get();
            } catch (const std::exception &) {
                ok = false;
            }
            const std::lock_guard lock{ mutex_ };
            durations_.push_back(seconds_since(t0));
            failures_ += ok ? 0 : 1;
        }
    }

    sv::model_registry<double> &registry_;
    model<double> model_;
    double interval_s_;
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_{ false };                ///< guarded by mutex_
    std::vector<double> durations_;     ///< guarded by mutex_
    std::size_t failures_{ 0 };         ///< guarded by mutex_
    std::thread thread_;
};

/// Send one request and wait for its reply (setup readiness probe).
std::optional<svn::net_response> round_trip(const std::uint16_t port, const std::string &frame) {
    const int fd = connect_loopback(port);
    std::optional<svn::net_response> out;
    if (write_all(fd, frame)) {
        svn::frame_decoder decoder;
        std::string payload;
        char buf[4096];
        while (!out.has_value()) {
            const ssize_t got = ::read(fd, buf, sizeof(buf));
            if (got <= 0) {
                break;
            }
            decoder.append(buf, static_cast<std::size_t>(got));
            if (decoder.next(payload) == svn::frame_decoder::status::frame) {
                svn::net_response resp;
                if (!svn::decode_response_binary(payload, resp).has_value()) {
                    out = resp;
                }
            }
        }
    }
    ::close(fd);
    return out;
}

void report_profile(phase_report &report, const sv::inference_engine<double> &engine, const std::string &source) {
    const plssvm::sim::host_profile &host = engine.dispatcher().params().host;
    report.info("dispatch.profile_source", source);
    report.info("dispatch.profile_gflops_per_thread", host.effective_gflops);
    report.info("dispatch.profile_bandwidth_gbs", host.effective_bandwidth_gbs);
    report.info("dispatch.profile_threads", static_cast<double>(host.num_threads));
}

}  // namespace

// ---------------------------------------------------------------------------
// setup
// ---------------------------------------------------------------------------

void run_setup(const phase_options &opt, phase_report &report) {
    const workload_def &w = *opt.workload;
    if (w.setup_is_parse) {
        // the paper's pipeline is ready once the training file is a data_set
        const auto t0 = clock_type::now();
        const data_set<double> train = data_set<double>::from_libsvm_file(files::train);
        report.value("setup_s", seconds_since(t0));
        report.check(train.num_data_points() == w.train_points, "parsed training set has the wrong size");
        report.count(1, train.num_data_points() == w.train_points ? 0 : 1);
        return;
    }
    const auto t0 = clock_type::now();
    const served_models models = read_models(w);
    wire_system sys{ w, models, false, false };
    // the first request: test row 0 of the binary model, read straight from
    // the test file's first line ("label index:value ...")
    std::ifstream test_file{ files::test };
    std::string line;
    std::getline(test_file, line);
    std::istringstream tokens{ line };
    std::string token;
    tokens >> token;  // label
    svn::net_request req;
    req.id = 1;
    req.model = "binary";
    req.dense.assign(w.features, 0.0);
    while (tokens >> token) {
        const std::size_t colon = token.find(':');
        req.dense.at(std::stoul(token.substr(0, colon)) - 1) = std::stod(token.substr(colon + 1));
    }
    const std::optional<svn::net_response> resp = round_trip(sys.server->port(), svn::encode_frame(svn::frame_type::request, svn::encode_request_binary(req)));
    report.value("setup_s", seconds_since(t0));

    aos_matrix<double> point{ 1, w.features, req.dense };
    const double f = sv::compiled_model<double>{ models.binary }.decision_values(point)[0];
    const bool ok = resp.has_value() && resp->status == svn::response_status::ok
                    && (std::abs(f) < tie_tolerance || resp->value == models.binary.label_from_decision(f));
    report.check(ok, "first reply after setup is missing or wrong");
    report.count(1, ok ? 0 : 1);
    // main() refuses to run next to a BENCH_serve.json, so the engines'
    // calibration always measures in-process
    report_profile(report, *sys.binary, "in-process measurement");
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

void run_serve(const phase_options &opt, phase_report &report) {
    const workload_def &w = *opt.workload;
    const auto read_t0 = clock_type::now();
    const served_models models = read_models(w);
    const double model_read_s = seconds_since(read_t0);
    const test_inputs tests = make_test_inputs(w, models);
    const std::size_t rows = tests.binary.num_data_points();

    // how the measured seconds are spent: nominal segments, then the ladder
    const double serve_seconds = opt.seconds * (1.0 - w.train_share);
    const double nominal_seconds = opt.seconds * w.nominal_share;
    const double ladder_seconds = std::max(0.5, serve_seconds - nominal_seconds);
    const std::vector<double> ladder = rate_ladder(w.ladder_lowest, w.ladder_step, w.ladder_rungs);
    const std::size_t expected_probes = static_cast<std::size_t>(std::ceil(std::log2(static_cast<double>(w.ladder_rungs) + 1.0)));
    // a failing rung is probed twice, so budget for half again the probes
    const double probe_seconds = ladder_seconds / (1.5 * static_cast<double>(expected_probes * goodput_searches));
    const double drain_s = std::max(1.0, 50.0 * w.latency_limit_s);
    std::uint64_t schedule_seed = opt.seed * 1000003ULL;

    const auto sys = std::make_unique<wire_system>(w, models, opt.trace, true);
    report_profile(report, *sys->binary, "pinned by the benchmark");
    wire_sink wire{ sys->server->port(), w.connections, tests };
    std::unique_ptr<reloader> reloads;
    if (w.reload_interval_s > 0.0) {
        reloads = std::make_unique<reloader>(sys->registry, models.binary, w.reload_interval_s);
    }

    const auto segment_on = [&](request_sink &to, const double rate, const double seconds, const std::uint64_t seed) {
        return run_segment(to, make_schedule(w, rate, seconds, seed, rows), drain_s);
    };
    const auto segment = [&](const double rate, const double seconds) { return segment_on(wire, rate, seconds, ++schedule_seed); };

    // warm-up: caches, lazily created lanes, the batch tuner
    (void) segment(w.nominal_rate, 0.3);

    // --- latency at the nominal rate: one continuous segment ------------------
    const std::uint64_t nominal_seed = ++schedule_seed;
    const segment_eval nominal = evaluate(segment_on(wire, w.nominal_rate, nominal_seconds, nominal_seed), tests, w.nominal_rate, w.latency_limit_s);
    report_ms(report, "p50_ms", nominal.interactive, 0.5);
    report_ms(report, "p99_ms", nominal.interactive, 0.99);
    report_ms(report, "batch_p99_ms", nominal.batch, 0.99);
    const double lag_p99 = quantile(nominal.lag, 0.99);
    report.value("bench.gen_lag_p99_ms", lag_p99 * 1e3);
    // a generator later than the latency limit itself did not offer the
    // nominal load; the run is invalid, not fast (the server's threads share
    // the cores, so lateness of a few ms at p99 is scheduling noise that the
    // latency from the due time already charges)
    report.check(lag_p99 <= w.latency_limit_s, "run invalid: the generator ran " + std::to_string(lag_p99 * 1e3) + " ms late at p99");
    report.check(nominal.wrong == 0, std::to_string(nominal.wrong) + " replies differ from the in-process reference");
    report.check(nominal.failed == 0, std::to_string(nominal.failed) + " requests failed, were shed, lost or wrong at the nominal rate");
    report.count(nominal.attempted, nominal.failed);
    report.info("nominal.rate_rps", w.nominal_rate);
    report.info("nominal.lost", static_cast<double>(nominal.lost));
    report.info("nominal.fail_frac", static_cast<double>(nominal.failed) / static_cast<double>(std::max<std::size_t>(1, nominal.attempted)));
    const double answered = static_cast<double>(std::max<std::size_t>(1, nominal.attempted - nominal.failed));
    report.value("test_accuracy", static_cast<double>(nominal.true_answers) / answered);
    report.info("test_accuracy.n", answered);
    const double binary_acc = static_cast<double>(nominal.binary_true) / static_cast<double>(std::max<std::size_t>(1, nominal.binary_answers));
    report.check(binary_acc >= w.accuracy_floor, "binary test accuracy " + std::to_string(binary_acc) + " below the floor");
    if (tests.mc.has_value()) {
        const double mc_acc = static_cast<double>(nominal.mc_true) / static_cast<double>(std::max<std::size_t>(1, nominal.mc_answers));
        report.info("test_accuracy.mc4", mc_acc);
        report.check(mc_acc >= w.mc_accuracy_floor, "4-class test accuracy " + std::to_string(mc_acc) + " below the floor");
    }

    // memory and dispatch path mix at the nominal operating point (the ladder
    // below drives the system to saturation, where both depend on how far
    // the search went)
    report.value("peak_rss_mb", peak_rss_mb());
    // the dispatch path mix of every run is recorded (run.py flags a run
    // whose mix differs from the earlier ones)
    {
        const sv::serve_stats st = sys->binary->stats();
        const double batches = static_cast<double>(std::max<std::size_t>(1, st.total_batches));
        report.info("dispatch.binary_reference_share", static_cast<double>(st.reference_batches) / batches);
        report.info("dispatch.binary_blocked_share", static_cast<double>(st.host_blocked_batches) / batches);
        report.info("dispatch.binary_sparse_share", static_cast<double>(st.host_sparse_batches) / batches);
        report.info("dispatch.binary_device_share", static_cast<double>(st.device_batches) / batches);
    }

    // --- goodput: highest ladder rate whose p99 meets the limit ---------------
    // (end-to-end only: the traced run skips it, so its per-layer counters
    // cover the nominal and traced segments alone)
    if (!opt.trace) {
        // the median of independent searches, each with its own schedules
        std::string probes;
        std::vector<goodput_result> searches;
        for (std::size_t k = 0; k < goodput_searches; ++k) {
            searches.push_back(goodput_search(ladder, w.latency_limit_s, [&](const double rate) {
                // at least 1500 interactive samples, so the probe's p99 is reportable
                const double seconds = std::max(probe_seconds, 1500.0 / (rate * class_share(w, false)));
                const segment_eval e = evaluate(segment(rate, seconds), tests, rate, w.latency_limit_s);
                // the limit applies to interactive latency; a failed request of
                // either class is a miss
                probe_outcome out;
                out.latencies = e.interactive;
                for (const double b : e.batch) {
                    if (b == inf) {
                        out.latencies.push_back(b);
                    }
                }
                out.backlog_growing = e.backlog_growing;
                const std::optional<double> p99 = reported_quantile(out.latencies, 0.99);
                probes += std::to_string(static_cast<long>(rate)) + ":" + (p99.has_value() ? std::to_string(*p99 * 1e3) : std::string{ "n/a" })
                          + (out.backlog_growing ? ":backlog " : " ");
                return out;
            }));
            probes += "| ";
        }
        std::string rates;
        std::size_t probe_count = 0;
        bool found = false;
        for (const goodput_result &r : searches) {
            rates += std::to_string(r.rate) + " ";
            probe_count += r.probes;
            found = found || r.found;
        }
        report.info("goodput.probe_p99_ms", probes);
        report.info("goodput.search_rates", rates);
        report.value("goodput_rps", median_goodput(searches));
        report.info("goodput_rps.n", static_cast<double>(searches.size()));
        report.info("goodput.probes", static_cast<double>(probe_count));
        report.check(found, "no ladder rate met the latency limit");
    }

    // reloads run beside every segment, traced ones included
    const auto finish_reloads = [&]() {
        if (reloads == nullptr) {
            return;
        }
        reloads->stop();
        const std::vector<double> d = reloads->durations();
        report.check(reloads->failures() == 0, "registry reloads failed");
        report.info("registry.reloads_during_run", static_cast<double>(d.size()));
        if (opt.trace && !d.empty()) {
            report.value("registry.reload_p50_s", median(d));
            report.value("registry.reload_max_s", *std::max_element(d.begin(), d.end()));
        }
    };
    if (!opt.trace) {
        finish_reloads();
        return;
    }

    // ======================= traced run: per-layer metrics ====================
    report.value("io.model_read_s", model_read_s);
    // traced segments replay the start of the nominal schedule
    const double traced_seconds = nominal_seconds / 4.0;
    span_recorder spans;
    const auto span_ns = [&](const clock_type::time_point tp) {
        return spans.now_ns() - std::chrono::duration_cast<std::chrono::nanoseconds>(clock_type::now() - tp).count();
    };
    std::vector<double> traced_interactive;
    std::vector<double> residual_share;
    std::map<std::string, std::vector<double>> stage_us;

    {
        // every request carries a trace id, so the engine retains its
        // wire-to-wire trace; joined with the client stamps by id
        wire.trace_ids = true;
        const sv::obs::flight_recorder &recorder = sys->binary->recorder();
        const auto probe = clock_type::now();
        const clock_type::time_point recorder_epoch = probe - std::chrono::nanoseconds{ recorder.to_ns(probe) };
        const auto at = [&](const std::uint64_t ns) { return recorder_epoch + std::chrono::nanoseconds{ ns }; };
        std::size_t joined = 0;
        std::size_t broken = 0;
        {
            const segment_record rec = segment_on(wire, w.nominal_rate, traced_seconds, nominal_seed);
            traced_interactive = evaluate(rec, tests, w.nominal_rate, w.latency_limit_s).interactive;
            const std::uint64_t base = wire.id_base();
            for (const sv::request_class cls : { sv::request_class::interactive, sv::request_class::batch }) {
                for (const sv::obs::request_trace &t : recorder.traces(cls)) {
                    if (t.id < base || t.id - base >= rec.schedule.size() || t.t_net_accepted_ns == 0) {
                        continue;
                    }
                    const std::size_t i = t.id - base;
                    // the read event that picked the request up may have begun
                    // before it was sent (several requests per read), and the
                    // flush stamp follows write(2), which the client's read can
                    // beat; decode and encode must lie inside the client interval
                    if (rec.status[i] != reply_status::ok || !t.wire_complete() || at(t.t_net_decoded_ns) < rec.sent[i]
                        || at(t.t_net_encoded_ns) > rec.received[i]) {
                        ++broken;
                        continue;
                    }
                    ++joined;
                    const auto sp = [&](const char *name, const std::uint64_t from, const std::uint64_t to, const std::size_t parent) {
                        stage_us[name].push_back(static_cast<double>(to - from) * 1e-3);
                        return spans.add(span{ name, span_ns(at(from)), span_ns(at(to)), parent, t.id });
                    };
                    const std::size_t root = spans.add(span{ "wire.request", span_ns(rec.sent[i]), span_ns(rec.received[i]), 0, t.id });
                    const std::uint64_t sent_ns = recorder.to_ns(rec.sent[i]);
                    sp("read", std::max(t.t_net_accepted_ns, std::min(sent_ns, t.t_net_read_ns)), t.t_net_read_ns, root);
                    sp("decode", t.t_net_read_ns, t.t_net_decoded_ns, root);
                    sp("dispatch", t.t_net_decoded_ns, t.t_net_dispatch_ns, root);
                    sp("handoff", t.t_net_dispatch_ns, t.t_admit_ns, root);
                    const std::size_t engine = sp("engine", t.t_admit_ns, t.t_complete_ns, root);
                    sp("engine.queue_wait", t.t_enqueue_ns, t.t_seal_ns, engine);
                    sp("engine.service", t.t_dispatch_ns, t.t_complete_ns, engine);
                    sp("encode", t.t_complete_ns, t.t_net_encoded_ns, root);
                    const std::uint64_t flushed_ns = std::min(t.t_net_flushed_ns, std::max(t.t_net_encoded_ns, recorder.to_ns(rec.received[i])));
                    sp("flush", t.t_net_encoded_ns, flushed_ns, root);
                    const double total_ns = static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(rec.received[i] - rec.sent[i]).count());
                    const double stamped_ns = static_cast<double>(flushed_ns - std::max(t.t_net_accepted_ns, std::min(sent_ns, t.t_net_read_ns)));
                    stage_us["residual"].push_back((total_ns - stamped_ns) * 1e-3);
                    residual_share.push_back((total_ns - stamped_ns) / total_ns);
                }
            }
        }
        report.info("trace.joined", static_cast<double>(joined));
        report.check(joined > 0, "no wire trace could be joined with a client request");
        report.check(broken == 0, std::to_string(broken) + " wire traces are not monotone inside their client interval");
        for (const char *stage : { "read", "decode", "dispatch", "handoff", "engine", "encode", "flush", "residual" }) {
            const std::optional<double> p99 = reported_quantile(stage_us[stage], 0.99);
            report.value(std::string{ "net.stage_" } + stage + "_p99_us", p99.value_or(quantile(stage_us[stage], 0.99)));
        }

        // in-process replay of the same schedules: the engine without the wire
        engine_sink inproc{ *sys, tests, w };
        const segment_eval in = evaluate(segment_on(inproc, w.nominal_rate, traced_seconds, nominal_seed), tests, w.nominal_rate, w.latency_limit_s);
        const double in_p50 = pooled(in.interactive, 0.5);
        const double in_p99 = pooled(in.interactive, 0.99);
        const double wire_p50 = pooled(nominal.interactive, 0.5);
        const double wire_p99 = pooled(nominal.interactive, 0.99);
        report.value("engine.inproc_p50_ms", in_p50 * 1e3);
        report.value("engine.inproc_p99_ms", in_p99 * 1e3);
        report.value("net.added_p50_ms", (wire_p50 - in_p50) * 1e3);
        report.value("net.added_p99_ms", (wire_p99 - in_p99) * 1e3);
        report.check(in.failed == 0, std::to_string(in.failed) + " in-process replay requests failed or were wrong");
        const svn::net_counters nc = sys->server->counters();
        report.value("net.bytes_per_req", static_cast<double>(nc.bytes_in + nc.bytes_out) / static_cast<double>(std::max<std::uint64_t>(1, nc.requests_total)));
    }

    {
        // async per-request cost minus sync per-point cost, same points
        constexpr std::size_t burst = 1024;
        aos_matrix<double> points{ burst, w.features };
        for (std::size_t i = 0; i < burst; ++i) {
            std::copy_n(tests.binary.points().row_data(i % rows), w.features, points.row_data(i));
        }
        std::vector<double> sync_s;
        std::vector<double> async_s;
        for (int r = 0; r < 5; ++r) {
            auto t0 = clock_type::now();
            (void) sys->binary->decision_values(points);
            sync_s.push_back(seconds_since(t0));
            t0 = clock_type::now();
            std::vector<std::future<double>> futures;
            futures.reserve(burst);
            for (std::size_t i = 0; i < burst; ++i) {
                futures.push_back(sys->binary->submit(std::vector<double>(points.row_data(i), points.row_data(i) + w.features)));
            }
            for (std::future<double> &f : futures) {
                (void) f.get();
            }
            async_s.push_back(seconds_since(t0));
        }
        report.value("engine.overhead_us", (median(async_s) - median(sync_s)) / burst * 1e6);

        // stage, batcher, executor, qos and registry counters of the engines
        const sv::serve_stats st = sys->binary->stats();
        const sv::class_serve_stats &ia = st.classes[sv::class_index(sv::request_class::interactive)];
        const auto &qw = ia.stages[sv::obs::stage_index(sv::obs::trace_stage::queue_wait)];
        report.value("batcher.mean_batch", st.mean_batch_size);
        report.value("batcher.queue_wait_p50_ms", qw.p50_seconds * 1e3);
        report.value("batcher.queue_wait_p99_ms", qw.p99_seconds * 1e3);
        report.value("executor.steals", static_cast<double>(st.steals));
        report.value("executor.max_queue_depth", static_cast<double>(st.max_queue_depth));
        double kernel_s = st.batch_kernel_seconds;
        std::vector<sv::serve_stats> all_stats{ st };
        if (sys->mc != nullptr) {
            all_stats.push_back(sys->mc->stats());
            kernel_s += all_stats.back().batch_kernel_seconds;
        }
        report.value("kernels.busy_s", kernel_s);
        const double batches = static_cast<double>(std::max<std::size_t>(1, st.total_batches));
        report.value("dispatcher.blocked_share", static_cast<double>(st.host_blocked_batches) / batches);
        report.value("dispatcher.reference_share", static_cast<double>(st.reference_batches) / batches);
        double misses = 0.0;
        for (const sv::request_class cls : { sv::request_class::interactive, sv::request_class::batch }) {
            double shed = 0.0;
            double offered = 0.0;
            for (const sv::serve_stats &s : all_stats) {
                const sv::class_serve_stats &c = s.classes[sv::class_index(cls)];
                shed += static_cast<double>(c.shed_rate_limited + c.shed_queue_full);
                offered += static_cast<double>(c.admitted + c.shed_rate_limited + c.shed_queue_full);
                misses += static_cast<double>(c.deadline_misses);
            }
            report.value(std::string{ "qos.shed_frac." } + (cls == sv::request_class::batch ? "batch" : "interactive"), shed / std::max(1.0, offered));
        }
        report.value("qos.deadline_misses", misses);
        report.value("registry.reloads", static_cast<double>(st.reloads));
    }

    // kernel rate: the observed batch size replayed through the public
    // batch-predict call of the compiled binary model
    {
        const sv::compiled_model<double> cm{ models.binary };
        const double mean_batch = sys->binary->stats().mean_batch_size;
        const std::size_t b = std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(mean_batch)));
        aos_matrix<double> batch{ b, w.features };
        for (std::size_t i = 0; i < b; ++i) {
            std::copy_n(tests.binary.points().row_data(i % rows), w.features, batch.row_data(i));
        }
        std::size_t calls = 0;
        const auto t0 = clock_type::now();
        while (calls < 20 || seconds_since(t0) < 0.3) {
            (void) cm.decision_values(batch);
            ++calls;
        }
        const double pts_per_s = static_cast<double>(calls * b) / seconds_since(t0);
        // RBF: 3 flops per feature for the squared distance, plus exp and
        // the weighted accumulation (counted as 2)
        const double gflops = pts_per_s * static_cast<double>(cm.num_support_vectors()) * (3.0 * static_cast<double>(w.features) + 2.0) * 1e-9;
        const plssvm::sim::host_profile &host = sys->binary->dispatcher().params().host;
        report.value("kernels.pts_per_s", pts_per_s);
        report.value("kernels.gflops", gflops);
        report.value("kernels.roofline_frac", gflops / (host.effective_gflops * static_cast<double>(w.omp_threads)));
        report.info("kernels.replay_batch", static_cast<double>(b));
    }

    // tracing overhead and the layer sum
    const double untraced_p50 = pooled(nominal.interactive, 0.5);
    const double traced_p50 = pooled(traced_interactive, 0.5);
    report.value("bench.trace_overhead_frac", traced_p50 / untraced_p50 - 1.0);
    // wire latency = net stages + engine + residual, the residual being the
    // client-side transit outside the server's stamps (socket buffers, the
    // reader thread's wake-up); a large residual means the stamps no longer
    // explain the latency
    const double residual = median(residual_share);
    report.value("bench.layer_residual_frac", residual);
    report.check(residual <= max_wire_residual_share,
                 "median share of the wire latency outside the server's stamps is " + std::to_string(residual));
    spans.write_jsonl("spans_serve.jsonl");
    const std::map<std::string, double> self = self_seconds_by_name(spans.spans());
    for (const auto &[name, sec] : self) {
        report.info("self_s." + name, sec);
    }
    finish_reloads();
}

}  // namespace perfbench
