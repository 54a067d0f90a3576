#include "loadgen.hpp"

#include <random>
#include <stdexcept>
#include <thread>

namespace perfbench {

std::vector<schedule_item> make_schedule(const workload_def &w, const double rate, const double seconds,
                                         const std::uint64_t seed, const std::size_t rows) {
    if (rate <= 0.0 || rows == 0 || w.mix.empty()) {
        throw std::invalid_argument{ "make_schedule needs a positive rate, test rows and a traffic mix" };
    }
    std::mt19937_64 rng{ seed };
    std::exponential_distribution<double> gap{ rate };
    std::uniform_real_distribution<double> unit{ 0.0, 1.0 };
    std::uniform_int_distribution<std::uint32_t> row{ 0, static_cast<std::uint32_t>(rows - 1) };
    std::vector<schedule_item> schedule;
    schedule.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
    double t = gap(rng);
    while (t < seconds) {
        double pick = unit(rng);
        const traffic_share *share = &w.mix.back();
        for (const traffic_share &s : w.mix) {
            if (pick < s.share) {
                share = &s;
                break;
            }
            pick -= s.share;
        }
        schedule.push_back(schedule_item{ t, row(rng), share->model == "mc4" ? target::mc4 : target::binary, share->batch_class });
        t += gap(rng);
    }
    return schedule;
}

segment_record run_segment(request_sink &sink, std::vector<schedule_item> schedule, const double drain_s) {
    segment_record record;
    const std::size_t n = schedule.size();
    record.schedule = std::move(schedule);
    record.sent.resize(n);
    record.received.resize(n);
    record.reply.assign(n, 0.0);
    record.status.assign(n, reply_status::pending);
    sink.begin(record);

    record.start = clock_type::now() + std::chrono::milliseconds{ 2 };
    for (std::size_t i = 0; i < n; ++i) {
        const auto due = record.start + std::chrono::duration_cast<clock_type::duration>(std::chrono::duration<double>(record.schedule[i].due_s));
        // spin instead of sleeping: a sleeping thread of a virtual machine
        // can wake milliseconds late, which would be charged as latency
        while (clock_type::now() < due) {
            __builtin_ia32_pause();
        }
        record.sent[i] = clock_type::now();
        sink.send(i);
    }
    record.in_flight_at_end = n - std::min(n, sink.answered());
    sink.end(clock_type::now() + std::chrono::duration_cast<clock_type::duration>(std::chrono::duration<double>(drain_s)));
    return record;
}

}  // namespace perfbench
