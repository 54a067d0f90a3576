/**
 * @file
 * @brief Open-loop load generator.
 *
 * One generator thread sends requests at their scheduled times (Poisson
 * arrivals at a fixed absolute rate); a sink delivers them to the system and
 * receives the answers on its own thread(s). Latency is timed from each
 * request's scheduled send time, so a stall that delays later sends is
 * charged to them; how late the generator itself ran is recorded per request.
 */
#ifndef PERFBENCH_LOADGEN_HPP_
#define PERFBENCH_LOADGEN_HPP_

#include "inputs.hpp"

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using clock_type = std::chrono::steady_clock;

/// Targets of a request.
enum class target : std::uint8_t { binary = 0, mc4 = 1 };

struct schedule_item {
    double due_s{ 0.0 };      ///< send time relative to the segment start
    std::uint32_t row{ 0 };   ///< test point
    target model{ target::binary };
    bool batch_class{ false };
};

/// Poisson arrivals at @p rate req/s for @p seconds, mix drawn from @p w.mix,
/// rows uniform over @p rows test points. Deterministic in @p seed.
[[nodiscard]] std::vector<schedule_item> make_schedule(const workload_def &w, double rate, double seconds,
                                                       std::uint64_t seed, std::size_t rows);

enum class reply_status : std::uint8_t { pending = 0, ok = 1, failed = 2 };

/// Raw per-request record of one segment, filled by the generator (send
/// side) and the sink (receive side).
struct segment_record {
    clock_type::time_point start{};
    std::vector<schedule_item> schedule;
    std::vector<clock_type::time_point> sent;
    std::vector<clock_type::time_point> received;
    std::vector<double> reply;
    std::vector<reply_status> status;
    std::size_t in_flight_at_end{ 0 };  ///< unanswered when the last request was sent

    [[nodiscard]] double due_latency_s(std::size_t i) const {
        return std::chrono::duration<double>(received[i] - (start + std::chrono::duration_cast<clock_type::duration>(std::chrono::duration<double>(schedule[i].due_s)))).count();
    }
    [[nodiscard]] double lag_s(std::size_t i) const {
        return std::chrono::duration<double>(sent[i] - (start + std::chrono::duration_cast<clock_type::duration>(std::chrono::duration<double>(schedule[i].due_s)))).count();
    }
};

/// Delivers requests to the system under test.
class request_sink {
  public:
    request_sink() = default;
    request_sink(const request_sink &) = delete;
    request_sink &operator=(const request_sink &) = delete;
    virtual ~request_sink() = default;

    /// Called once before the clock starts (pre-encoding, receiver start).
    virtual void begin(segment_record &record) = 0;
    /// Send request @p i now (generator thread).
    virtual void send(std::size_t i) = 0;
    /// Wait for every answer or @p deadline, then stop the receivers.
    virtual void end(clock_type::time_point deadline) = 0;
    /// Answers received so far in the current segment.
    [[nodiscard]] std::size_t answered() const noexcept { return answered_.load(std::memory_order_acquire); }

  protected:
    /// Store the answer of request @p i (receiver threads).
    void settle(segment_record &record, std::size_t i, double reply, bool ok) {
        record.received[i] = clock_type::now();
        record.reply[i] = reply;
        record.status[i] = ok ? reply_status::ok : reply_status::failed;
        answered_.fetch_add(1, std::memory_order_acq_rel);
    }
    void reset_answered() { answered_.store(0, std::memory_order_release); }

  private:
    std::atomic<std::size_t> answered_{ 0 };
};

/// Run @p schedule open loop through @p sink; waits at most @p drain_s after
/// the last send for outstanding answers.
[[nodiscard]] segment_record run_segment(request_sink &sink, std::vector<schedule_item> schedule, double drain_s);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_HPP_
