/**
 * @file
 * @brief In-memory span recorder of the traced benchmark run.
 *
 * A span covers one benchmark call into a layer's public function: name,
 * start, end, the span that caused it, and the request it belongs to. Spans
 * stay in memory while the run measures and are written out once at the end.
 * A span's self time is its duration minus the part of it that its children
 * cover, so the self times of one tree add up to the root's duration.
 */
#ifndef PERFBENCH_SPANS_HPP_
#define PERFBENCH_SPANS_HPP_

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct span {
    std::string name;
    std::int64_t start_ns{ 0 };
    std::int64_t end_ns{ 0 };
    std::size_t parent{ 0 };  ///< index + 1 of the parent span; 0 = root
    std::uint64_t request_id{ 0 };

    [[nodiscard]] double seconds() const noexcept { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// Single-threaded span store (the traced phases record from one thread).
class span_recorder {
  public:
    span_recorder() :
        epoch_{ std::chrono::steady_clock::now() } {}

    [[nodiscard]] std::int64_t now_ns() const {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() - epoch_).count();
    }

    /// Open a span under @p parent (0 = root); returns its handle (index + 1).
    std::size_t open(std::string name, const std::size_t parent = 0, const std::uint64_t request_id = 0) {
        spans_.push_back(span{ std::move(name), now_ns(), 0, parent, request_id });
        return spans_.size();
    }

    void close(const std::size_t handle) { spans_[handle - 1].end_ns = now_ns(); }

    /// Record an already-timed span (e.g. stamps taken on another thread).
    std::size_t add(span s) {
        spans_.push_back(std::move(s));
        return spans_.size();
    }

    [[nodiscard]] const std::vector<span> &spans() const noexcept { return spans_; }

    /// Write one JSON object per span.
    void write_jsonl(const std::string &path) const {
        std::ofstream out{ path };
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const span &s = spans_[i];
            out << "{\"id\":" << i + 1 << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
                << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent << ",\"request_id\":" << s.request_id << "}\n";
        }
    }

  private:
    std::chrono::steady_clock::time_point epoch_;
    std::vector<span> spans_;
};

/// Self time of every span in seconds: duration minus the union of its
/// children's intervals (clipped to the parent).
[[nodiscard]] inline std::vector<double> self_seconds(const std::vector<span> &spans) {
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
    for (const span &s : spans) {
        if (s.parent != 0) {
            children[s.parent - 1].emplace_back(s.start_ns, s.end_ns);
        }
    }
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        std::int64_t covered = 0;
        std::int64_t cursor = spans[i].start_ns;
        for (auto [begin, end] : kids) {
            begin = std::max(begin, cursor);
            end = std::min(end, spans[i].end_ns);
            if (end > begin) {
                covered += end - begin;
                cursor = end;
            }
        }
        self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns - covered) * 1e-9;
    }
    return self;
}

/// Summed self seconds per span name.
[[nodiscard]] inline std::map<std::string, double> self_seconds_by_name(const std::vector<span> &spans) {
    const std::vector<double> self = self_seconds(spans);
    std::map<std::string, double> totals;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        totals[spans[i].name] += self[i];
    }
    return totals;
}

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_HPP_
