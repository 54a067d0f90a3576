/**
 * @file
 * @brief Tests of the benchmark's own arithmetic and input generation.
 */
#include "inputs.hpp"
#include "loadgen.hpp"
#include "spans.hpp"
#include "stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace {

using namespace perfbench;

constexpr double inf = std::numeric_limits<double>::infinity();

std::vector<double> iota_samples(const std::size_t n) {
    std::vector<double> s(n);
    for (std::size_t i = 0; i < n; ++i) {
        s[i] = static_cast<double>(i + 1);
    }
    return s;
}

TEST(Percentile, NearestRank) {
    const std::vector<double> s = iota_samples(1000);
    EXPECT_EQ(quantile(s, 0.5), 500.0);
    EXPECT_EQ(quantile(s, 0.99), 990.0);
    EXPECT_EQ(quantile({ 3.0 }, 0.99), 3.0);
}

TEST(Percentile, NeedsTenSamplesBeyond) {
    EXPECT_TRUE(percentile_supported(1000, 0.99));
    EXPECT_FALSE(percentile_supported(999, 0.99));
    EXPECT_TRUE(percentile_supported(20, 0.5));
    EXPECT_FALSE(percentile_supported(19, 0.5));
    EXPECT_FALSE(reported_quantile(iota_samples(500), 0.99).has_value());
    EXPECT_EQ(reported_quantile(iota_samples(1000), 0.99).value(), 990.0);
}

TEST(Percentile, FailuresSortLastAndCountAsMisses) {
    std::vector<double> s(1000, 1e-3);
    for (std::size_t i = 0; i < 11; ++i) {
        s[i] = inf;
    }
    EXPECT_EQ(quantile(s, 0.99), inf);
    s[0] = 1e-3;
    EXPECT_EQ(quantile(s, 0.99), 1e-3);
}

TEST(Median, EvenAndOdd) {
    EXPECT_EQ(median({ 3.0, 1.0, 2.0 }), 2.0);
    EXPECT_EQ(median({ 4.0, 1.0, 2.0, 3.0 }), 2.5);
}

probe_outcome synthetic_probe(const double rate, const double capacity, const std::size_t failures_per_probe) {
    probe_outcome out;
    out.latencies.assign(2000, rate < capacity ? 1e-3 : 5e-3);
    for (std::size_t i = 0; i < failures_per_probe; ++i) {
        out.latencies[i] = inf;
    }
    return out;
}

TEST(Goodput, FindsHighestPassingRung) {
    const std::vector<double> ladder = rate_ladder(1000.0, 0.05, 40);
    const double capacity = 3000.0;
    const goodput_result r = goodput_search(ladder, 2e-3, [&](const double rate) { return synthetic_probe(rate, capacity, 0); });
    ASSERT_TRUE(r.found);
    EXPECT_LT(r.rate, capacity);
    EXPECT_GE(ladder.at(r.index + 1), capacity);
    EXPECT_LE(r.probes, 12U);  // at most 6 rungs, a failing one probed twice
}

TEST(Goodput, OneFailedProbeIsRetried) {
    const std::vector<double> ladder = rate_ladder(1000.0, 0.05, 40);
    // the first probe at every rung stalls; the retry shows the true state
    std::map<double, int> seen;
    const goodput_result r = goodput_search(ladder, 2e-3, [&](const double rate) {
        probe_outcome out = synthetic_probe(rate, 3000.0, 0);
        if (seen[rate]++ == 0) {
            out.backlog_growing = true;
        }
        return out;
    });
    ASSERT_TRUE(r.found);
    EXPECT_LT(r.rate, 3000.0);
    EXPECT_GE(ladder.at(r.index + 1), 3000.0);
}

TEST(Goodput, FailuresCountAsMisses) {
    const std::vector<double> ladder = rate_ladder(1000.0, 0.05, 40);
    // 1 % + 1 failed requests push the p99 to infinity at every rate
    const goodput_result none = goodput_search(ladder, 2e-3, [&](const double rate) { return synthetic_probe(rate, 1e9, 21); });
    EXPECT_FALSE(none.found);
    EXPECT_EQ(none.rate, 0.0);
    // fewer failures than the 1 % tail still pass
    const goodput_result some = goodput_search(ladder, 2e-3, [&](const double rate) { return synthetic_probe(rate, 1e9, 19); });
    EXPECT_TRUE(some.found);
    EXPECT_EQ(some.index, ladder.size() - 1);
}

TEST(Goodput, PooledTailFailsAProbe) {
    // fast everywhere except 1.5 % of the probe's requests (one stall of a
    // stretch of the probe): the pooled p99 sees them
    probe_outcome out = synthetic_probe(1.0, 2.0, 0);
    std::fill(out.latencies.begin() + 1000, out.latencies.begin() + 1030, 0.1);
    EXPECT_FALSE(probe_passes(out, 2e-3));
    std::fill(out.latencies.begin() + 1015, out.latencies.begin() + 1030, 1e-3);
    EXPECT_TRUE(probe_passes(out, 2e-3));
    EXPECT_FALSE(probe_passes(probe_outcome{ std::vector<double>(500, 1e-3), false }, 2e-3));  // p99 not reportable
}

TEST(Goodput, MedianOfSearches) {
    const goodput_result a{ 1000.0, 3, true, 6 };
    const goodput_result b{ 1200.0, 5, true, 7 };
    const goodput_result none{};
    EXPECT_EQ(median_goodput({ a, b, none }), 1000.0);
    EXPECT_EQ(median_goodput({ b, a, b }), 1200.0);
    EXPECT_EQ(median_goodput({ none, none, a }), 0.0);  // a search without a passing rung counts as 0
}

TEST(Goodput, GrowingBacklogFails) {
    probe_outcome out = synthetic_probe(1.0, 2.0, 0);
    EXPECT_TRUE(probe_passes(out, 2e-3));
    out.backlog_growing = true;
    EXPECT_FALSE(probe_passes(out, 2e-3));
}

TEST(Goodput, LadderIsGeometric) {
    const std::vector<double> ladder = rate_ladder(100.0, 0.03, 3);
    EXPECT_DOUBLE_EQ(ladder[0], 100.0);
    EXPECT_DOUBLE_EQ(ladder[1], 103.0);
    EXPECT_DOUBLE_EQ(ladder[2], 106.09);
}

TEST(Spans, SelfTimeSubtractsChildren) {
    // root [0, 100] with children [10, 30] and [20, 50] (overlapping) and a
    // grandchild [12, 18] under the first child
    const std::vector<span> spans{
        { "root", 0, 100, 0, 1 },
        { "a", 10, 30, 1, 1 },
        { "b", 20, 50, 1, 1 },
        { "a.child", 12, 18, 2, 1 },
    };
    const std::vector<double> self = self_seconds(spans);
    EXPECT_DOUBLE_EQ(self[0], 60e-9);  // 100 - union([10,30],[20,50]) = 100 - 40
    EXPECT_DOUBLE_EQ(self[1], 14e-9);
    EXPECT_DOUBLE_EQ(self[2], 30e-9);
    EXPECT_DOUBLE_EQ(self[3], 6e-9);
}

TEST(Spans, SelfTimesOfNestedTreeAddUpToRoot) {
    const std::vector<span> spans{
        { "root", 0, 1000, 0, 7 },
        { "x", 100, 400, 1, 7 },
        { "y", 400, 900, 1, 7 },
        { "y.z", 500, 600, 3, 7 },
        { "y.z", 700, 800, 3, 7 },
    };
    const std::map<std::string, double> by_name = self_seconds_by_name(spans);
    double sum = 0.0;
    for (const auto &[name, s] : by_name) {
        sum += s;
    }
    EXPECT_NEAR(sum, 1000e-9, 1e-15);
    EXPECT_DOUBLE_EQ(by_name.at("y.z"), 200e-9);
    EXPECT_DOUBLE_EQ(by_name.at("y"), 300e-9);
}

TEST(Spans, ChildOutsideParentIsClipped) {
    const std::vector<span> spans{ { "root", 0, 100, 0, 0 }, { "late", 90, 150, 1, 0 } };
    EXPECT_DOUBLE_EQ(self_seconds(spans)[0], 90e-9);
}

std::string slurp(const std::filesystem::path &p) {
    std::ifstream in{ p, std::ios::binary };
    return { std::istreambuf_iterator<char>{ in }, std::istreambuf_iterator<char>{} };
}

TEST(Inputs, SameSeedGivesByteIdenticalFiles) {
    const std::filesystem::path base = std::filesystem::current_path() / "perfbench_seed_test";
    std::filesystem::remove_all(base);
    const workload_def &w = find_workload("wire_heavy_mixed");
    for (const char *dir : { "a", "b", "c" }) {
        std::filesystem::create_directories(base / dir);
    }
    write_inputs(w, 7, (base / "a").string());
    write_inputs(w, 7, (base / "b").string());
    write_inputs(w, 8, (base / "c").string());
    for (const char *name : { files::train, files::test, files::mc_train, files::mc_test }) {
        const std::string a = slurp(base / "a" / name);
        EXPECT_FALSE(a.empty()) << name;
        EXPECT_EQ(a, slurp(base / "b" / name)) << name;
        EXPECT_NE(a, slurp(base / "c" / name)) << name;
    }
    std::filesystem::remove_all(base);
}

TEST(Inputs, ScheduleIsSeededAndHasTheRate) {
    const workload_def &w = find_workload("wire_heavy_mixed");
    const std::vector<schedule_item> a = make_schedule(w, 2000.0, 5.0, 11, 100);
    const std::vector<schedule_item> b = make_schedule(w, 2000.0, 5.0, 11, 100);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].due_s, b[i].due_s);
        EXPECT_EQ(a[i].row, b[i].row);
        EXPECT_EQ(a[i].model, b[i].model);
        EXPECT_EQ(a[i].batch_class, b[i].batch_class);
    }
    EXPECT_NEAR(static_cast<double>(a.size()), 10000.0, 400.0);
    std::size_t batch = 0;
    std::size_t mc = 0;
    for (const schedule_item &r : a) {
        batch += r.batch_class;
        mc += r.model == target::mc4;
    }
    EXPECT_NEAR(static_cast<double>(batch) / static_cast<double>(a.size()), 0.25, 0.03);
    EXPECT_NEAR(static_cast<double>(mc) / static_cast<double>(a.size()), 0.15, 0.03);
}

}  // namespace
