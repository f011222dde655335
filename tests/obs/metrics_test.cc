#include "obs/metrics.hh"

#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "util/thread_pool.hh"

namespace {

using namespace ref;
using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::MetricsRegistry;

TEST(Counter, StartsAtZeroAndAccumulates)
{
    Counter counter;
    EXPECT_EQ(counter.value(), 0u);
    counter.add();
    counter.add(41);
    EXPECT_EQ(counter.value(), 42u);
}

TEST(Gauge, SetAndExtremes)
{
    Gauge gauge;
    EXPECT_EQ(gauge.value(), 0.0);
    gauge.set(3.5);
    EXPECT_EQ(gauge.value(), 3.5);
    gauge.set(-2.0);
    EXPECT_EQ(gauge.value(), -2.0);

    Gauge max;
    max.updateMax(1.0);
    max.updateMax(0.5);
    max.updateMax(2.0);
    EXPECT_EQ(max.value(), 2.0);
}

TEST(Histogram, BucketBoundariesAtExactPowersOfTwo)
{
    // Bucket 0 holds only 0; bucket b holds [2^(b-1), 2^b). An
    // exact power of two 2^k is the LOWER bound of bucket k+1.
    EXPECT_EQ(Histogram::bucketFor(0, 16), 0u);
    EXPECT_EQ(Histogram::bucketFor(1, 16), 1u);
    EXPECT_EQ(Histogram::bucketFor(2, 16), 2u);
    EXPECT_EQ(Histogram::bucketFor(3, 16), 2u);
    EXPECT_EQ(Histogram::bucketFor(4, 16), 3u);
    EXPECT_EQ(Histogram::bucketFor(7, 16), 3u);
    EXPECT_EQ(Histogram::bucketFor(8, 16), 4u);
    for (std::size_t k = 0; k + 2 < 16; ++k) {
        const std::uint64_t power = std::uint64_t{1} << k;
        EXPECT_EQ(Histogram::bucketFor(power, 16), k + 1)
            << "2^" << k << " must open bucket " << k + 1;
        EXPECT_EQ(Histogram::bucketFor(power - 1, 16),
                  k == 0 ? 0u : k)
            << "2^" << k << "-1 must close bucket " << k;
    }
}

TEST(Histogram, LastBucketIsUnboundedAbove)
{
    // 16 buckets cover [0, 2^15) exactly; everything at or above
    // 2^15 clamps into bucket 15, including UINT64_MAX.
    EXPECT_EQ(Histogram::bucketFor((1u << 15) - 1, 16), 15u);
    EXPECT_EQ(Histogram::bucketFor(1u << 15, 16), 15u);
    EXPECT_EQ(Histogram::bucketFor(1u << 20, 16), 15u);
    EXPECT_EQ(Histogram::bucketFor(
                  std::numeric_limits<std::uint64_t>::max(), 16),
              15u);
    EXPECT_EQ(Histogram::bucketUpperInclusive(15, 16),
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(Histogram::bucketUpperInclusive(0, 16), 0u);
    EXPECT_EQ(Histogram::bucketUpperInclusive(3, 16), 7u);

    Histogram histogram(16);
    histogram.observe(std::numeric_limits<std::uint64_t>::max());
    const auto snapshot = histogram.snapshot();
    EXPECT_EQ(snapshot.counts[15], 1u);
    EXPECT_EQ(snapshot.count, 1u);
}

TEST(Histogram, SentinelMinNeverLeaks)
{
    Histogram histogram(16);
    EXPECT_EQ(histogram.snapshot().min, 0u)
        << "empty histogram exposes min 0, not the sentinel";
    histogram.observe(900);
    EXPECT_EQ(histogram.snapshot().min, 900u)
        << "the first sample must become the minimum";
    histogram.observe(30);
    EXPECT_EQ(histogram.snapshot().min, 30u);
    EXPECT_EQ(histogram.snapshot().max, 900u);
    EXPECT_EQ(histogram.snapshot().sum, 930u);
}

TEST(Histogram, QuantileEmptyAndSingleSample)
{
    Histogram histogram(16);
    EXPECT_EQ(Histogram::quantile(histogram.snapshot(), 0.5), 0u);

    histogram.observe(42);
    const auto snap = histogram.snapshot();
    // One sample: every quantile is that sample, clamped by the
    // observed extremes regardless of the bucket's span.
    EXPECT_EQ(Histogram::quantile(snap, 0.5), 42u);
    EXPECT_EQ(Histogram::quantile(snap, 0.99), 42u);
}

TEST(Histogram, QuantileInterpolatesWithinBucket)
{
    Histogram histogram(16);
    // 100 samples spread across bucket 7 ([64, 128)): quantiles
    // must be monotone and stay inside the observed range.
    for (int i = 0; i < 100; ++i)
        histogram.observe(64 + static_cast<std::uint64_t>(i) % 64);
    const auto snap = histogram.snapshot();
    const std::uint64_t p50 = Histogram::quantile(snap, 0.50);
    const std::uint64_t p90 = Histogram::quantile(snap, 0.90);
    const std::uint64_t p99 = Histogram::quantile(snap, 0.99);
    EXPECT_GE(p50, snap.min);
    EXPECT_LE(p99, snap.max);
    EXPECT_LE(p50, p90);
    EXPECT_LE(p90, p99);
    EXPECT_GT(p99, p50) << "interpolation must spread quantiles "
                           "inside one bucket";
}

TEST(Histogram, QuantileAcrossBuckets)
{
    Histogram histogram(16);
    // 90 small samples and 10 large ones: p50 stays small, p99
    // lands in the large cluster.
    for (int i = 0; i < 90; ++i)
        histogram.observe(3);
    for (int i = 0; i < 10; ++i)
        histogram.observe(1000);
    const auto snap = histogram.snapshot();
    EXPECT_EQ(Histogram::quantile(snap, 0.50), 3u);
    const std::uint64_t p99 = Histogram::quantile(snap, 0.99);
    EXPECT_GE(p99, 512u);
    EXPECT_LE(p99, 1000u);
}

TEST(Histogram, QuantileClampsUnboundedLastBucketToMax)
{
    Histogram histogram(4);  // Buckets: {0}, [1,2), [2,4), [4,inf).
    histogram.observe(5);
    histogram.observe(700);
    const auto snap = histogram.snapshot();
    EXPECT_LE(Histogram::quantile(snap, 0.99), 700u)
        << "the unbounded bucket must clamp to the observed max";
    EXPECT_GE(Histogram::quantile(snap, 0.01), 5u);
}

TEST(MetricsRegistry, GetOrCreateReturnsSameInstance)
{
    MetricsRegistry registry;
    Counter &first = registry.counter("ref_test_total", "help");
    Counter &second = registry.counter("ref_test_total", "other");
    EXPECT_EQ(&first, &second);
    EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricsRegistry, RejectsKindMismatchAndBadNames)
{
    MetricsRegistry registry;
    registry.counter("ref_test_total", "help");
    EXPECT_THROW(registry.gauge("ref_test_total", "help"),
                 std::invalid_argument);
    EXPECT_THROW(registry.counter("0starts_with_digit", "help"),
                 std::invalid_argument);
    EXPECT_THROW(registry.counter("has space", "help"),
                 std::invalid_argument);
    EXPECT_THROW(registry.counter("", "help"),
                 std::invalid_argument);
}

TEST(MetricsRegistry, PrometheusExpositionShape)
{
    MetricsRegistry registry;
    registry.counter("ref_b_total", "second").add(7);
    registry.gauge("ref_a_gauge", "first").set(1.5);
    Histogram &histogram =
        registry.histogram("ref_lat", "latency", 4);
    histogram.observe(0);
    histogram.observe(2);
    histogram.observe(100);

    std::ostringstream out;
    registry.writePrometheus(out);
    const std::string text = out.str();

    EXPECT_NE(text.find("# HELP ref_a_gauge first"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE ref_a_gauge gauge"),
              std::string::npos);
    EXPECT_NE(text.find("ref_a_gauge 1.5"), std::string::npos);
    EXPECT_NE(text.find("# TYPE ref_b_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("ref_b_total 7"), std::string::npos);
    // Histogram: cumulative buckets ending in +Inf, plus sum/count.
    EXPECT_NE(text.find("ref_lat_bucket{le=\"0\"} 1"),
              std::string::npos);
    EXPECT_NE(text.find("ref_lat_bucket{le=\"+Inf\"} 3"),
              std::string::npos);
    EXPECT_NE(text.find("ref_lat_sum 102"), std::string::npos);
    EXPECT_NE(text.find("ref_lat_count 3"), std::string::npos);
    // Quantile companion series follow sum/count.
    EXPECT_NE(text.find("ref_lat_p50 "), std::string::npos);
    EXPECT_NE(text.find("ref_lat_p90 "), std::string::npos);
    EXPECT_NE(text.find("ref_lat_p99 "), std::string::npos);
    EXPECT_LT(text.find("ref_lat_count"), text.find("ref_lat_p50"));
    // Sorted by name: a before b before lat.
    EXPECT_LT(text.find("ref_a_gauge"), text.find("ref_b_total"));
    EXPECT_LT(text.find("ref_b_total"), text.find("ref_lat"));
}

TEST(MetricsRegistry, LabeledSeriesShareOneHeader)
{
    MetricsRegistry registry;
    registry.counter("ref_s_total", "sharded").add(1);
    registry.counter("ref_s_total{shard=\"0\"}", "sharded").add(2);
    registry.counter("ref_s_total{shard=\"1\"}", "sharded").add(3);

    std::ostringstream out;
    registry.writePrometheus(out);
    const std::string text = out.str();

    // All three series appear...
    EXPECT_NE(text.find("ref_s_total 1"), std::string::npos);
    EXPECT_NE(text.find("ref_s_total{shard=\"0\"} 2"),
              std::string::npos);
    EXPECT_NE(text.find("ref_s_total{shard=\"1\"} 3"),
              std::string::npos);
    // ...under exactly one HELP/TYPE header for the base name.
    const std::string help = "# HELP ref_s_total";
    const std::size_t first = text.find(help);
    ASSERT_NE(first, std::string::npos);
    EXPECT_EQ(text.find(help, first + 1), std::string::npos);
    const std::string type = "# TYPE ref_s_total";
    const std::size_t firstType = text.find(type);
    ASSERT_NE(firstType, std::string::npos);
    EXPECT_EQ(text.find(type, firstType + 1), std::string::npos);
}

TEST(MetricsRegistry, LabeledHistogramBucketsCarryTheSeriesLabels)
{
    MetricsRegistry registry;
    Histogram &histogram = registry.histogram(
        "ref_h_ns{shard=\"1\"}", "sharded latency", 4);
    histogram.observe(2);
    histogram.observe(100);

    std::ostringstream out;
    registry.writePrometheus(out);
    EXPECT_EQ(out.str(),
              "# HELP ref_h_ns sharded latency\n"
              "# TYPE ref_h_ns histogram\n"
              "ref_h_ns_bucket{shard=\"1\",le=\"0\"} 0\n"
              "ref_h_ns_bucket{shard=\"1\",le=\"1\"} 0\n"
              "ref_h_ns_bucket{shard=\"1\",le=\"3\"} 1\n"
              "ref_h_ns_bucket{shard=\"1\",le=\"+Inf\"} 2\n"
              "ref_h_ns_sum{shard=\"1\"} 102\n"
              "ref_h_ns_count{shard=\"1\"} 2\n"
              "ref_h_ns_p50{shard=\"1\"} 3\n"
              "ref_h_ns_p90{shard=\"1\"} 100\n"
              "ref_h_ns_p99{shard=\"1\"} 100\n");
}

TEST(MetricsRegistry, RejectsMalformedLabelBlocks)
{
    MetricsRegistry registry;
    // Unterminated block, empty block, bad label name, missing
    // quotes: all rejected up front rather than corrupting the
    // exposition.
    EXPECT_THROW(registry.counter("ref_x_total{shard=\"0\"", "h"),
                 std::invalid_argument);
    EXPECT_THROW(registry.counter("ref_x_total{}", "h"),
                 std::invalid_argument);
    EXPECT_THROW(registry.counter("ref_x_total{0bad=\"v\"}", "h"),
                 std::invalid_argument);
    EXPECT_THROW(registry.counter("ref_x_total{shard=0}", "h"),
                 std::invalid_argument);
    // A kind mismatch across series of one base name is also a bug.
    registry.counter("ref_y_total{shard=\"0\"}", "h");
    EXPECT_THROW(registry.gauge("ref_y_total{shard=\"1\"}", "h"),
                 std::invalid_argument);
}

TEST(MetricsRegistry, JsonExpositionParsesStructurally)
{
    MetricsRegistry registry;
    registry.counter("ref_c_total", "c").add(3);
    registry.gauge("ref_g", "g").set(0.25);
    registry.histogram("ref_h", "h", 4).observe(5);

    std::ostringstream out;
    registry.writeJson(out);
    const std::string text = out.str();
    EXPECT_EQ(text.front(), '{');
    EXPECT_EQ(text.back(), '}');
    EXPECT_NE(text.find("\"counters\""), std::string::npos);
    EXPECT_NE(text.find("\"ref_c_total\":3"), std::string::npos);
    EXPECT_NE(text.find("\"ref_g\":0.25"), std::string::npos);
    EXPECT_NE(text.find("\"histograms\""), std::string::npos);
    EXPECT_NE(text.find("\"count\":1"), std::string::npos);
    EXPECT_NE(text.find("\"p50\":5"), std::string::npos);
    EXPECT_NE(text.find("\"p99\":5"), std::string::npos);
}

TEST(MetricsRegistry, ConcurrentIncrementsUnderThreadPool)
{
    // The registry's hot path must be exact under contention: fan a
    // few thousand increments out over the work-stealing pool and
    // demand a perfect total.
    MetricsRegistry registry;
    Counter &counter =
        registry.counter("ref_concurrent_total", "contended");
    Histogram &histogram =
        registry.histogram("ref_concurrent_hist", "contended", 16);

    constexpr int kTasks = 64;
    constexpr int kPerTask = 500;
    {
        ThreadPool pool(4);
        std::vector<std::future<void>> futures;
        futures.reserve(kTasks);
        for (int t = 0; t < kTasks; ++t) {
            futures.push_back(pool.submit([&counter, &histogram] {
                for (int i = 0; i < kPerTask; ++i) {
                    counter.add();
                    histogram.observe(
                        static_cast<std::uint64_t>(i));
                }
            }));
        }
        for (auto &future : futures)
            future.get();
    }

    EXPECT_EQ(counter.value(),
              static_cast<std::uint64_t>(kTasks) * kPerTask);
    const auto snapshot = histogram.snapshot();
    EXPECT_EQ(snapshot.count,
              static_cast<std::uint64_t>(kTasks) * kPerTask);
    EXPECT_EQ(snapshot.min, 0u);
    EXPECT_EQ(snapshot.max, kPerTask - 1u);
}

} // namespace
