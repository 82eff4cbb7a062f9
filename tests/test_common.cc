/**
 * @file
 * Unit tests for the common substrate: RNG determinism and samplers,
 * statistics, bucketizer, tables, and flag parsing.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/flags.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"

namespace hc = h2o::common;

// ---------------------------------------------------------------- Rng

TEST(Rng, SameSeedSameStream)
{
    hc::Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    hc::Rng a(42), b(43);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next64() == b.next64())
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Rng, ForkIsDeterministicAndDecorrelated)
{
    hc::Rng parent1(7), parent2(7);
    hc::Rng c1 = parent1.fork(3);
    hc::Rng c2 = parent2.fork(3);
    EXPECT_EQ(c1.next64(), c2.next64());

    hc::Rng p(7);
    hc::Rng a = p.fork(1);
    hc::Rng b = p.fork(2);
    EXPECT_NE(a.next64(), b.next64());
}

TEST(Rng, UniformInRange)
{
    hc::Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
    for (int i = 0; i < 1000; ++i) {
        double u = rng.uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, UniformIntInclusiveBounds)
{
    hc::Rng rng(2);
    bool hit_lo = false, hit_hi = false;
    for (int i = 0; i < 2000; ++i) {
        int64_t v = rng.uniformInt(0, 4);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 4);
        hit_lo |= v == 0;
        hit_hi |= v == 4;
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(Rng, NormalMoments)
{
    hc::Rng rng(3);
    hc::RunningStat stat;
    for (int i = 0; i < 20000; ++i)
        stat.push(rng.normal(2.0, 0.5));
    EXPECT_NEAR(stat.mean(), 2.0, 0.02);
    EXPECT_NEAR(stat.stddev(), 0.5, 0.02);
}

TEST(Rng, CategoricalRespectsWeights)
{
    hc::Rng rng(4);
    std::vector<double> weights = {1.0, 0.0, 3.0};
    std::vector<int> counts(3, 0);
    for (int i = 0; i < 8000; ++i)
        counts[rng.categorical(weights)] += 1;
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(double(counts[2]) / double(counts[0]), 3.0, 0.4);
}

TEST(Rng, ZipfSkewsTowardHead)
{
    hc::Rng rng(5);
    std::vector<int> counts(10, 0);
    for (int i = 0; i < 5000; ++i)
        counts[rng.zipf(10, 1.2)] += 1;
    EXPECT_GT(counts[0], counts[5]);
    EXPECT_GT(counts[0], counts[9]);
}

TEST(Rng, PermutationIsAPermutation)
{
    hc::Rng rng(6);
    auto perm = rng.permutation(50);
    std::vector<bool> seen(50, false);
    for (size_t v : perm) {
        ASSERT_LT(v, 50u);
        EXPECT_FALSE(seen[v]);
        seen[v] = true;
    }
}

TEST(Rng, BernoulliFrequency)
{
    hc::Rng rng(7);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

// -------------------------------------------------------------- stats

TEST(Stats, MeanVarianceStddev)
{
    std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(hc::mean(xs), 2.5);
    EXPECT_DOUBLE_EQ(hc::variance(xs), 1.25);
    EXPECT_DOUBLE_EQ(hc::stddev(xs), std::sqrt(1.25));
}

TEST(Stats, Geomean)
{
    std::vector<double> xs = {1.0, 4.0, 16.0};
    EXPECT_NEAR(hc::geomean(xs), 4.0, 1e-12);
}

TEST(Stats, RmseAndNrmse)
{
    std::vector<double> pred = {1.0, 2.0, 3.0};
    std::vector<double> truth = {1.0, 2.0, 3.0};
    EXPECT_DOUBLE_EQ(hc::rmse(pred, truth), 0.0);
    pred = {2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(hc::rmse(pred, truth), 1.0);
    EXPECT_DOUBLE_EQ(hc::nrmse(pred, truth), 0.5); // mean(truth) = 2
}

TEST(Stats, Mape)
{
    std::vector<double> pred = {1.1, 1.9};
    std::vector<double> truth = {1.0, 2.0};
    EXPECT_NEAR(hc::mape(pred, truth), 0.075, 1e-12);
}

TEST(Stats, PearsonPerfectAndInverse)
{
    std::vector<double> xs = {1, 2, 3, 4};
    std::vector<double> ys = {2, 4, 6, 8};
    EXPECT_NEAR(hc::pearson(xs, ys), 1.0, 1e-12);
    std::vector<double> zs = {8, 6, 4, 2};
    EXPECT_NEAR(hc::pearson(xs, zs), -1.0, 1e-12);
}

TEST(Stats, SpearmanMonotone)
{
    std::vector<double> xs = {1, 2, 3, 4, 5};
    std::vector<double> ys = {1, 8, 27, 64, 125}; // monotone, nonlinear
    EXPECT_NEAR(hc::spearman(xs, ys), 1.0, 1e-12);
}

TEST(Stats, RanksAverageTies)
{
    auto r = hc::ranks({10.0, 20.0, 20.0, 30.0});
    EXPECT_DOUBLE_EQ(r[0], 1.0);
    EXPECT_DOUBLE_EQ(r[1], 2.5);
    EXPECT_DOUBLE_EQ(r[2], 2.5);
    EXPECT_DOUBLE_EQ(r[3], 4.0);
}

TEST(Stats, QuantileInterpolates)
{
    std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(hc::quantile(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(hc::quantile(xs, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(hc::quantile(xs, 0.5), 2.5);
}

TEST(Stats, BucketizerAveragesWithinBuckets)
{
    hc::Bucketizer b(2);
    b.add(0.0, 1.0);
    b.add(0.1, 3.0);
    b.add(1.0, 10.0);
    auto buckets = b.buckets();
    ASSERT_EQ(buckets.size(), 2u);
    EXPECT_DOUBLE_EQ(buckets[0].meanY, 2.0);
    EXPECT_EQ(buckets[0].count, 2u);
    EXPECT_DOUBLE_EQ(buckets[1].meanY, 10.0);
}

TEST(Stats, BucketizerDegenerateRange)
{
    hc::Bucketizer b(4);
    b.add(5.0, 1.0);
    b.add(5.0, 3.0);
    auto buckets = b.buckets();
    ASSERT_EQ(buckets.size(), 1u);
    EXPECT_DOUBLE_EQ(buckets[0].meanY, 2.0);
}

TEST(Stats, RunningStatMatchesBatch)
{
    hc::RunningStat rs;
    std::vector<double> xs = {3.0, 1.0, 4.0, 1.0, 5.0};
    for (double x : xs)
        rs.push(x);
    EXPECT_NEAR(rs.mean(), hc::mean(xs), 1e-12);
    EXPECT_NEAR(rs.variance(), hc::variance(xs), 1e-12);
    EXPECT_DOUBLE_EQ(rs.min(), 1.0);
    EXPECT_DOUBLE_EQ(rs.max(), 5.0);
}

// -------------------------------------------------------------- table

TEST(Table, FormatsRowsAndCsv)
{
    hc::AsciiTable t("demo");
    t.setHeader({"a", "b"});
    t.addRow({"1", "2"});
    t.addRow({"333", "4"});
    std::ostringstream os;
    t.print(os);
    EXPECT_NE(os.str().find("demo"), std::string::npos);
    EXPECT_NE(os.str().find("333"), std::string::npos);

    std::ostringstream csv;
    t.printCsv(csv);
    EXPECT_EQ(csv.str(), "a,b\n1,2\n333,4\n");
}

TEST(Table, NumericFormatters)
{
    EXPECT_EQ(hc::AsciiTable::num(1.23456, 2), "1.23");
    EXPECT_EQ(hc::AsciiTable::times(1.539, 2), "1.54x");
    EXPECT_EQ(hc::AsciiTable::pct(0.224, 1), "22.4%");
}

TEST(Table, MismatchedRowPanics)
{
    hc::AsciiTable t("bad");
    t.setHeader({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "row width");
}

// -------------------------------------------------------------- flags

TEST(Flags, ParsesAllTypes)
{
    hc::Flags flags;
    flags.defineInt("steps", 10, "steps");
    flags.defineDouble("lr", 0.5, "learning rate");
    flags.defineString("chip", "tpuv4", "chip");
    flags.defineBool("verbose", false, "verbosity");

    const char *argv[] = {"prog", "--steps=20", "--lr", "0.25",
                          "--chip=v100", "--verbose"};
    flags.parse(6, const_cast<char **>(argv));
    EXPECT_EQ(flags.getInt("steps"), 20);
    EXPECT_DOUBLE_EQ(flags.getDouble("lr"), 0.25);
    EXPECT_EQ(flags.getString("chip"), "v100");
    EXPECT_TRUE(flags.getBool("verbose"));
}

TEST(Flags, DefaultsSurviveNoArgs)
{
    hc::Flags flags;
    flags.defineInt("n", 7, "n");
    const char *argv[] = {"prog"};
    flags.parse(1, const_cast<char **>(argv));
    EXPECT_EQ(flags.getInt("n"), 7);
}

TEST(Flags, UnknownFlagIsFatal)
{
    hc::Flags flags;
    flags.defineInt("n", 7, "n");
    const char *argv[] = {"prog", "--bogus=1"};
    EXPECT_EXIT(flags.parse(2, const_cast<char **>(argv)),
                testing::ExitedWithCode(1), "unknown flag");
}

TEST(Flags, MalformedIntIsFatal)
{
    hc::Flags flags;
    flags.defineInt("n", 7, "n");
    for (const char *arg : {"--n=abc", "--n=99999999999999999999"}) {
        const char *argv[] = {"prog", arg};
        EXPECT_EXIT(flags.parse(2, const_cast<char **>(argv)),
                    testing::ExitedWithCode(1), "expects an integer")
            << arg;
    }
}

// ------------------------------------------------------------ logging

TEST(Logging, LevelsFilter)
{
    auto prev = hc::logLevel();
    hc::setLogLevel(hc::LogLevel::Silent);
    hc::inform("this should not crash");
    hc::warn("nor this");
    hc::setLogLevel(prev);
    SUCCEED();
}

TEST(Logging, PanicAborts)
{
    EXPECT_DEATH(h2o_panic("boom"), "boom");
}

TEST(Logging, AssertMessage)
{
    EXPECT_DEATH(h2o_assert(1 == 2, "math broke"), "assertion failed");
}
