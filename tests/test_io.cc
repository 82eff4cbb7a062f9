/**
 * @file
 * Unit tests for checkpointing (tagged serialization, Policy and
 * PerfModel save/load round-trips) and the simulator graph dumps.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "arch/conv_arch.h"
#include "baselines/efficientnet.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "controller/policy.h"
#include "perfmodel/perf_model.h"
#include "searchspace/decision_space.h"
#include "sim/dump.h"
#include "sim/fusion.h"
#include "sim/ops.h"
#include "sim/simulator.h"

namespace hc = h2o::common;
namespace ctl = h2o::controller;
namespace pm = h2o::perfmodel;
namespace ss = h2o::searchspace;
namespace sim = h2o::sim;
namespace hw = h2o::hw;
using h2o::common::Rng;

// ----------------------------------------------------------- serialize

TEST(Serialize, TaggedRoundTrip)
{
    std::stringstream buf;
    hc::writeTagged(buf, "weights", {1.5, -2.25, 1e-9});
    hc::writeTaggedScalar(buf, "count", 42.0);
    auto weights = hc::readTagged(buf, "weights");
    ASSERT_EQ(weights.size(), 3u);
    EXPECT_DOUBLE_EQ(weights[0], 1.5);
    EXPECT_DOUBLE_EQ(weights[1], -2.25);
    EXPECT_DOUBLE_EQ(weights[2], 1e-9);
    EXPECT_DOUBLE_EQ(hc::readTaggedScalar(buf, "count"), 42.0);
}

TEST(Serialize, PreservesFullDoublePrecision)
{
    std::stringstream buf;
    double value = 0.1234567890123456789;
    hc::writeTaggedScalar(buf, "x", value);
    EXPECT_DOUBLE_EQ(hc::readTaggedScalar(buf, "x"), value);
}

TEST(Serialize, WrongTagIsFatal)
{
    std::stringstream buf;
    hc::writeTagged(buf, "alpha", {1.0});
    EXPECT_EXIT(hc::readTagged(buf, "beta"), testing::ExitedWithCode(1),
                "expected tag");
}

TEST(Serialize, TruncatedStreamIsFatal)
{
    std::stringstream buf("tag weights 5\n1.0 2.0");
    EXPECT_EXIT(hc::readTagged(buf, "weights"),
                testing::ExitedWithCode(1), "truncated");
}

// -------------------------------------------------------------- policy

TEST(PolicyIo, RoundTripPreservesDistribution)
{
    ss::DecisionSpace space;
    space.add("a", 3);
    space.add("b", 5);
    ctl::Policy original(space);
    original.accumulateGrad({2, 4}, 1.7);
    original.applyGrad(0.5);

    std::stringstream buf;
    original.save(buf);
    ctl::Policy restored(space);
    restored.load(buf);

    for (size_t d = 0; d < 2; ++d) {
        auto p1 = original.probs(d);
        auto p2 = restored.probs(d);
        for (size_t j = 0; j < p1.size(); ++j)
            EXPECT_DOUBLE_EQ(p1[j], p2[j]);
    }
    EXPECT_EQ(original.argmax(), restored.argmax());
}

TEST(PolicyIo, StructureMismatchIsFatal)
{
    ss::DecisionSpace small, large;
    small.add("a", 3);
    large.add("a", 3);
    large.add("b", 2);
    ctl::Policy src(small);
    std::stringstream buf;
    src.save(buf);
    ctl::Policy dst(large);
    EXPECT_EXIT(dst.load(buf), testing::ExitedWithCode(1),
                "decisions");
}

// ------------------------------------------------------------ perfmodel

TEST(PerfModelIo, RoundTripPreservesPredictions)
{
    Rng rng(5);
    pm::PerfModelConfig cfg;
    cfg.hiddenWidth = 16;
    cfg.hiddenLayers = 1;
    cfg.epochs = 20;
    pm::PerfModel original(3, cfg, rng);

    std::vector<std::vector<double>> x;
    std::vector<std::array<double, 2>> y;
    Rng data(6);
    for (int i = 0; i < 300; ++i) {
        double a = data.uniform(-1, 1), b = data.uniform(-1, 1),
               c = data.uniform(-1, 1);
        x.push_back({a, b, c});
        y.push_back({std::exp(a + 0.3 * b), std::exp(0.5 * c)});
    }
    original.train(x, y, rng);
    original.setCalibration(0, {0.1, 1.0}, -5.0, 5.0);

    std::stringstream buf;
    original.save(buf);

    Rng rng2(999); // different init: load must overwrite everything
    pm::PerfModel restored(3, cfg, rng2);
    restored.load(buf);

    for (int i = 0; i < 20; ++i) {
        std::vector<double> f = {data.uniform(-1, 1), data.uniform(-1, 1),
                                 data.uniform(-1, 1)};
        auto p1 = original.predict(f);
        auto p2 = restored.predict(f);
        EXPECT_NEAR(p1.trainStepTimeSec, p2.trainStepTimeSec,
                    1e-9 * p1.trainStepTimeSec);
        EXPECT_NEAR(p1.servingTimeSec, p2.servingTimeSec,
                    1e-9 * p1.servingTimeSec);
    }
}

TEST(PerfModelIo, TopologyMismatchIsFatal)
{
    Rng rng(7);
    pm::PerfModelConfig cfg;
    cfg.hiddenWidth = 16;
    cfg.hiddenLayers = 1;
    cfg.epochs = 2;
    pm::PerfModel src(3, cfg, rng);
    std::vector<std::vector<double>> x = {{1, 2, 3}, {4, 5, 6},
                                          {7, 8, 9}, {1, 0, 1}};
    std::vector<std::array<double, 2>> y = {
        {1.0, 1.0}, {2.0, 2.0}, {3.0, 3.0}, {1.5, 1.5}};
    src.train(x, y, rng);
    std::stringstream buf;
    src.save(buf);

    pm::PerfModelConfig other = cfg;
    other.hiddenWidth = 32;
    pm::PerfModel dst(3, other, rng);
    EXPECT_EXIT(dst.load(buf), testing::ExitedWithCode(1), "topology");
}

TEST(PerfModelIo, SavingUntrainedPanics)
{
    Rng rng(8);
    pm::PerfModel model(2, {}, rng);
    std::stringstream buf;
    EXPECT_DEATH(model.save(buf), "untrained");
}

// ---------------------------------------------------------------- dump

namespace {

sim::Graph
smallGraph()
{
    sim::Graph g("dumpme");
    sim::OpId a = g.add(sim::ops::matmul("mm", 64, 64, 64));
    sim::Op act = sim::ops::elementwise("act", 4096, 1.0);
    act.inputs = {a};
    g.add(std::move(act));
    return g;
}

} // namespace

TEST(Dump, TextDumpMentionsEveryOp)
{
    std::ostringstream os;
    sim::dumpGraph(smallGraph(), os);
    EXPECT_NE(os.str().find("dumpme"), std::string::npos);
    EXPECT_NE(os.str().find("mm"), std::string::npos);
    EXPECT_NE(os.str().find("act"), std::string::npos);
    EXPECT_NE(os.str().find("matmul"), std::string::npos);
}

TEST(Dump, TimingDumpMatchesSimulation)
{
    sim::Graph g = smallGraph();
    // Simulate a private copy the same way Simulator::run does, then
    // dump against the same annotated graph.
    sim::Simulator simulator({hw::tpuV4i(), false, true, {}});
    std::vector<sim::OpTiming> per_op;
    auto res = simulator.run(g, &per_op);
    std::ostringstream os;
    sim::dumpGraphWithTimings(g, res, per_op, os);
    EXPECT_NE(os.str().find("step="), std::string::npos);
    EXPECT_NE(os.str().find("bound"), std::string::npos);
}

TEST(Dump, TimingDumpSizeMismatchPanics)
{
    sim::Graph g = smallGraph();
    sim::SimResult res;
    std::vector<sim::OpTiming> per_op; // no timings for the graph's ops
    std::ostringstream os;
    EXPECT_DEATH(sim::dumpGraphWithTimings(g, res, per_op, os),
                 "does not match graph");
}

TEST(Dump, DotOutputIsWellFormed)
{
    std::ostringstream os;
    sim::dumpDot(smallGraph(), os);
    std::string dot = os.str();
    EXPECT_EQ(dot.find("digraph"), 0u);
    EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
    EXPECT_NE(dot.find("}"), std::string::npos);
    // Tensor-unit ops are highlighted.
    EXPECT_NE(dot.find("lightblue"), std::string::npos);
}

TEST(Dump, DotMarksFusedOpsDashed)
{
    sim::Graph g = smallGraph();
    sim::fuseGraph(g);
    std::ostringstream os;
    sim::dumpDot(g, os);
    EXPECT_NE(os.str().find("dashed"), std::string::npos);
}
