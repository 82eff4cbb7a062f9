/**
 * @file
 * Unit tests for the performance simulator: op-builder cost math, graph
 * validation, the fusion and memory-placement passes, per-op timing, and
 * whole-graph invariants.
 */

#include <gtest/gtest.h>

#include "hw/chip.h"
#include "sim/cost_model.h"
#include "sim/fusion.h"
#include "sim/graph.h"
#include "sim/memory.h"
#include "sim/ops.h"
#include "sim/simulator.h"

namespace sim = h2o::sim;
namespace hw = h2o::hw;
namespace ops = h2o::sim::ops;

// --------------------------------------------------------- op builders

TEST(Ops, MatmulCosts)
{
    sim::Op op = ops::matmul("mm", 64, 256, 128);
    EXPECT_DOUBLE_EQ(op.flops, 2.0 * 64 * 256 * 128);
    EXPECT_DOUBLE_EQ(op.inputBytes, 64 * 128 * 2.0);
    EXPECT_DOUBLE_EQ(op.outputBytes, 64 * 256 * 2.0);
    EXPECT_DOUBLE_EQ(op.paramBytes, 128 * 256 * 2.0);
    EXPECT_TRUE(op.onTensorUnit);
}

TEST(Ops, Conv2dImplicitGemmDims)
{
    sim::Op op = ops::conv2d("c", 8, 56, 56, 64, 128, 3, 3, 2);
    EXPECT_DOUBLE_EQ(op.dimM, 8.0 * 28 * 28);
    EXPECT_DOUBLE_EQ(op.dimN, 128.0);
    EXPECT_DOUBLE_EQ(op.dimK, 3.0 * 3 * 64);
    EXPECT_DOUBLE_EQ(op.flops, 2.0 * op.dimM * op.dimN * op.dimK);
    EXPECT_TRUE(op.onTensorUnit);
}

TEST(Ops, DepthwiseRunsOnVpu)
{
    sim::Op op = ops::depthwiseConv2d("dw", 8, 28, 28, 128, 3, 3, 1);
    EXPECT_FALSE(op.onTensorUnit);
    EXPECT_DOUBLE_EQ(op.flops, 2.0 * 8 * 28 * 28 * 128 * 9);
}

TEST(Ops, MbconvVsFusedFlopsOrdering)
{
    // Fused MBConv has MORE total FLOPs than MBConv at equal shape
    // (Figure 4 of the paper: more compute, higher intensity).
    double b = 8, r = 28, c = 64, e = 4;
    double mb = ops::conv2d("e", b, r, r, c, c * e, 1, 1, 1).flops +
                ops::depthwiseConv2d("d", b, r, r, c * e, 3, 3, 1).flops +
                ops::conv2d("p", b, r, r, c * e, c, 1, 1, 1).flops;
    double fused = ops::conv2d("f", b, r, r, c, c * e, 3, 3, 1).flops +
                   ops::conv2d("p", b, r, r, c * e, c, 1, 1, 1).flops;
    EXPECT_GT(fused, mb);
}

TEST(Ops, AttentionScalesQuadraticallyInSeq)
{
    double f1 = ops::attention("a", 1, 196, 768, 12).flops;
    double f2 = ops::attention("a", 1, 392, 768, 12).flops;
    EXPECT_GT(f2, 2.0 * f1);  // projections 2x + scores 4x
    EXPECT_LT(f2, 4.0 * f1);
}

TEST(Ops, CollectiveCosts)
{
    sim::Op a2a = ops::allToAll("x", 1e6);
    EXPECT_DOUBLE_EQ(a2a.networkBytes, 1e6);
    sim::Op ar = ops::allReduce("r", 1e6);
    EXPECT_DOUBLE_EQ(ar.networkBytes, 2e6); // ring factor
}

TEST(Ops, FreeReshapeCostsNothing)
{
    sim::Op r = ops::reshape("s2d", 1e6, /*free=*/true);
    EXPECT_DOUBLE_EQ(r.inputBytes + r.outputBytes, 0.0);
}

// --------------------------------------------------------------- graph

TEST(Graph, ValidatesTopologicalOrder)
{
    sim::Graph g("t");
    sim::OpId a = g.add(ops::matmul("a", 8, 8, 8));
    sim::Op b = ops::matmul("b", 8, 8, 8);
    b.inputs = {a};
    g.add(std::move(b));
    g.validate();
    EXPECT_EQ(g.size(), 2u);
}

TEST(Graph, ForwardReferencePanics)
{
    sim::Graph g("t");
    sim::Op a = ops::matmul("a", 8, 8, 8);
    a.inputs = {5};
    EXPECT_DEATH(g.add(std::move(a)), "future op");
}

TEST(Graph, TotalsSkipFusedOps)
{
    sim::Graph g("t");
    sim::OpId a = g.add(ops::matmul("a", 8, 8, 8));
    sim::Op act = ops::elementwise("act", 64, 1.0);
    act.inputs = {a};
    g.add(std::move(act));
    double before = g.totalFlops();
    sim::fuseGraph(g);
    // Fused-away op's flops move into the head's fusedVpuFlops, which
    // totalFlops does not double count.
    EXPECT_DOUBLE_EQ(g.totalFlops(), before - 64.0);
    EXPECT_DOUBLE_EQ(g.op(0).fusedVpuFlops, 64.0);
}

// -------------------------------------------------------------- fusion

TEST(Fusion, FoldsSingleConsumerChains)
{
    sim::Graph g("t");
    sim::OpId mm = g.add(ops::matmul("mm", 32, 32, 32));
    sim::Op bn = ops::norm("bn", 1024);
    bn.inputs = {mm};
    sim::OpId bn_id = g.add(std::move(bn));
    sim::Op act = ops::elementwise("act", 1024, 1.0);
    act.inputs = {bn_id};
    g.add(std::move(act));

    auto stats = sim::fuseGraph(g);
    EXPECT_EQ(stats.fusedOps, 2u);
    EXPECT_TRUE(g.op(1).fusedAway);
    EXPECT_TRUE(g.op(2).fusedAway);
    EXPECT_FALSE(g.op(0).fusedAway);
    EXPECT_GT(g.op(0).fusedVpuFlops, 0.0);
}

TEST(Fusion, MultiConsumerBlocksFusion)
{
    sim::Graph g("t");
    sim::OpId mm = g.add(ops::matmul("mm", 32, 32, 32));
    sim::Op a = ops::elementwise("a", 1024, 1.0);
    a.inputs = {mm};
    g.add(std::move(a));
    sim::Op b = ops::elementwise("b", 1024, 1.0);
    b.inputs = {mm};
    g.add(std::move(b));

    auto stats = sim::fuseGraph(g);
    EXPECT_EQ(stats.fusedOps, 0u); // mm has two consumers
}

TEST(Fusion, NonFusableOpSurvives)
{
    sim::Graph g("t");
    sim::OpId mm = g.add(ops::matmul("mm", 32, 32, 32));
    sim::Op pool = ops::pool("pool", 1024, 32);
    pool.inputs = {mm};
    g.add(std::move(pool));
    auto stats = sim::fuseGraph(g);
    EXPECT_EQ(stats.fusedOps, 0u);
}

TEST(Fusion, ReducesSimulatedTime)
{
    // A memory-bound matmul + activation chain must get faster with
    // fusion (the intermediate tensor round-trip disappears).
    sim::Graph g("t");
    sim::OpId mm = g.add(ops::matmul("mm", 4096, 64, 64));
    sim::Op act = ops::elementwise("act", 4096.0 * 64, 1.0);
    act.inputs = {mm};
    g.add(std::move(act));

    sim::SimConfig with{hw::tpuV4i(), true, true, {}};
    sim::SimConfig without{hw::tpuV4i(), false, true, {}};
    double t_fused = sim::Simulator(with).run(g).stepTimeSec;
    double t_plain = sim::Simulator(without).run(g).stepTimeSec;
    EXPECT_LT(t_fused, t_plain);
}

// -------------------------------------------------------------- memory

TEST(Memory, SmallTensorsGoOnChip)
{
    sim::Graph g("t");
    g.add(ops::matmul("mm", 64, 64, 64)); // tiny activations
    auto stats = sim::placeMemory(g, hw::tpuV4i(), {});
    EXPECT_EQ(stats.onChipTensors, 1u);
    EXPECT_DOUBLE_EQ(g.op(0).onChipFraction, 1.0);
}

TEST(Memory, HugeTensorsSpill)
{
    sim::Graph g("t");
    // ~1.3 GB activation: far beyond 128 MB CMEM.
    g.add(ops::matmul("mm", 1 << 20, 512, 128));
    auto stats = sim::placeMemory(g, hw::tpuV4i(), {});
    EXPECT_EQ(stats.spilledTensors, 1u);
    EXPECT_LT(g.op(0).onChipFraction, 0.2);
}

TEST(Memory, SmallModelsGetResidentParams)
{
    sim::Graph g("t");
    g.add(ops::matmul("mm", 64, 256, 256)); // 128 KB of weights
    auto stats = sim::placeMemory(g, hw::tpuV4i(), {});
    EXPECT_TRUE(stats.paramsResident);
    EXPECT_TRUE(g.op(0).paramsOnChip);
}

TEST(Memory, LargeModelsStreamParams)
{
    sim::Graph g("t");
    g.add(ops::matmul("mm", 64, 32768, 32768)); // 2 GB of weights
    auto stats = sim::placeMemory(g, hw::tpuV4i(), {});
    EXPECT_FALSE(stats.paramsResident);
    EXPECT_FALSE(g.op(0).paramsOnChip);
}

TEST(Memory, EmbeddingGathersNeverCache)
{
    sim::Graph g("t");
    g.add(ops::embeddingLookup("emb", 1e8, 64)); // huge gather stream
    sim::placeMemory(g, hw::tpuV4i(), {});
    EXPECT_DOUBLE_EQ(g.op(0).onChipFraction, 0.0);
}

// ---------------------------------------------------------- cost model

TEST(CostModel, TensorOpBoundTransition)
{
    hw::ChipSpec chip = hw::tpuV4i();
    // High-intensity op: compute bound.
    sim::Op big = ops::matmul("big", 4096, 4096, 4096);
    big.onChipFraction = 0.0;
    auto t_big = sim::timeOp(chip, big);
    EXPECT_EQ(t_big.boundBy, hw::BoundBy::TensorCompute);
    // Tile-aligned but low-intensity op (~128 FLOP/B, below the v4i
    // ridge of ~225): memory bound.
    sim::Op thin = ops::matmul("thin", 1 << 18, 128, 128);
    thin.onChipFraction = 0.0;
    auto t_thin = sim::timeOp(chip, thin);
    EXPECT_EQ(t_thin.boundBy, hw::BoundBy::Memory);
    // Misaligned tiny dims become tile-quantization (tensor) bound even
    // at low intensity — the hardware-cliff behavior Section 2.2 warns
    // about.
    sim::Op tiny = ops::matmul("tiny", 1 << 18, 8, 8);
    tiny.onChipFraction = 0.0;
    EXPECT_EQ(sim::timeOp(chip, tiny).boundBy, hw::BoundBy::TensorCompute);
}

TEST(CostModel, OnChipPlacementShrinksHbmTraffic)
{
    hw::ChipSpec chip = hw::tpuV4i();
    sim::Op op = ops::matmul("mm", 1024, 256, 256);
    op.onChipFraction = 0.0;
    auto spilled = sim::timeOp(chip, op);
    op.onChipFraction = 1.0;
    auto resident = sim::timeOp(chip, op);
    EXPECT_LT(resident.hbmBytes, spilled.hbmBytes);
    EXPECT_GT(resident.onChipBytes, spilled.onChipBytes);
    EXPECT_LE(resident.seconds, spilled.seconds);
}

TEST(CostModel, NetworkBoundCollective)
{
    hw::ChipSpec chip = hw::tpuV4();
    sim::Op a2a = ops::allToAll("x", 1e9);
    auto t = sim::timeOp(chip, a2a);
    EXPECT_EQ(t.boundBy, hw::BoundBy::Network);
    EXPECT_NEAR(t.seconds, 1e9 / chip.iciBandwidth, 1e-12);
}

TEST(CostModel, TileQuantizationSlowsSmallDims)
{
    hw::ChipSpec chip = hw::tpuV4();
    sim::Op aligned = ops::matmul("a", 4096, 128, 128);
    sim::Op misaligned = ops::matmul("m", 4096, 32, 128);
    aligned.onChipFraction = misaligned.onChipFraction = 1.0;
    auto ta = sim::timeOp(chip, aligned);
    auto tm = sim::timeOp(chip, misaligned);
    // The misaligned op does 1/4 the FLOPs but at 1/4 efficiency: equal
    // tensor-unit busy time.
    EXPECT_NEAR(tm.tensorBusySec, ta.tensorBusySec, 1e-12);
}

// ----------------------------------------------------------- simulator

namespace {

/** A small chain graph: conv -> norm -> act -> conv. */
sim::Graph
chainGraph()
{
    sim::Graph g("chain");
    sim::OpId c1 = g.add(ops::conv2d("c1", 8, 56, 56, 32, 64, 3, 3, 1));
    sim::Op n = ops::norm("n", 8.0 * 56 * 56 * 64);
    n.inputs = {c1};
    sim::OpId nid = g.add(std::move(n));
    sim::Op a = ops::elementwise("a", 8.0 * 56 * 56 * 64, 5.0);
    a.inputs = {nid};
    sim::OpId aid = g.add(std::move(a));
    sim::Op c2 = ops::conv2d("c2", 8, 56, 56, 64, 64, 3, 3, 1);
    c2.inputs = {aid};
    g.add(std::move(c2));
    return g;
}

} // namespace

TEST(Simulator, BasicInvariants)
{
    sim::Simulator simulator({hw::tpuV4i(), true, true, {}});
    auto res = simulator.run(chainGraph());
    EXPECT_GT(res.stepTimeSec, 0.0);
    EXPECT_GT(res.totalFlops, 0.0);
    EXPECT_DOUBLE_EQ(res.achievedFlops, res.totalFlops / res.stepTimeSec);
    EXPECT_LE(res.achievedFlops, hw::tpuV4i().peakTensorFlops * 1.05);
    EXPECT_GE(res.stepTimeSec, res.tensorBusySec);
    EXPECT_GE(res.stepTimeSec, res.criticalPathSec - 1e-15);
    EXPECT_GT(res.avgPowerW, hw::tpuV4i().idlePowerW);
    EXPECT_DOUBLE_EQ(res.energyPerStepJ, res.avgPowerW * res.stepTimeSec);
}

TEST(Simulator, MoreComputeTakesLonger)
{
    sim::Simulator simulator({hw::tpuV4i(), true, true, {}});
    sim::Graph small("s");
    small.add(ops::matmul("m", 1024, 1024, 1024));
    sim::Graph large("l");
    large.add(ops::matmul("m", 4096, 1024, 1024));
    EXPECT_LT(simulator.run(small).stepTimeSec,
              simulator.run(large).stepTimeSec);
}

TEST(Simulator, ParallelBranchesOverlap)
{
    // Two independent ops on DIFFERENT resources should overlap: a
    // tensor-bound matmul and a network-bound all-to-all.
    sim::Graph g("par");
    g.add(ops::matmul("mm", 4096, 4096, 4096));
    g.add(ops::allToAll("a2a", 1e8));
    sim::Simulator simulator({hw::tpuV4(), true, true, {}});
    std::vector<sim::OpTiming> per_op;
    auto res = simulator.run(g, &per_op);
    double mm_time = per_op[0].seconds;
    double net_time = per_op[1].seconds;
    EXPECT_LT(res.stepTimeSec, mm_time + net_time);
    EXPECT_GE(res.stepTimeSec, std::max(mm_time, net_time) - 1e-12);
}

TEST(Simulator, ChainSerializes)
{
    sim::Graph g("chain2");
    sim::OpId a = g.add(ops::matmul("a", 2048, 2048, 2048));
    sim::Op b = ops::matmul("b", 2048, 2048, 2048);
    b.inputs = {a};
    g.add(std::move(b));
    sim::Simulator simulator({hw::tpuV4(), true, true, {}});
    std::vector<sim::OpTiming> per_op;
    auto res = simulator.run(g, &per_op);
    EXPECT_NEAR(res.criticalPathSec,
                per_op[0].seconds + per_op[1].seconds, 1e-12);
}

TEST(Simulator, RunDoesNotMutateCallerGraph)
{
    sim::Graph g = chainGraph();
    sim::Simulator simulator({hw::tpuV4i(), true, true, {}});
    simulator.run(g);
    for (const auto &op : g.ops()) {
        EXPECT_FALSE(op.fusedAway);
        EXPECT_DOUBLE_EQ(op.onChipFraction, 0.0);
    }
}

TEST(Simulator, DeterministicAcrossRuns)
{
    sim::Simulator simulator({hw::tpuV4i(), true, true, {}});
    auto g = chainGraph();
    auto r1 = simulator.run(g);
    auto r2 = simulator.run(g);
    EXPECT_DOUBLE_EQ(r1.stepTimeSec, r2.stepTimeSec);
    EXPECT_DOUBLE_EQ(r1.hbmBytes, r2.hbmBytes);
}

TEST(Simulator, PerOpTimingsOnRequestLeaveAggregateUnchanged)
{
    sim::Simulator simulator({hw::tpuV4i(), true, true, {}});
    auto g = chainGraph();
    auto plain = simulator.run(g);
    std::vector<sim::OpTiming> per_op(3); // resized to the graph
    auto timed = simulator.run(g, &per_op);
    EXPECT_EQ(timed.stepTimeSec, plain.stepTimeSec);
    EXPECT_EQ(timed.tensorBusySec, plain.tensorBusySec);
    EXPECT_EQ(timed.vpuBusySec, plain.vpuBusySec);
    EXPECT_EQ(timed.hbmBytes, plain.hbmBytes);
    EXPECT_EQ(timed.criticalPathSec, plain.criticalPathSec);
    EXPECT_EQ(timed.energyPerStepJ, plain.energyPerStepJ);
    EXPECT_EQ(timed.liveOps, plain.liveOps);
    EXPECT_EQ(timed.fusedOps, plain.fusedOps);
    ASSERT_EQ(per_op.size(), g.size());

    // The aggregate is the in-order sum over live ops; fused ops keep
    // zeroed entries, so summing every entry reproduces it exactly.
    double tensor = 0.0, vpu = 0.0, hbm = 0.0;
    size_t timed_ops = 0;
    for (const sim::OpTiming &t : per_op) {
        tensor += t.tensorBusySec;
        vpu += t.vpuBusySec;
        hbm += t.hbmBytes;
        timed_ops += t.seconds > 0.0 ? 1 : 0;
    }
    EXPECT_EQ(tensor, plain.tensorBusySec);
    EXPECT_EQ(vpu, plain.vpuBusySec);
    EXPECT_EQ(hbm, plain.hbmBytes);
    EXPECT_EQ(timed_ops, plain.liveOps);
}
