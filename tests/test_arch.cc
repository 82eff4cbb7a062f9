/**
 * @file
 * Unit tests for architecture configs and their lowering to simulator
 * graphs: analytic vs graph-derived costs, training/serving structure,
 * DLRM parallel branches, and the MBConv/F-MBConv building blocks.
 */

#include <gtest/gtest.h>

#include "arch/conv_arch.h"
#include "arch/dlrm_arch.h"
#include "arch/vit_arch.h"
#include "hw/chip.h"
#include "sim/ops.h"
#include "sim/simulator.h"

namespace arch = h2o::arch;
namespace sim = h2o::sim;
namespace hw = h2o::hw;

namespace {

arch::DlrmArch
tinyDlrm()
{
    arch::DlrmArch a;
    a.name = "tiny";
    a.numDenseFeatures = 4;
    a.tables = {{1000, 16, 1.0}, {500, 8, 2.0}};
    a.bottomMlp = {{32, 0}};
    a.topMlp = {{64, 0}, {32, 0}};
    a.globalBatch = 1024;
    return a;
}

} // namespace

// ---------------------------------------------------------------- DLRM

TEST(DlrmArch, ParamCountDecomposes)
{
    arch::DlrmArch a = tinyDlrm();
    double emb = 1000.0 * 16 + 500.0 * 8;
    EXPECT_DOUBLE_EQ(a.embeddingParamCount(), emb);
    // bottom: 4*32+32 ; top input = 16+8+32 = 56 ; top: 56*64+64 +
    // 64*32+32 ; logit: 32+1
    double dense = (4.0 * 32 + 32) + (56.0 * 64 + 64) + (64.0 * 32 + 32) +
                   (32.0 + 1);
    EXPECT_DOUBLE_EQ(a.denseParamCount(), dense);
    EXPECT_DOUBLE_EQ(a.paramCount(), emb + dense);
}

TEST(DlrmArch, LowRankReducesFlopsAndParams)
{
    arch::DlrmArch full = tinyDlrm();
    arch::DlrmArch low = tinyDlrm();
    low.topMlp[0].rank = 8; // 56x64 -> 56x8 + 8x64
    EXPECT_LT(low.denseParamCount(), full.denseParamCount());
    EXPECT_LT(low.flopsPerExample(), full.flopsPerExample());
}

TEST(DlrmArch, RemovedTableDropsOut)
{
    arch::DlrmArch a = tinyDlrm();
    a.tables[1].width = 0;
    EXPECT_EQ(a.totalEmbeddingWidth(), 16u);
    hw::Platform p{hw::tpuV4(), 4};
    sim::Graph g = arch::buildDlrmGraph(a, p, arch::ExecMode::Serving);
    for (const auto &op : g.ops())
        EXPECT_EQ(op.name.find("emb1"), std::string::npos);
}

TEST(DlrmArch, GraphHasParallelEmbeddingBranches)
{
    arch::DlrmArch a = tinyDlrm();
    hw::Platform p{hw::tpuV4(), 4};
    sim::Graph g = arch::buildDlrmGraph(a, p, arch::ExecMode::Serving);
    g.validate();
    size_t lookups = 0, a2a = 0, matmuls = 0;
    for (const auto &op : g.ops()) {
        if (op.kind == sim::OpKind::EmbeddingLookup)
            ++lookups;
        if (op.kind == sim::OpKind::AllToAll)
            ++a2a;
        if (op.kind == sim::OpKind::Matmul)
            ++matmuls;
    }
    EXPECT_EQ(lookups, 2u);
    EXPECT_EQ(a2a, 2u);             // model-parallel exchange per table
    EXPECT_EQ(matmuls, 1u + 2u + 1u); // bottom + top + logit
}

TEST(DlrmArch, SingleChipHasNoCollectives)
{
    arch::DlrmArch a = tinyDlrm();
    hw::Platform p{hw::tpuV4i(), 1};
    sim::Graph g = arch::buildDlrmGraph(a, p, arch::ExecMode::Serving);
    for (const auto &op : g.ops())
        EXPECT_EQ(op.networkBytes, 0.0) << op.name;
}

TEST(DlrmArch, TrainingAddsBackwardAndAllReduce)
{
    arch::DlrmArch a = tinyDlrm();
    hw::Platform p{hw::tpuV4(), 4};
    sim::Graph serve = arch::buildDlrmGraph(a, p, arch::ExecMode::Serving);
    sim::Graph train = arch::buildDlrmGraph(a, p, arch::ExecMode::Training);
    EXPECT_GT(train.size(), serve.size());
    // Training FLOPs ~ 3x forward (fwd + 2x bwd).
    EXPECT_NEAR(train.totalFlops() / serve.totalFlops(), 3.0, 0.35);
    bool has_allreduce = false;
    for (const auto &op : train.ops())
        if (op.kind == sim::OpKind::AllReduce)
            has_allreduce = true;
    EXPECT_TRUE(has_allreduce);
}

TEST(DlrmArch, BaselineIsMlpHeavy)
{
    // Section 7.1.2: the production baseline's MLP compute time is much
    // longer than its embedding time — verify via per-branch sim times.
    arch::DlrmArch a = arch::baselineDlrm();
    hw::Platform p = hw::trainingPlatform();
    sim::Graph g = arch::buildDlrmGraph(a, p, arch::ExecMode::Training);
    sim::Simulator simulator({p.chip, true, true, {}});
    std::vector<sim::OpTiming> per_op;
    simulator.run(g, &per_op);
    double emb_time = 0.0, mlp_time = 0.0;
    for (size_t i = 0; i < g.size(); ++i) {
        const auto &op = g.op(static_cast<sim::OpId>(i));
        if (op.kind == sim::OpKind::EmbeddingLookup ||
            op.kind == sim::OpKind::AllToAll)
            emb_time += per_op[i].seconds;
        if (op.kind == sim::OpKind::Matmul)
            mlp_time += per_op[i].seconds;
    }
    EXPECT_GT(mlp_time, 1.5 * emb_time);
}

TEST(DlrmArch, BatchSmallerThanChipsPanics)
{
    arch::DlrmArch a = tinyDlrm();
    a.globalBatch = 2;
    hw::Platform p{hw::tpuV4(), 4};
    EXPECT_DEATH(arch::buildDlrmGraph(a, p, arch::ExecMode::Serving),
                 "smaller than chip count");
}

// ----------------------------------------------------------------- CNN

namespace {

arch::ConvArch
tinyConv()
{
    arch::ConvArch a;
    a.name = "tinyconv";
    a.resolution = 64;
    a.stemFilters = 16;
    a.perChipBatch = 8;
    arch::ConvStageConfig s;
    s.type = arch::BlockType::MBConv;
    s.kernel = 3;
    s.stride = 2;
    s.expansion = 4.0;
    s.seRatio = 0.25;
    s.layers = 2;
    s.filters = 32;
    a.stages = {s};
    return a;
}

} // namespace

TEST(ConvArch, FlopsScaleWithResolution)
{
    arch::ConvArch small = tinyConv();
    arch::ConvArch big = tinyConv();
    big.resolution = 128;
    double ratio = big.flopsPerImage() / small.flopsPerImage();
    EXPECT_NEAR(ratio, 4.0, 0.8); // ~res^2
}

TEST(ConvArch, ParamsIndependentOfResolutionAndBatch)
{
    arch::ConvArch a = tinyConv();
    double p1 = a.paramCount();
    a.resolution = 128;
    a.perChipBatch = 32;
    EXPECT_DOUBLE_EQ(a.paramCount(), p1);
}

TEST(ConvArch, FusedBlockHasMoreFlops)
{
    arch::ConvArch mb = tinyConv();
    arch::ConvArch fused = tinyConv();
    fused.stages[0].type = arch::BlockType::FusedMBConv;
    EXPECT_GT(fused.flopsPerImage(), mb.flopsPerImage());
}

TEST(ConvArch, SpaceToDepthRemovesStemConv3x3)
{
    arch::ConvArch plain = tinyConv();
    arch::ConvArch s2d = tinyConv();
    s2d.spaceToDepthStem = true;
    hw::Platform p{hw::tpuV4i(), 1};
    sim::Graph g = arch::buildConvGraph(s2d, p, arch::ExecMode::Serving);
    bool saw_s2d = false;
    for (const auto &op : g.ops())
        if (op.name == "stem_s2d")
            saw_s2d = true;
    EXPECT_TRUE(saw_s2d);
}

TEST(ConvArch, SkipConnectionOnlyWhenShapesMatch)
{
    arch::ConvArch a = tinyConv();
    hw::Platform p{hw::tpuV4i(), 1};
    sim::Graph g = arch::buildConvGraph(a, p, arch::ExecMode::Serving);
    size_t skips = 0;
    for (const auto &op : g.ops())
        if (op.name.find("_skip") != std::string::npos)
            ++skips;
    // Stage has 2 layers; only the second (stride 1, cin==cout) skips.
    EXPECT_EQ(skips, 1u);
}

TEST(ConvArch, SingleBlockGraphsForFig4)
{
    sim::Graph mbc = arch::buildSingleBlockGraph(arch::BlockType::MBConv,
                                                 64, 28, 3, 6.0, 8);
    sim::Graph fmbc = arch::buildSingleBlockGraph(
        arch::BlockType::FusedMBConv, 64, 28, 3, 6.0, 8);
    EXPECT_GT(fmbc.totalFlops(), mbc.totalFlops());
    // MBConv contains a depthwise (VPU) op, fused must not.
    auto has_dw = [](const sim::Graph &g) {
        for (const auto &op : g.ops())
            if (op.kind == sim::OpKind::DepthwiseConv2d)
                return true;
        return false;
    };
    EXPECT_TRUE(has_dw(mbc));
    EXPECT_FALSE(has_dw(fmbc));
}

TEST(ConvArch, FusedHasHigherOperationalIntensity)
{
    // The Figure 4b claim: F-MBConv always has better FLOPS throughput
    // because of higher operational intensity.
    sim::Simulator simulator({hw::tpuV4i(), true, true, {}});
    for (uint32_t depth : {16u, 32u, 64u, 128u}) {
        auto mbc = simulator.run(arch::buildSingleBlockGraph(
            arch::BlockType::MBConv, depth, 28, 3, 6.0, 8));
        auto fmbc = simulator.run(arch::buildSingleBlockGraph(
            arch::BlockType::FusedMBConv, depth, 28, 3, 6.0, 8));
        EXPECT_GT(fmbc.operationalIntensity, mbc.operationalIntensity)
            << "depth " << depth;
        EXPECT_GT(fmbc.achievedFlops, mbc.achievedFlops)
            << "depth " << depth;
    }
}

// ----------------------------------------------------------------- ViT

namespace {

arch::VitArch
tinyVit()
{
    arch::VitArch a;
    a.name = "tinyvit";
    a.resolution = 64;
    a.patch = 8;
    a.perChipBatch = 4;
    arch::TfmBlockConfig t;
    t.hidden = 128;
    t.layers = 2;
    t.heads = 4;
    a.tfmBlocks = {t};
    return a;
}

} // namespace

TEST(VitArch, PureVitLowering)
{
    arch::VitArch a = tinyVit();
    hw::Platform p{hw::tpuV4i(), 1};
    sim::Graph g = arch::buildVitGraph(a, p, arch::ExecMode::Serving);
    g.validate();
    size_t attn = 0;
    for (const auto &op : g.ops())
        if (op.kind == sim::OpKind::Attention)
            ++attn;
    EXPECT_EQ(attn, 2u);
    EXPECT_GT(a.paramCount(), 0.0);
}

TEST(VitArch, SeqPoolReducesFlops)
{
    arch::VitArch plain = tinyVit();
    plain.tfmBlocks.push_back(plain.tfmBlocks[0]);
    arch::VitArch funnel = plain;
    funnel.tfmBlocks[0].seqPool = true;
    EXPECT_LT(funnel.flopsPerImage(), plain.flopsPerImage());
}

TEST(VitArch, PrimerAddsDepthwiseOps)
{
    arch::VitArch a = tinyVit();
    a.tfmBlocks[0].primer = true;
    hw::Platform p{hw::tpuV4i(), 1};
    sim::Graph g = arch::buildVitGraph(a, p, arch::ExecMode::Serving);
    size_t dconv = 0;
    for (const auto &op : g.ops())
        if (op.name.find("primer") != std::string::npos)
            ++dconv;
    EXPECT_EQ(dconv, 2u);
}

TEST(VitArch, LowRankFfnReducesFlops)
{
    arch::VitArch full = tinyVit();
    arch::VitArch low = tinyVit();
    low.tfmBlocks[0].lowRank = 0.2;
    EXPECT_LT(low.flopsPerImage(), full.flopsPerImage());
}

TEST(VitArch, HybridHasConvAndTransformer)
{
    arch::VitArch a = tinyVit();
    arch::ConvStageConfig c;
    c.type = arch::BlockType::MBConv;
    c.stride = 2;
    c.expansion = 4.0;
    c.layers = 2;
    c.filters = 32;
    a.convStages = {c};
    hw::Platform p{hw::tpuV4i(), 1};
    sim::Graph g = arch::buildVitGraph(a, p, arch::ExecMode::Serving);
    bool has_conv = false, has_attn = false;
    for (const auto &op : g.ops()) {
        if (op.kind == sim::OpKind::Conv2d)
            has_conv = true;
        if (op.kind == sim::OpKind::Attention)
            has_attn = true;
    }
    EXPECT_TRUE(has_conv);
    EXPECT_TRUE(has_attn);
}

TEST(VitArch, TrainingRoughlyTriplesFlops)
{
    arch::VitArch a = tinyVit();
    hw::Platform p{hw::tpuV4(), 8};
    sim::Graph serve = arch::buildVitGraph(a, p, arch::ExecMode::Serving);
    sim::Graph train = arch::buildVitGraph(a, p, arch::ExecMode::Training);
    EXPECT_NEAR(train.totalFlops() / serve.totalFlops(), 3.0, 0.3);
}
