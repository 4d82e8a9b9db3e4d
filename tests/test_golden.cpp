/**
 * @file
 * Golden bit-identity table: committed mispredict counts, core-model
 * cycles and frontend target mispredicts for a fixed (workload x
 * predictor) grid. Every hot-path optimization of the predictors, the
 * history registers or the core model must leave these numbers
 * unchanged; a mismatch prints the row the code now produces.
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <sstream>
#include <string>

#include "bp/factory.hpp"
#include "bp/sim.hpp"
#include "bp/tage.hpp"
#include "core/runner.hpp"
#include "frontend/frontend.hpp"
#include "pipeline/core.hpp"
#include "util/bitops.hpp"
#include "workloads/suite.hpp"

using namespace bpnsp;

namespace {

constexpr uint64_t kInstructions = 200000;

constexpr std::array<const char *, 6> kPredictors = {
    "tage-sc-l-8KB", "tage-sc-l-64KB", "tage-8KB",
    "ppm",           "perceptron",     "gshare",
};

struct GoldenRow
{
    const char *workload;
    std::array<uint64_t, kPredictors.size()> mispredicts;
    uint64_t cycles8;        ///< 1x core on tage-sc-l-8KB, no frontend
    uint64_t cycles64;       ///< 1x core on tage-sc-l-64KB + frontend
    uint64_t targetMispredicts;
    uint64_t allocDigest;    ///< tage-8KB allocation events, hashed
};

// Input 0 of each workload, kInstructions instructions on the VM.
// Columns follow kPredictors.
const GoldenRow kGolden[] = {
    {"mcf_like", {2044, 1134, 2093, 2487, 2081, 2428},
     190179, 170288, 0, 0xa7d64c6dba4a6508ull},
    {"leela_like", {4796, 4844, 4986, 7363, 5593, 5251},
     171542, 172739, 0, 0x154f385dfba84c00ull},
    {"deepsjeng_like", {1719, 1639, 1745, 2071, 2084, 2072},
     152504, 149970, 0, 0x26d24a4404d3d044ull},
    {"xz_like", {3597, 3594, 3955, 4398, 3612, 4312},
     156252, 155281, 0, 0xaf58b20ece2ebb30ull},
    {"gcc_like", {8546, 8446, 8475, 8587, 10980, 11630},
     585812, 584868, 0, 0x1b1ca9fe562fc187ull},
    {"rdbms", {7315, 7141, 7239, 7435, 10061, 10098},
     512887, 506550, 0, 0x801de79889bdbe63ull},
    {"game", {13863, 13859, 13920, 14044, 15293, 16597},
     1316605, 1354422, 0, 0x7b3d198005a21f8cull},
    {"vcall", {3988, 3584, 3955, 4108, 5274, 7756},
     425834, 528530, 2312, 0x537bfcea67ebf6cull},
    {"interp_like", {1877, 1874, 1953, 2144, 1913, 6131},
     213553, 303971, 2690, 0x546c6f0bce51ad8cull},
};

/** Hashes every allocation event, evicted owner included. */
class AllocationDigest : public TageAllocationListener
{
  public:
    void
    onAllocation(uint64_t ip, unsigned table, uint64_t entry_id,
                 uint64_t evicted_ip) override
    {
        for (uint64_t v : {ip, static_cast<uint64_t>(table), entry_id,
                           evicted_ip})
            digest = hashCombine(digest, v);
    }

    uint64_t digest = 0;
};

GoldenRow
measure(const char *workload)
{
    std::vector<std::unique_ptr<BranchPredictor>> predictors;
    std::vector<std::unique_ptr<PredictorSim>> sims;
    std::vector<TraceSink *> sinks;
    for (const char *name : kPredictors) {
        predictors.push_back(makePredictor(name));
        sims.push_back(
            std::make_unique<PredictorSim>(*predictors.back(), false));
        sinks.push_back(sims.back().get());
    }
    AllocationDigest allocations;
    auto *tage = dynamic_cast<TagePredictor *>(predictors[2].get());
    EXPECT_NE(tage, nullptr);
    if (tage != nullptr)
        tage->setAllocationListener(&allocations);
    FrontendModel frontend{FrontendConfig()};
    sinks.push_back(&frontend);
    CoreModel core8(CoreConfig::skylake(), *sims[0]);
    CoreModel core64(CoreConfig::skylake(), *sims[1], &frontend);
    sinks.push_back(&core8);
    sinks.push_back(&core64);

    const uint64_t executed =
        runTrace(findWorkload(workload).build(0), sinks, kInstructions);
    EXPECT_EQ(executed, kInstructions) << workload;

    GoldenRow row{};
    row.workload = workload;
    for (size_t p = 0; p < sims.size(); ++p)
        row.mispredicts[p] = sims[p]->condMispreds();
    row.cycles8 = core8.counters().cycles;
    row.cycles64 = core64.counters().cycles;
    row.targetMispredicts = frontend.targetMispredicts();
    row.allocDigest = allocations.digest;
    return row;
}

std::string
render(const GoldenRow &row)
{
    std::ostringstream oss;
    oss << "{\"" << row.workload << "\", {";
    for (size_t p = 0; p < row.mispredicts.size(); ++p)
        oss << (p ? ", " : "") << row.mispredicts[p];
    oss << "}, " << row.cycles8 << ", " << row.cycles64 << ", "
        << row.targetMispredicts << ", 0x" << std::hex
        << row.allocDigest << "ull},";
    return oss.str();
}

void
PrintTo(const GoldenRow &row, std::ostream *os)
{
    *os << render(row);
}

class GoldenTest : public ::testing::TestWithParam<GoldenRow>
{};

TEST_P(GoldenTest, BitIdentical)
{
    const GoldenRow &want = GetParam();
    const GoldenRow got = measure(want.workload);
    EXPECT_EQ(render(got), render(want))
        << "the first row is what the code now produces";
}

INSTANTIATE_TEST_SUITE_P(
    Table, GoldenTest, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<GoldenRow> &info) {
        return std::string(info.param.workload);
    });

} // namespace
