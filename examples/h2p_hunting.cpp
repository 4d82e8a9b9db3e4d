/**
 * @file
 * H2P hunting: apply the paper's screening methodology to one
 * workload — slice the trace, screen H2Ps per slice, rank the heavy
 * hitters, and inspect the top one's dependency branches and register
 * values. A guided tour of the analysis pipeline.
 *
 * Usage: h2p_hunting [--workload=xz_like] [--slice=500000]
 *                    [--slices=6]
 */

#include <algorithm>
#include <cstdio>

#include "analysis/depgraph.hpp"
#include "analysis/heavy_hitters.hpp"
#include "analysis/regvalues.hpp"
#include "bp/factory.hpp"
#include "core/runner.hpp"
#include "faultsim/faultsim.hpp"
#include "obs/report.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "workloads/suite.hpp"

using namespace bpnsp;

int
main(int argc, char **argv)
{
    OptionParser opts("Hunt H2P branches in one workload.");
    opts.addString("workload", "xz_like", "workload name");
    opts.addInt("slice", 500000, "slice length");
    opts.addInt("slices", 6, "number of slices");
    opts.parse(argc, argv);
    obs::configureFromOptions(opts);
    faultsim::configureFromOptions(opts);

    const Workload w = findWorkload(opts.getString("workload"));
    const uint64_t slice =
        static_cast<uint64_t>(opts.getInt("slice"));
    const uint64_t slices =
        static_cast<uint64_t>(opts.getInt("slices"));

    // Screen per slice, exactly as Sec. III-A prescribes.
    auto bp = makePredictor("tage-sc-l-8KB");
    SlicedBranchStats stats(*bp, slice);
    runWorkloadTrace(w, 0, {&stats}, slice * slices);
    const H2pCriteria criteria = H2pCriteria{}.scaledTo(slice);
    const H2pSummary summary = summarizeH2ps(stats, criteria);

    std::printf("%s: %llu instructions, accuracy %.4f "
                "(excl. H2Ps: %.4f)\n",
                w.name.c_str(),
                static_cast<unsigned long long>(stats.instructions()),
                stats.accuracy(), summary.accuracyExclH2p);
    std::printf("H2Ps: %zu unique across slices, %.1f per slice, "
                "causing %.1f%% of slice mispredictions\n\n",
                summary.allH2ps.size(), summary.avgPerSlice,
                summary.avgMispredFraction * 100);

    const auto ranked = rankHeavyHitters(
        stats.totals(), summary.allH2ps, stats.condMispreds());
    TextTable table("Heavy hitters (ranked by dynamic executions)");
    table.setHeader({"rank", "ip", "execs", "mispredicts", "accuracy",
                     "cum. mispred fraction"});
    for (size_t i = 0; i < std::min<size_t>(8, ranked.size()); ++i) {
        char ip_str[32];
        std::snprintf(ip_str, sizeof(ip_str), "0x%llx",
                      static_cast<unsigned long long>(ranked[i].ip));
        table.beginRow();
        table.cell(static_cast<uint64_t>(i + 1));
        table.cell(std::string(ip_str));
        table.cell(ranked[i].execs);
        table.cell(ranked[i].mispreds);
        table.cell(1.0 - static_cast<double>(ranked[i].mispreds) /
                             static_cast<double>(ranked[i].execs),
                   3);
        table.cell(ranked[i].cumulativeMispredFraction, 3);
    }
    std::printf("%s\n", table.render().c_str());
    if (ranked.empty())
        return 0;

    // Deep-dive the top heavy hitter: dependency branches (Sec. IV-A)
    // and register values (Fig. 10).
    const uint64_t target = ranked.front().ip;
    DependencyAnalyzer deps(target, 5000, 8);
    RegValueProfiler regs(target);
    // Second pass over the same trace: the VM is deterministic, so it
    // delivers the same records again.
    runWorkloadTrace(w, 0, {&deps, &regs}, slice * slices);

    std::printf("Top heavy hitter 0x%llx:\n",
                static_cast<unsigned long long>(target));
    std::printf("  %zu dependency branches at history positions "
                "[%u..%u] over %llu analyzed executions\n",
                deps.dependencyBranches().size(),
                deps.dependencyBranches().empty() ? 0
                                                  : deps.minPosition(),
                deps.maxPosition(),
                static_cast<unsigned long long>(
                    deps.analyzedExecutions()));
    for (unsigned r = 0; r < kNumRegs; ++r) {
        if (regs.distinctValues(r) >= 2 &&
            regs.concentration(r, 4) > 0.5) {
            std::printf("  r%-2u carries structure: %zu distinct "
                        "values, top-4 cover %.0f%% of samples\n",
                        r, regs.distinctValues(r),
                        regs.concentration(r, 4) * 100);
        }
    }
    return 0;
}
