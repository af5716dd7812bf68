/**
 * @file
 * Fig 2 - per-bank energy of SCA over a 64 ms interval as the number
 * of counters sweeps 16..65536: counter energy (dynamic + static),
 * victim-refresh energy (averaged over the 18 workloads), and the
 * total, plus the optimistic 2K/8K counter-cache horizontal lines.
 * The paper's observation: the total is minimized near M=128.
 *
 * The 18 workloads x 13 counter sizes run as one SweepRunner grid, so
 * the 18 baselines are computed in parallel; the means accumulate in
 * workload order from the cell-indexed results, so the table matches
 * the old serial loop byte for byte at any CATSIM_JOBS.
 */

#include <algorithm>
#include <iostream>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "energy/hw_model.hpp"
#include "bench_common.hpp"

using namespace catsim;

namespace
{

/** Tag of a workload's activation-rate cell (SCA cells carry 0). */
constexpr std::uint64_t kActsCell = 1;

} // namespace

int
main()
{
    const double scale = benchScale();
    SweepRunner sweep(scale);
    benchBanner("Fig 2: SCA energy vs number of counters", scale,
                sweep.jobs());

    const std::uint32_t counters[] = {16,   32,   64,   128,  256,
                                      512,  1024, 2048, 4096, 8192,
                                      16384, 32768, 65536};
    const std::size_t nM = std::size(counters);

    // One grid: per workload, its activation-rate cell, then one SCA
    // cell per M.  Each cell's value is per bank per interval.
    const auto &suite = workloadSuite();
    std::vector<SweepCell> cells;
    cells.reserve(suite.size() * (nM + 1));
    for (const auto &profile : suite) {
        SweepCell acts;
        acts.workload.name = profile.name;
        acts.tag = kActsCell;
        cells.push_back(acts);
        for (std::uint32_t m : counters) {
            SweepCell c;
            c.workload.name = profile.name;
            c.scheme = mkScheme(SchemeKind::Sca, m, 11, 32768);
            cells.push_back(c);
        }
    }
    const auto perBankInterval = sweep.runMetric(
        cells, [](ExperimentRunner &runner, const SweepCell &c) {
            const auto &base = runner.baseline(c.preset, c.workload);
            const double banks =
                static_cast<double>(base.bankStreams.size());
            const double epochs = std::max<double>(
                1.0, static_cast<double>(base.epochs));
            if (c.tag == kActsCell)
                return static_cast<double>(base.totalActivations)
                       / banks / epochs;
            const auto r = runner.evalCmrpo(c.preset, c.workload,
                                            c.scheme);
            // Rows refreshed per bank per interval: threshold and
            // epoch length co-scale, so a scaled epoch already
            // estimates one unscaled interval's refreshes.
            return static_cast<double>(r.stats.victimRowsRefreshed)
                   / banks / epochs;
        });

    // Averages over the full workload suite, accumulated in workload
    // order.
    RunningStat actsPerBankInterval;
    std::vector<RunningStat> refreshRows(nM); // per M index
    std::size_t idx = 0;
    for (std::size_t w = 0; w < suite.size(); ++w) {
        actsPerBankInterval.add(perBankInterval[idx++]);
        for (std::size_t i = 0; i < nM; ++i)
            refreshRows[i].add(perBankInterval[idx++]);
    }

    const double acts = actsPerBankInterval.mean() / scale;
    std::cout << "mean activations per bank per 64 ms interval: "
              << TextTable::fixed(acts, 0) << "\n\n";

    TextTable table({"M", "counter energy (nJ)", "refresh (nJ)",
                     "total (nJ)"});
    double bestTotal = 1e300;
    std::uint32_t bestM = 0;
    for (std::size_t i = 0; i < nM; ++i) {
        const auto hw =
            HwModel::cost(SchemeKind::Sca, counters[i], 11, 32768);
        const double counterNj =
            hw.dynPerAccess * acts + hw.staticPerInterval;
        const double refreshNj = refreshRows[i].mean()
                                 * EnergyConstants::kRefreshPerRowNj;
        const double total = counterNj + refreshNj;
        if (total < bestTotal) {
            bestTotal = total;
            bestM = counters[i];
        }
        if (counters[i] == 16 || counters[i] == 128)
            benchMetric("sca_refresh_nj_M" + std::to_string(counters[i]),
                        refreshNj);
        table.addRow({TextTable::num(counters[i]),
                      TextTable::sci(counterNj, 2),
                      TextTable::sci(refreshNj, 2),
                      TextTable::sci(total, 2)});
    }
    table.print(std::cout);

    std::cout << "\nCounter-cache baselines (optimistic, no-miss; "
                 "Fig 2 horizontal lines):\n";
    TextTable cc({"cache", "energy (nJ per interval)",
                  "equals SCA at"});
    for (std::uint32_t c : {2048u, 8192u}) {
        const auto hw =
            HwModel::cost(SchemeKind::CounterCache, c, 0, 32768);
        cc.addRow({std::to_string(c / 1024) + "K counters",
                   TextTable::sci(hw.dynPerAccess * acts
                                      + hw.staticPerInterval,
                                  2),
                   "SCA_" + std::to_string(2 * c)});
    }
    cc.print(std::cout);

    std::cout << "\ntotal minimized at M=" << bestM
              << " (paper: M=128)\n";
    benchMetric("sca_energy_best_m", bestM);
    return 0;
}
