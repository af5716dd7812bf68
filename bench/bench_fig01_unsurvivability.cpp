/**
 * @file
 * Fig 1 - PRA 5-year unsurvivability for refresh thresholds 32K, 24K,
 * 16K and 8K as the refresh probability p sweeps 0.001..0.006, with
 * the Chipkill 1e-4 bar; plus the Section III-A Monte-Carlo result
 * showing what an LFSR-based PRNG does to PRA.
 */

#include <iostream>

#include "common/table.hpp"
#include "reliability/montecarlo.hpp"
#include "reliability/unsurvivability.hpp"
#include "sim/checkpoint.hpp"
#include "bench_common.hpp"

using namespace catsim;

int
main()
{
    benchBanner("Fig 1: PRA unsurvivability (5 years)", 1.0);

    // Crash safety: with CATSIM_CHECKPOINT=dir the Monte-Carlo section
    // journals each trial batch; a killed run resumes from the journal
    // and prints byte-identical output.
    const std::string ckptDir = checkpointDirFromEnv();

    // Paper setting: "Assuming mild row accesses during refresh
    // intervals, we set Q0 to 10, 15, 20, and 40" for T = 32K..8K.
    const std::uint32_t thresholds[] = {32768, 24576, 16384, 8192};
    const double q0s[] = {10.0, 15.0, 20.0, 40.0};

    TextTable table({"p", "T=32k(Q0=10)", "T=24k(Q0=15)",
                     "T=16k(Q0=20)", "T=8k(Q0=40)", "beats Chipkill"});
    for (double p = 0.001; p <= 0.0061; p += 0.001) {
        std::vector<std::string> row{TextTable::fixed(p, 3)};
        int beats = 0;
        for (int i = 0; i < 4; ++i) {
            const double u =
                praUnsurvivability(thresholds[i], p, q0s[i], 5.0);
            beats += u < kChipkillUnsurvivability;
            row.push_back(TextTable::sci(u, 2));
            // Reference-guard the analytic curve at one p per column.
            if (p > 0.0049 && p < 0.0051)
                benchMetric("unsurvivability_p005_T"
                                + std::to_string(thresholds[i]),
                            u);
        }
        row.push_back(std::to_string(beats) + "/4");
        table.addRow(std::move(row));
    }
    table.print(std::cout);
    std::cout << "\nChipkill reference: "
              << TextTable::sci(kChipkillUnsurvivability, 1) << "\n";

    std::cout << "\nMinimum safe p per threshold (paper Section "
                 "VIII-C choices in parentheses):\n";
    TextTable minp({"T", "min safe p", "paper uses"});
    const char *paperP[] = {"0.001", "-", "0.003", "0.005"};
    const std::uint32_t ts[] = {65536, 32768, 16384, 8192};
    const double qs[] = {10.0, 10.0, 20.0, 40.0};
    const char *pp[] = {"0.001", "0.002", "0.003", "0.005"};
    (void)paperP;
    for (int i = 0; i < 4; ++i) {
        minp.addRow({std::to_string(ts[i]),
                     TextTable::fixed(
                         minimumSafeProbability(ts[i], qs[i], 5.0), 4),
                     pp[i]});
    }
    minp.print(std::cout);

    // Section III-A Monte-Carlo: LFSR-based PRNG vs true PRNG, as a
    // resumable batched campaign (one journaled record per batch).
    std::cout << "\nMonte-Carlo, T=16K p=0.005 (Section III-A):\n";
    TextTable mc({"PRNG", "window failure prob",
                  "unsurvivability after 25 intervals (Q0=20)"});
    {
        McCampaignSpec spec;
        spec.prng = McCampaignSpec::Prng::True;
        spec.seed = 2024;
        const auto r = praWindowFailuresResumable(spec, ckptDir);
        mc.addRow({"true-prng", TextTable::sci(r.windowFailureProb, 2),
                   TextTable::sci(r.unsurvivabilityAfter(20.0, 25.0),
                                  2)});
        benchMetric("mc_window_failure_true_prng", r.windowFailureProb);
    }
    {
        // p=0.005 uses 8-bit draws whose only accepting word is zero;
        // a maximal 8-bit LFSR never emits 8 consecutive zeros.
        McCampaignSpec spec;
        spec.prng = McCampaignSpec::Prng::Lfsr;
        spec.lfsrWidth = 8;
        spec.seed = 0xAB;
        const auto r = praWindowFailuresResumable(spec, ckptDir);
        mc.addRow({"lfsr-prng", TextTable::sci(r.windowFailureProb, 2),
                   TextTable::sci(r.unsurvivabilityAfter(20.0, 25.0),
                                  2)});
        benchMetric("mc_window_failure_lfsr_prng", r.windowFailureProb);
    }
    mc.print(std::cout);
    std::cout << "\nExpected shape: unsurvivability rises exponentially "
                 "as T shrinks; the LFSR PRNG ruins PRA reliability.\n";
    return 0;
}
