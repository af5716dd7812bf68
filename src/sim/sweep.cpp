#include "sweep.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <sstream>
#include <utility>

namespace catsim
{

namespace
{

/** Canonical spec string: the whole cell, so a changed grid misses. */
std::string
cellSpec(const SweepCell &c)
{
    return c.system().format() + "|tag=" + std::to_string(c.tag);
}

std::string
cellSpec(const AdaptiveCell &c)
{
    std::ostringstream os;
    os << SystemConfig{c.preset, WorkloadSpec{}, c.scheme}.format()
       << "|attacker=" << attackerKindName(c.attack.attacker)
       << "|mode=" << static_cast<int>(c.attack.mode)
       << "|kernel=" << c.attack.kernel << "|seed=" << c.attack.seed
       << "|targets=" << c.attack.targetsPerBank
       << "|epochs=" << c.attack.epochs;
    return os.str();
}

std::string
cellLabel(const SweepCell &c)
{
    return c.label();
}

std::string
cellLabel(const AdaptiveCell &c)
{
    return std::string(attackerKindName(c.attack.attacker)) + "@"
           + SystemConfig{c.preset, WorkloadSpec{}, c.scheme}.label();
}

template <typename Cell>
std::vector<std::string>
specsOf(const std::vector<Cell> &cells)
{
    std::vector<std::string> specs;
    specs.reserve(cells.size());
    for (const auto &c : cells)
        specs.push_back(cellSpec(c));
    return specs;
}

template <typename Cell>
std::vector<std::string>
labelsOf(const std::vector<Cell> &cells)
{
    std::vector<std::string> labels;
    labels.reserve(cells.size());
    for (const auto &c : cells)
        labels.push_back(cellLabel(c));
    return labels;
}

/**
 * Baseline-first dispatch order: cells sorted stably by how many
 * earlier cells share their baseline cache key.  The first cell of
 * every distinct baseline starts before any baseline's second cell,
 * so the workers compute different baselines at once instead of
 * queueing behind one, and later cells find theirs cached.
 */
std::vector<std::size_t>
baselineFirstOrder(const ExperimentRunner &runner,
                   const std::vector<SweepCell> &cells)
{
    std::map<std::string, std::size_t> seen;
    std::vector<std::size_t> rank(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i)
        rank[i] = seen[runner.cacheKey(cells[i].preset,
                                       cells[i].workload)]++;
    std::vector<std::size_t> order(cells.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&rank](std::size_t a, std::size_t b) {
                         return rank[a] < rank[b];
                     });
    return order;
}

/** Journal blob codecs; doubles bit-exact so resumes are identical. */
std::string
encodeResult(double v)
{
    BlobWriter w;
    w.putDouble(v);
    return w.str();
}

bool
decodeResult(const std::string &blob, double *v)
{
    BlobReader r(blob);
    return r.getDouble(v) && r.atEnd();
}

std::string
encodeResult(const EvalResult &e)
{
    BlobWriter w;
    w.putDouble(e.cmrpo);
    w.putDouble(e.power.dynamic);
    w.putDouble(e.power.statik);
    w.putDouble(e.power.refresh);
    w.putDouble(e.baselineSeconds);
    putStats(w, e.stats);
    return w.str();
}

bool
decodeResult(const std::string &blob, EvalResult *e)
{
    BlobReader r(blob);
    return r.getDouble(&e->cmrpo) && r.getDouble(&e->power.dynamic)
           && r.getDouble(&e->power.statik)
           && r.getDouble(&e->power.refresh)
           && r.getDouble(&e->baselineSeconds)
           && getStats(r, &e->stats) && r.atEnd();
}

/** Mark a permanently-failed cell's result slot. */
void
markFailed(double *v)
{
    *v = std::numeric_limits<double>::quiet_NaN();
}

void
markFailed(EvalResult *e)
{
    *e = EvalResult{};
    e->cmrpo = std::numeric_limits<double>::quiet_NaN();
}

} // namespace

SweepRunner::SweepRunner(double scale, std::size_t jobs)
    : runner_(scale), jobs_(jobs ? jobs : 1),
      checkpointDir_(checkpointDirFromEnv()),
      keepGoing_(keepGoingFromEnv())
{
}

template <typename Result>
std::vector<Result>
SweepRunner::runJournaled(const char *kind,
                          const std::vector<std::string> &specs,
                          std::vector<std::string> labels,
                          std::vector<std::size_t> order,
                          const std::function<Result(std::size_t)> &eval)
{
    const std::size_t n = specs.size();
    errors_.clear();
    resumedCells_ = 0;
    const std::uint64_t seq = callSeq_[kind]++;

    GridRun grid;
    grid.name = kind;
    grid.labels = std::move(labels);
    grid.order = std::move(order);
    grid.checkpointDir = checkpointDir_;
    grid.jobs = jobs_;
    grid.keepGoing = keepGoing_;
    grid.keys.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        grid.keys.push_back(std::string(kind) + '#' + std::to_string(i)
                            + '|' + specs[i]);
    if (!checkpointDir_.empty()) {
        std::ostringstream runKey;
        runKey << kind << "|seq=" << seq << "|scale=" << std::hexfloat
               << scale() << "|cells=" << n;
        for (const auto &k : grid.keys)
            runKey << '|' << k;
        grid.runKey = runKey.str();
    }

    std::vector<Result> results(n);
    GridOutcome outcome = runJournaledGrid(
        grid,
        [&results](std::size_t i, const std::string &blob) {
            return decodeResult(blob, &results[i]);
        },
        [&results, &eval](std::size_t i) {
            results[i] = eval(i);
            return encodeResult(results[i]);
        });
    for (const CellError &e : outcome.errors)
        markFailed(&results[e.index]);
    errors_ = std::move(outcome.errors);
    resumedCells_ = outcome.resumed;
    return results;
}

std::vector<EvalResult>
SweepRunner::runCmrpo(const std::vector<SweepCell> &cells)
{
    return runJournaled<EvalResult>(
        "cmrpo", specsOf(cells), labelsOf(cells),
        baselineFirstOrder(runner_, cells),
        [this, &cells](std::size_t i) {
            const SweepCell &c = cells[i];
            return runner_.evalCmrpo(c.preset, c.workload, c.scheme);
        });
}

std::vector<double>
SweepRunner::runEto(const std::vector<SweepCell> &cells)
{
    return runJournaled<double>(
        "eto", specsOf(cells), labelsOf(cells),
        baselineFirstOrder(runner_, cells),
        [this, &cells](std::size_t i) {
            const SweepCell &c = cells[i];
            return runner_.evalEto(c.preset, c.workload, c.scheme);
        });
}

std::vector<EvalResult>
SweepRunner::runAdaptive(const std::vector<AdaptiveCell> &cells)
{
    return runJournaled<EvalResult>(
        "adaptive", specsOf(cells), labelsOf(cells), {},
        [this, &cells](std::size_t i) {
            const AdaptiveCell &c = cells[i];
            return runner_.evalAdaptive(c.preset, c.attack, c.scheme);
        });
}

std::vector<double>
SweepRunner::runAdaptiveEto(const std::vector<AdaptiveCell> &cells)
{
    return runJournaled<double>(
        "adaptive-eto", specsOf(cells), labelsOf(cells), {},
        [this, &cells](std::size_t i) {
            const AdaptiveCell &c = cells[i];
            return runner_.evalAdaptiveEto(c.preset, c.attack, c.scheme);
        });
}

std::vector<double>
SweepRunner::runAdaptiveMetric(
    const std::vector<AdaptiveCell> &cells,
    const std::function<double(ExperimentRunner &,
                               const AdaptiveCell &)> &fn)
{
    return runJournaled<double>(
        "adaptive-metric", specsOf(cells), labelsOf(cells), {},
        [this, &cells, &fn](std::size_t i) {
            return fn(runner_, cells[i]);
        });
}

std::vector<double>
SweepRunner::runMetric(
    const std::vector<SweepCell> &cells,
    const std::function<double(ExperimentRunner &, const SweepCell &)>
        &fn)
{
    return runJournaled<double>(
        "metric", specsOf(cells), labelsOf(cells),
        baselineFirstOrder(runner_, cells),
        [this, &cells, &fn](std::size_t i) {
            return fn(runner_, cells[i]);
        });
}

} // namespace catsim
