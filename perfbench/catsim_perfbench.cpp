/**
 * @file
 * End-to-end and per-layer benchmark of the catsim library.
 *
 *   catsim_perfbench --workload <name> --seed <n> --seconds <s>
 *                    --trace <0|1> [--expected <tsv>]
 *                    [--dump-outputs <tsv>]
 *
 * Each workload is a fixed unit of work (a "rep") run through the
 * library's public API.  A run repeats set-up and rep, the rep with a
 * fresh ExperimentRunner, until --seconds have elapsed.  It reports
 * the best-case rep time (see FastestRep) and the median set-up.
 * Every rep's simulated outputs are checked: against the committed
 * expected_outputs.tsv when it holds the (workload, seed) pair, and
 * otherwise against the run's first rep (fresh runners must agree bit
 * for bit).  A mismatch or a throw fails the cell; a rep that throws
 * fails all of its cells.
 *
 * --trace 1 runs untraced reps, then the same work decomposed into
 * spans around the calls into each layer (trace drains, VectorTrace
 * timing replays, SweepRunner::runMetric wrappers), then standalone
 * probes of the engine, scheme, source, baseline-cache and journal
 * layers.  Spans and counters stay in memory and are written to
 * .bench_out/ at exit.  Nothing inside the library is instrumented.
 *
 * The last line of stdout is one JSON object: correct, attempted,
 * failed and metrics.  A "host" line before it names the machine.
 */

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/tree_bundle.hpp"
#include "energy/cmrpo.hpp"
#include "sim/baseline_io.hpp"
#include "sim/checkpoint.hpp"
#include "sim/event_engine.hpp"
#include "sim/sweep.hpp"
#include "trace/attack_kernel.hpp"

using namespace catsim;
namespace fs = std::filesystem;

namespace
{

// ---------------------------------------------------------------------
// Clocks and process counters
// ---------------------------------------------------------------------

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec)
               + static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec)
           + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/**
 * Peak resident memory since the last resetPeakRss(), from VmHWM; the
 * process-lifetime ru_maxrss where /proc is unavailable.
 */
double
peakRssMb()
{
    std::ifstream is("/proc/self/status");
    std::string line;
    while (std::getline(is, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/**
 * Restart the VmHWM high-water mark at the current RSS (Linux).  Free
 * heap pages left by set-up or an earlier rep go back to the kernel
 * first, so the peak is the rep's own, not the heap's history.
 */
void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile (p in [0, 1]). */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::string
fmtNum(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

// ---------------------------------------------------------------------
// Tracing: spans and counters kept in memory, written at exit
// ---------------------------------------------------------------------

/**
 * Span/counter store for the traced run.  A span records name, start,
 * end, its parent span and the cell (request) it belongs to; spans of
 * one cell share the cell id.  Spans opened while rep >= 0 belong to a
 * traced rep (per-layer values are averaged over reps); rep = -1 marks
 * the standalone probes, which run once.
 */
class Tracer
{
  public:
    struct Span
    {
        std::uint64_t id = 0;
        std::uint64_t parent = 0; //!< 0 = root
        std::int64_t cell = -1;
        int rep = -1;
        std::string name;
        double t0 = 0.0;
        double t1 = 0.0;
    };

    void setRep(int rep) { rep_ = rep; }

    std::uint64_t
    begin(const std::string &name, std::int64_t cell)
    {
        Span s;
        s.parent = stack().empty() ? 0 : stack().back();
        s.cell = cell;
        s.rep = rep_;
        s.name = name;
        s.t0 = wallNow();
        std::lock_guard<std::mutex> lock(mutex_);
        s.id = spans_.size() + 1;
        spans_.push_back(std::move(s));
        stack().push_back(spans_.back().id);
        return spans_.back().id;
    }

    void
    end(std::uint64_t id)
    {
        const double t = wallNow();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[id - 1].t1 = t;
        stack().pop_back();
    }

    void
    count(const std::string &name, double v)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        (rep_ >= 0 ? repCounts_ : probeCounts_)[name] += v;
    }

    /** Total span seconds named @p name: rep-scoped / reps + probes. */
    double
    seconds(const std::string &name, int reps) const
    {
        double rep = 0.0, probe = 0.0;
        for (const auto &s : spans_)
            if (s.name == name)
                (s.rep >= 0 ? rep : probe) += s.t1 - s.t0;
        return (reps > 0 ? rep / reps : 0.0) + probe;
    }

    /** Span seconds named @p name inside traced reps, per rep. */
    double
    repSeconds(const std::string &name, int reps) const
    {
        double rep = 0.0;
        for (const auto &s : spans_)
            if (s.name == name && s.rep >= 0)
                rep += s.t1 - s.t0;
        return reps > 0 ? rep / reps : 0.0;
    }

    /** Counter total: rep-scoped / reps + probes. */
    double
    counter(const std::string &name, int reps) const
    {
        double v = 0.0;
        if (auto it = repCounts_.find(name);
            it != repCounts_.end() && reps > 0)
            v += it->second / reps;
        if (auto it = probeCounts_.find(name); it != probeCounts_.end())
            v += it->second;
        return v;
    }

    /** Durations (s) of every span named @p name. */
    std::vector<double>
    durations(const std::string &name) const
    {
        std::vector<double> out;
        for (const auto &s : spans_)
            if (s.name == name)
                out.push_back(s.t1 - s.t0);
        return out;
    }

    void
    write(const std::string &path) const
    {
        std::ofstream os(path);
        os << "{\"spans\": [";
        const double origin = spans_.empty() ? 0.0 : spans_.front().t0;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            os << (i ? ",\n  " : "\n  ") << "{\"id\": " << s.id
               << ", \"parent\": " << s.parent << ", \"cell\": " << s.cell
               << ", \"rep\": " << s.rep << ", \"name\": \"" << s.name
               << "\", \"start_s\": " << fmtNum(s.t0 - origin)
               << ", \"end_s\": " << fmtNum(s.t1 - origin) << "}";
        }
        os << "],\n \"rep_counts\": {";
        writeMap(os, repCounts_);
        os << "},\n \"probe_counts\": {";
        writeMap(os, probeCounts_);
        os << "}}\n";
    }

  private:
    static std::vector<std::uint64_t> &
    stack()
    {
        thread_local std::vector<std::uint64_t> s;
        return s;
    }

    static void
    writeMap(std::ostream &os, const std::map<std::string, double> &m)
    {
        bool first = true;
        for (const auto &[k, v] : m) {
            os << (first ? "" : ", ") << '"' << k << "\": " << fmtNum(v);
            first = false;
        }
    }

    std::mutex mutex_;
    std::vector<Span> spans_;
    std::map<std::string, double> repCounts_;
    std::map<std::string, double> probeCounts_;
    int rep_ = -1;
};

/** RAII span. */
class Scope
{
  public:
    Scope(Tracer &t, const std::string &name, std::int64_t cell = -1)
        : tracer_(t), id_(t.begin(name, cell))
    {
    }
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &tracer_;
    std::uint64_t id_;
};

// ---------------------------------------------------------------------
// Cell outputs and their check
// ---------------------------------------------------------------------

/**
 * One cell's simulated outputs as "name=value ..." (bit-exact), and
 * the wall and process CPU seconds the cell took when the workload
 * runs its cells one at a time (0 when it does not time them).
 */
struct CellOutput
{
    std::string key;
    std::string values;
    double wall = 0.0;
    double cpu = 0.0;
};
using Outputs = std::vector<CellOutput>;

/** Run and time one cell; a throw leaves its values "error". */
template <typename Fn>
CellOutput
timedCell(std::string key, Fn values)
{
    CellOutput c{std::move(key), "error"};
    const double c0 = processCpuSeconds();
    const double t0 = wallNow();
    try {
        c.values = values();
    } catch (const std::exception &ex) {
        std::cerr << "perfbench: " << c.key << ": " << ex.what() << '\n';
    }
    c.wall = wallNow() - t0;
    c.cpu = processCpuSeconds() - c0;
    return c;
}

/**
 * Best-case time of one rep from the run's reps: the fastest time of
 * each timed cell plus the fastest time of the rest of the rep (runner
 * construction and tear-down, cells the workload does not time).  A
 * workload that times no cells gets its fastest rep.  On a shared host
 * the slow phases come and go over minutes; a per-part minimum skips
 * them whenever the run saw a quiet moment, where a median of whole
 * reps follows them.
 */
class FastestRep
{
  public:
    /** @p field selects the cell time summed (CellOutput::wall or cpu). */
    explicit FastestRep(double CellOutput::*field) : field_(field) {}

    void
    add(const Outputs &out, std::size_t cells, double rep)
    {
        fastestRep_ = std::min(fastestRep_, rep);
        // A rep that lost cells does not split into the same parts.
        if (out.size() != cells)
            return;
        if (cell_.empty())
            cell_.assign(cells, kInf);
        double inCells = 0.0;
        for (std::size_t i = 0; i < cells; ++i) {
            cell_[i] = std::min(cell_[i], out[i].*field_);
            inCells += out[i].*field_;
        }
        rest_ = std::min(rest_, rep - inCells);
    }

    double
    value() const
    {
        if (cell_.empty())
            return fastestRep_;
        double v = rest_;
        for (double c : cell_)
            v += c;
        return v;
    }

  private:
    static constexpr double kInf = std::numeric_limits<double>::infinity();
    double CellOutput::*field_;
    std::vector<double> cell_;
    double rest_ = kInf;
    double fastestRep_ = kInf;
};

class Fields
{
  public:
    Fields &
    add(const char *name, double v)
    {
        return raw(name, fmtNum(v));
    }
    Fields &
    add(const char *name, std::uint64_t v)
    {
        return raw(name, std::to_string(v));
    }
    std::string str() const { return os_.str(); }

  private:
    Fields &
    raw(const char *name, const std::string &v)
    {
        os_ << (os_.tellp() > 0 ? " " : "") << name << '=' << v;
        return *this;
    }
    std::ostringstream os_;
};

std::string
evalFields(const EvalResult &e)
{
    return Fields()
        .add("cmrpo", e.cmrpo)
        .add("acts", e.stats.activations)
        .add("refreshes", e.stats.refreshEvents)
        .add("victim_rows", e.stats.victimRowsRefreshed)
        .add("splits", e.stats.splits)
        .add("merges", e.stats.merges)
        .add("base_exec_s", e.baselineSeconds)
        .str();
}

/**
 * Counts attempted/failed cells.  The reference is the committed
 * expected outputs when present, else the first rep checked.
 */
class OutputCheck
{
  public:
    explicit OutputCheck(const Outputs *expected)
    {
        if (expected) {
            reference_ = *expected;
            haveRef_ = true;
            committed_ = true;
        }
    }

    /** @p cells = cells the rep should have produced. */
    void
    check(const Outputs &got, std::size_t cells)
    {
        attempted_ += cells;
        if (!haveRef_ && got.size() == cells) {
            reference_ = got;
            haveRef_ = true;
        }
        std::size_t bad = cells > got.size() ? cells - got.size() : 0;
        for (std::size_t i = 0; i < got.size() && i < cells; ++i) {
            const bool ok = i < reference_.size()
                            && got[i].key == reference_[i].key
                            && got[i].values == reference_[i].values
                            && got[i].values.find("error")
                                   == std::string::npos;
            if (!ok) {
                ++bad;
                if (mismatches_++ < 5)
                    std::cerr << "perfbench: cell " << i << " (" << got[i].key
                              << ") got [" << got[i].values << "] want ["
                              << (i < reference_.size() ? reference_[i].values
                                                        : "<none>")
                              << "]\n";
            }
        }
        failed_ += bad;
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    bool committed() const { return committed_; }

  private:
    Outputs reference_;
    bool haveRef_ = false;
    bool committed_ = false;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t mismatches_ = 0;
};

/** expected_outputs.tsv: workload \t seed \t key \t values. */
std::map<std::string, Outputs>
readExpected(const std::string &path)
{
    std::map<std::string, Outputs> out;
    std::ifstream is(path);
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::vector<std::string> f;
        std::size_t pos = 0;
        for (int i = 0; i < 3; ++i) {
            const std::size_t tab = line.find('\t', pos);
            if (tab == std::string::npos)
                throw std::runtime_error("malformed line in " + path);
            f.push_back(line.substr(pos, tab - pos));
            pos = tab + 1;
        }
        out[f[0] + '\t' + f[1]].push_back({f[2], line.substr(pos)});
    }
    return out;
}

// ---------------------------------------------------------------------
// Shared inputs
// ---------------------------------------------------------------------

SchemeConfig
mkScheme(SchemeKind kind, std::uint32_t counters, std::uint32_t levels,
         std::uint32_t threshold, double p = 0.002)
{
    SchemeConfig cfg;
    cfg.kind = kind;
    cfg.numCounters = counters;
    cfg.maxLevels = levels;
    cfg.threshold = threshold;
    cfg.praProbability = p;
    return cfg;
}

double
praProbabilityFor(std::uint32_t threshold)
{
    switch (threshold) {
      case 65536: return 0.001;
      case 32768: return 0.002;
      case 16384: return 0.003;
      default: return 0.002;
    }
}

constexpr std::uint32_t kT32K = 32768;

/** The seven scheme kinds of the core probe, at T=32K. */
const std::vector<std::pair<std::string, SchemeConfig>> &
probeSchemes()
{
    static const std::vector<std::pair<std::string, SchemeConfig>> s = {
        {"prcat", mkScheme(SchemeKind::Prcat, 64, 11, kT32K)},
        {"drcat", mkScheme(SchemeKind::Drcat, 64, 11, kT32K)},
        {"sca", mkScheme(SchemeKind::Sca, 64, 0, kT32K)},
        {"pra", mkScheme(SchemeKind::Pra, 0, 0, kT32K)},
        {"mg", mkScheme(SchemeKind::MisraGries, 64, 0, kT32K)},
        {"rfm", mkScheme(SchemeKind::Rfm, 0, 0, kT32K)},
        {"cc", mkScheme(SchemeKind::CounterCache, 2048, 0, kT32K)},
    };
    return s;
}

/**
 * Paper CMRPO at T=32K (PAPER.md): DRCAT_64 ~1 %, SCA_64 ~2.2 %,
 * PRA ~4.8 %.  Accuracy is the mean relative error of the simulated
 * means over the workload's benign CMRPO cells.
 */
struct PaperPoint
{
    SchemeConfig scheme;
    double paper;
};

const std::vector<PaperPoint> &
paperPoints()
{
    static const std::vector<PaperPoint> p = {
        {mkScheme(SchemeKind::Drcat, 64, 11, kT32K), 0.010},
        {mkScheme(SchemeKind::Sca, 64, 0, kT32K), 0.022},
        {mkScheme(SchemeKind::Pra, 0, 0, kT32K, 0.002), 0.048},
    };
    return p;
}

bool
sameScheme(const SchemeConfig &a, const SchemeConfig &b)
{
    return a.format() == b.format();
}

/**
 * @p cmrpoOf(scheme) returns the simulated CMRPOs to average.  Failed
 * cells come back as NaN and are left out; the result is NaN when a
 * paper point has no cell left.
 */
template <typename Fn>
double
relErrAgainstPaper(Fn cmrpoOf)
{
    double sum = 0.0;
    for (const auto &pt : paperPoints()) {
        double mean = 0.0;
        std::size_t n = 0;
        for (double x : cmrpoOf(pt.scheme))
            if (std::isfinite(x)) {
                mean += x;
                ++n;
            }
        if (n == 0)
            return std::nan("");
        mean /= static_cast<double>(n);
        sum += std::fabs(mean - pt.paper) / pt.paper;
    }
    return sum / static_cast<double>(paperPoints().size());
}

/**
 * Drain the per-core streams a baseline of @p w would consume (the
 * same generators, seeds and lengths as ExperimentRunner's stream
 * factory); the traced run replays them as VectorTraces.
 */
std::vector<std::vector<TraceRecord>>
drainWorkload(const WorkloadSpec &w, const TimingConfig &sys,
              std::uint64_t records, const AddressMapper &mapper)
{
    WorkloadProfile profile = findWorkload(w.name);
    if (profile.phaseEvery > 0)
        profile.phaseEvery = std::max<std::uint64_t>(records * 5 / 4, 1);
    std::vector<std::vector<TraceRecord>> out(sys.numCores);
    for (CoreId c = 0; c < sys.numCores; ++c) {
        const std::uint64_t seed = w.seed * 7919ULL + c + 1;
        std::unique_ptr<TraceStream> s;
        if (w.isAttack)
            s = std::make_unique<AttackWorkload>(
                profile, sys.geometry, mapper, w.attackMode, w.attackKernel,
                seed, records, 4, w.attackKernelKind);
        else
            s = std::make_unique<SyntheticWorkload>(profile, sys.geometry,
                                                    mapper, seed, records);
        out[c].reserve(records);
        TraceRecord r;
        while (s->next(r))
            out[c].push_back(r);
    }
    return out;
}

/** Leg of a traced timing replay: drain ("trace"), then runTiming. */
TimingResult
tracedTimingLeg(Tracer &tr, std::int64_t cell, const WorkloadSpec &w,
                const TimingConfig &sys, std::uint64_t records,
                const AddressMapper &mapper, const char *span)
{
    std::vector<std::vector<TraceRecord>> recs;
    {
        Scope s(tr, "trace", cell);
        recs = drainWorkload(w, sys, records, mapper);
    }
    double n = 0;
    for (const auto &r : recs)
        n += static_cast<double>(r.size());
    tr.count("trace.records", n);
    tr.count("timing.requests", n);
    Scope s(tr, span, cell);
    return runTiming(sys, [&recs](CoreId c) {
        return std::make_unique<VectorTrace>(std::move(recs[c]));
    });
}

/** Standalone EventEngine with the same actor and event counts. */
class ProbeActor : public SimActor
{
  public:
    ProbeActor(EventEngine &engine, std::uint64_t budget, std::uint64_t seed)
        : engine_(engine), budget_(budget), state_(seed)
    {
        id_ = engine_.addActor(this, EventEngine::ActorRole::Source);
        engine_.schedule(id_, 0.0);
    }
    ProbeActor(const ProbeActor &) = delete;
    ProbeActor &operator=(const ProbeActor &) = delete;

    void
    onEvent(SimTime now) override
    {
        if (++fired_ >= budget_) {
            engine_.retire(id_);
            return;
        }
        state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
        engine_.schedule(id_, now + 1.0 + static_cast<double>(state_ >> 61));
    }

  private:
    EventEngine &engine_;
    ActorId id_ = 0;
    std::uint64_t budget_;
    std::uint64_t state_;
    std::uint64_t fired_ = 0;
};

void
probeEngine(Tracer &tr, std::uint32_t actors, std::uint64_t events)
{
    if (actors == 0 || events == 0)
        return;
    EventEngine engine;
    std::vector<std::unique_ptr<ProbeActor>> pool;
    for (std::uint32_t a = 0; a < actors; ++a)
        pool.push_back(std::make_unique<ProbeActor>(
            engine, std::max<std::uint64_t>(events / actors, 1), a + 1));
    Scope s(tr, "probe.engine");
    engine.run();
    tr.count("engine.events",
             static_cast<double>(std::max<std::uint64_t>(events / actors, 1)
                                 * actors));
}

/** The cmrpo= field of cell @p i; NaN if the cell is missing or failed. */
double
cmrpoOf(const Outputs &out, std::size_t i)
{
    if (i >= out.size())
        return std::nan("");
    const std::string &v = out[i].values;
    const std::size_t p = v.find("cmrpo=");
    return p == std::string::npos ? std::nan("") : std::stod(v.substr(p + 6));
}

/** ExperimentRunner's threshold co-scaling (rate schemes exempt). */
SchemeConfig
scaledScheme(const ExperimentRunner &r, const SchemeConfig &s)
{
    SchemeConfig out = s;
    if (s.kind != SchemeKind::Pra && s.kind != SchemeKind::Rfm)
        out.threshold = r.scaledThreshold(s.threshold);
    return out;
}

/** sweep_cold's grid: 18 suite workloads x {PRA, SCA, PRCAT, DRCAT}. */
std::vector<SweepCell>
fig08Cells(std::uint64_t seed)
{
    std::vector<SweepCell> cells;
    for (const auto &profile : workloadSuite())
        for (const auto &s : {mkScheme(SchemeKind::Pra, 0, 0, kT32K),
                              mkScheme(SchemeKind::Sca, 64, 0, kT32K),
                              mkScheme(SchemeKind::Prcat, 64, 11, kT32K),
                              mkScheme(SchemeKind::Drcat, 64, 11, kT32K)}) {
            SweepCell c;
            c.preset = SystemPreset::DualCore2Ch;
            c.workload.name = profile.name;
            c.workload.seed = seed;
            c.scheme = s;
            c.tag = cells.size();
            cells.push_back(c);
        }
    return cells;
}

/** Closed-loop probe grid: 3 attackers x 4 schemes, attacker-major. */
std::vector<AdaptiveCell>
closedLoopCells(std::uint64_t seed)
{
    std::vector<AdaptiveCell> cells;
    for (AttackerKind a : {AttackerKind::RefreshAware,
                           AttackerKind::ManySided, AttackerKind::CloudMix})
        for (const auto &s : {mkScheme(SchemeKind::Prcat, 64, 11, kT32K),
                              mkScheme(SchemeKind::Drcat, 64, 11, kT32K),
                              mkScheme(SchemeKind::MisraGries, 64, 0, kT32K),
                              mkScheme(SchemeKind::Rfm, 0, 0, kT32K)}) {
            AdaptiveCell c;
            c.preset = SystemPreset::DualCore2Ch;
            c.attack.attacker = a;
            c.attack.seed = seed;
            c.scheme = s;
            cells.push_back(c);
        }
    return cells;
}

/*
 * Standalone layer probes.  Each workload probes every layer: on its
 * own inputs where it has them, otherwise on standard inputs - the
 * comm1 and Heavy-attack dual-core baselines, the fig08 journal shape,
 * and the closed-loop grid's sources - so every per-layer time is a
 * measurement on every workload.
 */

/** Standard probe baselines: comm1 benign and Heavy attack, dual-core. */
std::vector<WorkloadSpec>
probeSpecs(std::uint64_t seed)
{
    WorkloadSpec benign;
    benign.name = "comm1";
    benign.seed = seed;
    WorkloadSpec attack = benign;
    attack.isAttack = true;
    attack.attackMode = AttackMode::Heavy;
    return {benign, attack};
}

/** Timed baseline() call: thread CPU vs wall inside it. */
void
tracedBaseline(Tracer &tr, ExperimentRunner &r, std::int64_t cell,
               SystemPreset preset, const WorkloadSpec &w)
{
    const double cpu0 = threadCpuSeconds();
    {
        Scope s(tr, "baseline", cell);
        r.baseline(preset, w);
    }
    tr.count("baseline.cpu_s", threadCpuSeconds() - cpu0);
}

/**
 * Timing path: per baseline of @p ws, drain the streams and replay
 * them through runTiming twice, with no scheme and with DRCAT_64.
 * Neither leg records activations, so their difference is the
 * scheme's cost alone.  Returns the records of one leg.
 */
double
probeTimingPath(Tracer &tr, double scale, SystemPreset preset,
                const std::vector<WorkloadSpec> &ws)
{
    const ExperimentRunner r(scale);
    TimingConfig sys = makeSystem(preset);
    sys.epochScale = scale;
    const AddressMapper mapper(sys.geometry, sys.mapping);
    TimingConfig baseSys = sys;
    baseSys.scheme.kind = SchemeKind::None;
    TimingConfig mitSys = sys;
    mitSys.scheme = scaledScheme(r, mkScheme(SchemeKind::Drcat, 64, 11, kT32K));
    double records = 0;
    for (const auto &w : ws) {
        const std::uint64_t n = r.recordsFor(w, sys);
        tracedTimingLeg(tr, -1, w, baseSys, n, mapper, "timing");
        tracedTimingLeg(tr, -1, w, mitSys, n, mapper, "timing_core");
        records += static_cast<double>(n * sys.numCores);
    }
    return records;
}

/**
 * Scheme layer: replay the standard probe baselines, recorded at the
 * workload's scale and seed, through each of the seven kinds.  With
 * @p traceBaselines the two baseline() calls are timed (for workloads
 * whose reps make none); @p cacheDir ("" = none) persists them for
 * probeBaselineIo.
 */
void
probeCore(Tracer &tr, double scale, std::uint64_t seed,
          const std::string &cacheDir, bool traceBaselines)
{
    ExperimentRunner runner(scale);
    runner.setBaselineCacheDir(cacheDir);
    const auto specs = probeSpecs(seed);
    for (const auto &w : specs) {
        if (traceBaselines)
            tracedBaseline(tr, runner, -1, SystemPreset::DualCore2Ch, w);
        else
            runner.baseline(SystemPreset::DualCore2Ch, w);
    }
    if (traceBaselines)
        tr.count("baseline.computes",
                 static_cast<double>(runner.baselineComputeCount()));
    const char *variants[] = {"benign", "attack"};
    for (const auto &[kind, cfg] : probeSchemes()) {
        for (std::size_t v = 0; v < specs.size(); ++v) {
            const std::string base = "core." + kind + "." + variants[v];
            EvalResult e;
            {
                Scope s(tr, base);
                e = runner.evalCmrpo(SystemPreset::DualCore2Ch, specs[v], cfg);
            }
            tr.count(base + ".acts", static_cast<double>(e.stats.activations));
            tr.count("core." + kind + ".acts",
                     static_cast<double>(e.stats.activations));
            tr.count("core." + kind + ".events",
                     static_cast<double>(e.stats.refreshEvents
                                         + e.stats.splits + e.stats.merges));
        }
    }
}

/**
 * Journal layer: append one record per fig08 cell with the sweep's
 * key shape and EvalResult blob size (5 doubles + 10 u64).
 */
void
probeCheckpoint(Tracer &tr, const std::string &dir, std::uint64_t seed)
{
    const auto cells = fig08Cells(seed);
    CheckpointJournal journal(dir, "perfbench-probe");
    BlobWriter w;
    for (int i = 0; i < 5; ++i)
        w.putDouble(0.25 * i);
    for (int i = 0; i < 10; ++i)
        w.putU64(static_cast<std::uint64_t>(i) * 977);
    double bytes = 0;
    Scope s(tr, "probe.checkpoint");
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const std::string key = "cmrpo#" + std::to_string(i) + '|'
                                + cells[i].system().format();
        journal.append(key, w.str());
        bytes += static_cast<double>(key.size() + w.str().size() + 20);
    }
    tr.count("checkpoint.appends", static_cast<double>(cells.size()));
    tr.count("checkpoint.bytes", bytes);
}

/** Baseline-cache reads of the entries for @p specs in @p cacheDir. */
void
probeBaselineIo(Tracer &tr, double scale, const std::string &cacheDir,
                SystemPreset preset, const std::vector<WorkloadSpec> &specs)
{
    ExperimentRunner runner(scale);
    runner.setBaselineCacheDir(cacheDir);
    for (const auto &w : specs) {
        const std::string path = runner.baselineCachePath(preset, w);
        std::ostringstream key;
        key << static_cast<int>(preset) << '/' << w.label() << '/' << w.seed;
        TimingResult out;
        bool ok = false;
        {
            Scope s(tr, "probe.baseline_io");
            ok = loadBaseline(path, key.str(), scale, &out);
        }
        if (!ok)
            throw std::runtime_error("baseline cache probe: no entry at "
                                     + path);
        tr.count("baseline_io.loads", 1);
        tr.count("baseline_io.bytes",
                 static_cast<double>(fs::file_size(path)));
    }
}

/**
 * Source layer: drain one scenario's worth of each attacker's per-bank
 * sources (the parameters the runner builds; closed-loop sources are
 * told no refresh happened).
 */
void
probeSources(Tracer &tr, double scale, std::uint64_t seed)
{
    const auto cells = closedLoopCells(seed);
    const TimingConfig sys = makeSystem(SystemPreset::DualCore2Ch);
    const double epochCycles =
        static_cast<double>(sys.timing.refreshIntervalCycles()) * scale;
    const auto actsPerEpoch = static_cast<std::uint64_t>(
        epochCycles / static_cast<double>(sys.timing.tRC));
    const std::uint32_t banks = sys.geometry.totalBanks();
    for (std::size_t ci = 0; ci < cells.size(); ci += 4) {
        const AdaptiveAttackSpec &a = cells[ci].attack;
        std::vector<std::unique_ptr<ActivationSource>> sources;
        std::vector<std::vector<RowAddr>> targets(banks);
        for (auto &t : targets)
            t.resize(a.targetsPerBank);
        makeAttackKernel(a.attacker == AttackerKind::ManySided
                             ? AttackKernelKind::ManySided
                             : AttackKernelKind::Gaussian)
            ->pickTargets(targets, sys.geometry, a.kernel);
        for (std::uint32_t b = 0; b < banks; ++b) {
            if (a.attacker == AttackerKind::CloudMix) {
                CloudMixParams p;
                p.numRows = sys.geometry.rowsPerBank;
                p.actsPerEpoch = actsPerEpoch;
                p.epochs = a.epochs;
                p.phaseEvery = std::max<std::uint64_t>(actsPerEpoch / 2, 1);
                p.seed = a.seed * 1000003ULL + b;
                sources.push_back(std::make_unique<CloudMixSource>(p));
                continue;
            }
            AttackSourceParams p;
            p.numRows = sys.geometry.rowsPerBank;
            p.targets = targets[b];
            p.targetFraction = attackTargetFraction(a.mode);
            p.actsPerEpoch = actsPerEpoch;
            p.epochs = a.epochs;
            p.seed = a.seed * 1000003ULL + b;
            if (a.attacker == AttackerKind::RefreshAware)
                sources.push_back(
                    std::make_unique<RefreshAwareAttackerSource>(p));
            else
                sources.push_back(std::make_unique<SyntheticAttackSource>(p));
        }
        double acts = 0;
        {
            Scope s(tr, "probe.source");
            const RefreshAction none{};
            for (auto &src : sources) {
                const bool closed = src->closedLoop();
                for (;;) {
                    const RowAddr *rows = nullptr;
                    std::size_t n = 0;
                    const SourceChunk chunk = src->next(&rows, &n);
                    if (chunk == SourceChunk::End)
                        break;
                    if (chunk != SourceChunk::Rows)
                        continue;
                    acts += static_cast<double>(n);
                    if (closed)
                        for (std::size_t k = 0; k < n; ++k)
                            src->onRefreshAction(rows[k], none);
                }
            }
        }
        tr.count("source.acts", acts);
    }
}

/** Closed-loop timing: one RefreshAware x DRCAT_64 evalAdaptiveEto. */
void
probeClosedLoop(Tracer &tr, double scale, std::uint64_t seed)
{
    const AdaptiveCell c = closedLoopCells(seed)[1];
    ExperimentRunner r(scale);
    const EvalResult e = r.evalAdaptive(c.preset, c.attack, c.scheme);
    {
        Scope s(tr, "closed_loop");
        r.evalAdaptiveEto(c.preset, c.attack, c.scheme);
    }
    tr.count("timing.closed_loop_acts",
             2.0 * static_cast<double>(e.stats.activations));
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

struct Context
{
    std::uint64_t seed = 42;
    std::string workDir;
    std::uint64_t dirSeq = 0;

    /** A fresh, empty directory under the run's work dir. */
    std::string
    freshDir(const std::string &tag)
    {
        const std::string d =
            workDir + '/' + tag + '-' + std::to_string(dirSeq++);
        fs::remove_all(d);
        fs::create_directories(d);
        return d;
    }
};

class Workload
{
  public:
    virtual ~Workload() = default;
    virtual double scale() const = 0;
    virtual std::size_t jobs() const { return 1; }
    /** Prepare inputs; repeated, and the last set-up is used. */
    virtual void setup(Context &ctx) = 0;
    /** Untimed per-rep preparation (fresh directories). */
    virtual void prepare(Context &) {}
    /**
     * One rep through the public API: the workload's fixed work.  A
     * throw fails every cell of the rep.
     */
    virtual Outputs run(Context &ctx) = 0;
    /** Same work, decomposed into layer spans; throws as run(). */
    virtual Outputs runTraced(Context &ctx, Tracer &tr) = 0;
    /** Standalone layer probes (trace mode, after the reps). */
    virtual void probe(Context &ctx, Tracer &tr, int reps) = 0;
    /** Mean relative CMRPO error vs the paper (after the reps). */
    virtual double cmrpoRelErr(Context &ctx, const Outputs &last) = 0;
    virtual std::size_t cells() const = 0;
};

// -- eto_quad -----------------------------------------------------------

/**
 * Quad-core, 2-channel system, one worker: evalEto of DRCAT_64 at
 * T=32K over six suite workloads, both timing legs (baseline and
 * mitigated) from a fresh runner.  Almost all time is stimulus, core
 * model, event engine and controller/DRAM; the scheme is ~2 %.
 */
class EtoQuad : public Workload
{
  public:
    explicit EtoQuad(std::uint64_t seed)
    {
        for (const char *n : {"comm1", "comm3", "fluid", "str", "libq", "tigr"}) {
            WorkloadSpec w;
            w.name = n;
            w.seed = seed;
            specs_.push_back(w);
        }
    }
    double scale() const override { return 0.01; }
    std::size_t cells() const override { return specs_.size(); }

    void
    setup(Context &) override
    {
        // Warm-up: one cell on a throwaway runner, so code pages and
        // allocator arenas are hot before the first timed rep.
        ExperimentRunner r(scale());
        r.setBaselineCacheDir("");
        r.evalEto(kPreset, specs_.front(), scheme_);
    }

    Outputs
    run(Context &) override
    {
        last_ = std::make_unique<ExperimentRunner>(scale());
        last_->setBaselineCacheDir("");
        Outputs out;
        for (const auto &w : specs_)
            out.push_back(timedCell(w.label(), [&] {
                const double e = last_->evalEto(kPreset, w, scheme_);
                const TimingResult &b = last_->baseline(kPreset, w);
                return Fields()
                    .add("eto", e)
                    .add("base_exec_cycles", b.execCycles)
                    .add("base_acts", b.totalActivations)
                    .str();
            }));
        return out;
    }

    Outputs
    runTraced(Context &, Tracer &tr) override
    {
        SweepRunner sweep(scale(), 1);
        sweep.runner().setBaselineCacheDir("");
        sweep.setCheckpointDir("");
        std::vector<SweepCell> cells;
        for (std::size_t i = 0; i < specs_.size(); ++i) {
            SweepCell c;
            c.preset = kPreset;
            c.workload = specs_[i];
            c.scheme = scheme_;
            c.tag = i;
            cells.push_back(c);
        }
        Outputs out(cells.size());
        Scope grid(tr, "grid");
        sweep.runMetric(cells, [&](ExperimentRunner &r, const SweepCell &c) {
            const auto i = static_cast<std::int64_t>(c.tag);
            Scope cellSpan(tr, "cell", i);
            TimingConfig sys = makeSystem(kPreset);
            sys.epochScale = r.scale();
            const AddressMapper mapper(sys.geometry, sys.mapping);
            const std::uint64_t records = r.recordsFor(c.workload, sys);

            // evalEto's baseline leg also records activations; that
            // changes no output checked here, but it would hide part of
            // the scheme's cost in core.timing_delta_s, so neither leg
            // records.
            TimingConfig baseSys = sys;
            baseSys.scheme.kind = SchemeKind::None;
            const TimingResult base = tracedTimingLeg(
                tr, i, c.workload, baseSys, records, mapper, "timing");

            TimingConfig mitSys = sys;
            mitSys.scheme = scaledScheme(r, c.scheme);
            const TimingResult mit = tracedTimingLeg(
                tr, i, c.workload, mitSys, records, mapper, "timing_core");

            const double e =
                eto(base.execSeconds, mit.execSeconds) * r.scale();
            out[c.tag] = {c.workload.label(),
                          Fields()
                              .add("eto", e)
                              .add("base_exec_cycles", base.execCycles)
                              .add("base_acts", base.totalActivations)
                              .str()};
            return e;
        });
        return out;
    }

    void
    probe(Context &ctx, Tracer &tr, int reps) override
    {
        const TimingConfig sys = makeSystem(kPreset);
        // Both legs of every cell are engine runs.
        probeEngine(tr, sys.numCores + 1,
                    static_cast<std::uint64_t>(
                        tr.counter("timing.requests", reps)));
        const std::string cache = ctx.freshDir("probe-cache");
        probeCore(tr, scale(), ctx.seed, cache, true);
        probeBaselineIo(tr, scale(), cache, SystemPreset::DualCore2Ch,
                        probeSpecs(ctx.seed));
        probeSources(tr, scale(), ctx.seed);
        probeClosedLoop(tr, scale(), ctx.seed);
        probeCheckpoint(tr, ctx.freshDir("probe-journal"), ctx.seed);
    }

    double
    cmrpoRelErr(Context &, const Outputs &) override
    {
        // The last rep's runner still holds its six quad-core
        // baselines (recorded streams); replay the paper's schemes.
        if (!last_)
            return std::nan("");
        return relErrAgainstPaper([&](const SchemeConfig &s) {
            std::vector<double> v;
            for (const auto &w : specs_)
                v.push_back(last_->evalCmrpo(kPreset, w, s).cmrpo);
            return v;
        });
    }

  private:
    static constexpr SystemPreset kPreset = SystemPreset::QuadCore2Ch;
    std::vector<WorkloadSpec> specs_;
    SchemeConfig scheme_ = mkScheme(SchemeKind::Drcat, 64, 11, kT32K);
    std::unique_ptr<ExperimentRunner> last_;
};

// -- cmrpo_replay -------------------------------------------------------

/**
 * Dual-core, one worker.  Set-up records three benign baselines and
 * one Heavy-attack baseline into a disk cache; each rep loads them
 * into a fresh runner and evaluates a fig10/fig12-style CMRPO grid.
 * The timing path runs only in set-up, so rep time is scheme replay
 * plus baseline loads.
 */
class CmrpoReplay : public Workload
{
  public:
    explicit CmrpoReplay(std::uint64_t seed)
    {
        for (const char *n : {"comm1", "libq", "tigr"}) {
            WorkloadSpec w;
            w.name = n;
            w.seed = seed;
            specs_.push_back(w);
        }
        WorkloadSpec a;
        a.name = "comm1";
        a.seed = seed;
        a.isAttack = true;
        a.attackMode = AttackMode::Heavy;
        specs_.push_back(a);

        // CAT/SCA sweep the counter budget and threshold; the
        // tracking baselines run once per threshold.  MG uses 64
        // counters (iso-budget with CAT_64) so no kind owns the rep.
        for (std::uint32_t t : {16384u, 32768u, 65536u}) {
            for (SchemeKind k :
                 {SchemeKind::Prcat, SchemeKind::Drcat, SchemeKind::Sca})
                for (std::uint32_t m : {16u, 32u, 64u, 128u, 256u})
                    schemes_.push_back(mkScheme(
                        k, m, k == SchemeKind::Sca ? 0 : 11, t));
            schemes_.push_back(
                mkScheme(SchemeKind::Pra, 0, 0, t, praProbabilityFor(t)));
            schemes_.push_back(mkScheme(SchemeKind::MisraGries, 64, 0, t));
            schemes_.push_back(mkScheme(SchemeKind::Rfm, 0, 0, t));
            schemes_.push_back(mkScheme(SchemeKind::CounterCache, 2048, 0, t));
        }
    }
    double scale() const override { return 0.02; }
    std::size_t cells() const override
    {
        return schemes_.size() * specs_.size();
    }

    void
    setup(Context &ctx) override
    {
        if (!cacheDir_.empty())
            fs::remove_all(cacheDir_);
        cacheDir_ = ctx.freshDir("baseline-cache");
        ExperimentRunner r(scale());
        r.setBaselineCacheDir(cacheDir_);
        for (const auto &w : specs_)
            r.baseline(kPreset, w);
        if (r.baselineComputeCount() != specs_.size())
            throw std::runtime_error("cmrpo_replay set-up reused a cache");
    }

    Outputs
    run(Context &) override
    {
        ExperimentRunner r(scale());
        r.setBaselineCacheDir(cacheDir_);
        Outputs out;
        for (const auto &s : schemes_)
            for (const auto &w : specs_)
                out.push_back(timedCell(key(w, s), [&] {
                    return evalFields(r.evalCmrpo(kPreset, w, s));
                }));
        requireWarm(r);
        return out;
    }

    Outputs
    runTraced(Context &, Tracer &tr) override
    {
        SweepRunner sweep(scale(), 1);
        sweep.runner().setBaselineCacheDir(cacheDir_);
        sweep.setCheckpointDir("");
        const auto cells = grid();
        Outputs out(cells.size());
        {
            Scope g(tr, "grid");
            sweep.runMetric(cells, [&](ExperimentRunner &r,
                                       const SweepCell &c) {
                const auto i = static_cast<std::int64_t>(c.tag);
                Scope cellSpan(tr, "cell", i);
                tracedBaseline(tr, r, i, c.preset, c.workload);
                EvalResult e;
                {
                    Scope s(tr, "core", i);
                    e = r.evalCmrpo(c.preset, c.workload, c.scheme);
                }
                out[c.tag] = {key(c.workload, c.scheme), evalFields(e)};
                return e.cmrpo;
            });
        }
        requireWarm(sweep.runner());
        return out;
    }

    void
    probe(Context &ctx, Tracer &tr, int) override
    {
        // The timing path runs in set-up: one None leg per baseline.
        probeBaselineIo(tr, scale(), cacheDir_, kPreset, specs_);
        const double records = probeTimingPath(tr, scale(), kPreset, specs_);
        probeEngine(tr, makeSystem(kPreset).numCores + 1,
                    static_cast<std::uint64_t>(records));
        probeCore(tr, scale(), ctx.seed, "", false);
        probeSources(tr, scale(), ctx.seed);
        probeClosedLoop(tr, scale(), ctx.seed);
        probeCheckpoint(tr, ctx.freshDir("probe-journal"), ctx.seed);
    }

    double
    cmrpoRelErr(Context &, const Outputs &last) override
    {
        return relErrAgainstPaper([&](const SchemeConfig &s) {
            std::vector<double> v;
            for (std::size_t i = 0; i < schemes_.size(); ++i)
                if (sameScheme(schemes_[i], s))
                    for (std::size_t b = 0; b < specs_.size(); ++b)
                        if (!specs_[b].isAttack)
                            v.push_back(cmrpoOf(last, i * specs_.size() + b));
            return v;
        });
    }

  private:
    static std::string
    key(const WorkloadSpec &w, const SchemeConfig &s)
    {
        return SystemConfig{kPreset, w, s}.format();
    }

    std::vector<SweepCell>
    grid() const
    {
        std::vector<SweepCell> cells;
        for (const auto &s : schemes_)
            for (const auto &w : specs_) {
                SweepCell c;
                c.preset = kPreset;
                c.workload = w;
                c.scheme = s;
                c.tag = cells.size();
                cells.push_back(c);
            }
        return cells;
    }

    void
    requireWarm(const ExperimentRunner &r) const
    {
        if (r.baselineComputeCount() != 0
            || r.baselineDiskLoads() != specs_.size())
            throw std::runtime_error(
                "cmrpo_replay: baselines were not served by the cache");
    }

    static constexpr SystemPreset kPreset = SystemPreset::DualCore2Ch;
    std::vector<WorkloadSpec> specs_;
    std::vector<SchemeConfig> schemes_;
    std::string cacheDir_;
};

// -- sweep_cold ---------------------------------------------------------

/**
 * SweepRunner::runCmrpo with 4 jobs over the fig08 shape (18 suite
 * workloads x {PRA, SCA_64, PRCAT_64, DRCAT_64} at T=32K), with a cold
 * baseline disk cache and a fresh run journal every rep.  The only
 * workload where pool scheduling, cross-cell baseline waits and
 * journal appends matter.
 */
class SweepCold : public Workload
{
  public:
    explicit SweepCold(std::uint64_t seed) : cells_(fig08Cells(seed)) {}
    double scale() const override { return 0.02; }
    std::size_t jobs() const override { return 4; }
    std::size_t cells() const override { return cells_.size(); }

    void
    setup(Context &ctx) override
    {
        // Warm-up: the first cell as a cold one-cell sweep.
        SweepRunner sweep(scale(), jobs());
        sweep.runner().setBaselineCacheDir(ctx.freshDir("warm-cache"));
        sweep.setCheckpointDir(ctx.freshDir("warm-journal"));
        sweep.setKeepGoing(false);
        sweep.runCmrpo({cells_.front()});
    }

    void
    prepare(Context &ctx) override
    {
        for (const auto *d : {&cacheDir_, &journalDir_})
            if (!d->empty())
                fs::remove_all(*d);
        cacheDir_ = ctx.freshDir("cache");
        journalDir_ = ctx.freshDir("journal");
    }

    Outputs
    run(Context &) override
    {
        SweepRunner sweep(scale(), jobs());
        configure(sweep);
        const auto res = sweep.runCmrpo(cells_);
        Outputs out;
        for (std::size_t i = 0; i < cells_.size(); ++i)
            out.push_back({cells_[i].system().format(), evalFields(res[i])});
        requireCold(sweep.runner());
        return out;
    }

    Outputs
    runTraced(Context &, Tracer &tr) override
    {
        SweepRunner sweep(scale(), jobs());
        configure(sweep);
        Outputs out(cells_.size());
        {
            Scope g(tr, "grid");
            sweep.runMetric(cells_, [&](ExperimentRunner &r,
                                        const SweepCell &c) {
                const auto i = static_cast<std::int64_t>(c.tag);
                Scope cellSpan(tr, "cell", i);
                tracedBaseline(tr, r, i, c.preset, c.workload);
                EvalResult e;
                {
                    Scope s(tr, "core", i);
                    e = r.evalCmrpo(c.preset, c.workload, c.scheme);
                }
                out[c.tag] = {c.system().format(), evalFields(e)};
                return e.cmrpo;
            });
        }
        requireCold(sweep.runner());
        tr.count("baseline.computes",
                 static_cast<double>(sweep.runner().baselineComputeCount()));
        return out;
    }

    void
    probe(Context &ctx, Tracer &tr, int) override
    {
        // The last rep left its 18 baselines in cacheDir_; each was one
        // None-leg engine run.
        std::vector<WorkloadSpec> specs;
        for (std::size_t i = 0; i < cells_.size(); i += 4)
            specs.push_back(cells_[i].workload);
        const SystemPreset preset = SystemPreset::DualCore2Ch;
        probeBaselineIo(tr, scale(), cacheDir_, preset, specs);
        const double records = probeTimingPath(tr, scale(), preset, specs);
        probeEngine(tr, makeSystem(preset).numCores + 1,
                    static_cast<std::uint64_t>(records));
        probeCheckpoint(tr, ctx.freshDir("probe-journal"), ctx.seed);
        probeCore(tr, scale(), ctx.seed, "", false);
        probeSources(tr, scale(), ctx.seed);
        probeClosedLoop(tr, scale(), ctx.seed);
    }

    double
    cmrpoRelErr(Context &, const Outputs &last) override
    {
        return relErrAgainstPaper([&](const SchemeConfig &s) {
            std::vector<double> v;
            for (std::size_t i = 0; i < cells_.size(); ++i)
                if (sameScheme(cells_[i].scheme, s))
                    v.push_back(cmrpoOf(last, i));
            return v;
        });
    }

  private:
    void
    configure(SweepRunner &sweep) const
    {
        sweep.runner().setBaselineCacheDir(cacheDir_);
        sweep.setCheckpointDir(journalDir_);
        sweep.setKeepGoing(false);
    }

    void
    requireCold(const ExperimentRunner &r) const
    {
        if (r.baselineComputeCount() != cells_.size() / 4
            || r.baselineDiskLoads() != 0)
            throw std::runtime_error("sweep_cold: cache was not cold");
    }

    std::vector<SweepCell> cells_;
    std::string cacheDir_;
    std::string journalDir_;
};

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "eto_quad")
        return std::make_unique<EtoQuad>(seed);
    if (name == "cmrpo_replay")
        return std::make_unique<CmrpoReplay>(seed);
    if (name == "sweep_cold")
        return std::make_unique<SweepCold>(seed);
    return nullptr;
}

// ---------------------------------------------------------------------
// Command line and run loop
// ---------------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    std::string expected;
    std::string dumpOutputs;
};

[[noreturn]] void
usage(const std::string &msg)
{
    std::cerr << "catsim_perfbench: " << msg
              << "\nusage: catsim_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--expected <tsv>] "
                 "[--dump-outputs <tsv>]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        try {
            if (flag == "--workload")
                a.workload = v;
            else if (flag == "--seed")
                a.seed = std::stoull(v), haveSeed = true;
            else if (flag == "--seconds")
                a.seconds = std::stod(v);
            else if (flag == "--trace")
                a.trace = std::stoi(v);
            else if (flag == "--expected")
                a.expected = v;
            else if (flag == "--dump-outputs")
                a.dumpOutputs = v;
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error &) {
            usage("bad value for " + flag + ": " + v);
        }
    }
    if (a.workload.empty() || !haveSeed || !(a.seconds > 0)
        || (a.trace != 0 && a.trace != 1))
        usage("--workload, --seed, --seconds > 0 and --trace 0|1 are required");
    return a;
}

std::string
cpuModel()
{
    std::ifstream is("/proc/cpuinfo");
    std::string line;
    while (std::getline(is, line))
        if (line.rfind("model name", 0) == 0) {
            const std::size_t p = line.find(':');
            return p == std::string::npos ? line : line.substr(p + 2);
        }
    return "unknown";
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

/** Metric name -> (value, unit), printed in insertion order. */
using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const Metrics &m)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < m.size(); ++i) {
        const double v = std::isfinite(m[i].second.first) ? m[i].second.first : 0.0;
        os << (i ? ", " : "") << '"' << m[i].first << "\": {\"value\": "
           << fmtNum(v) << ", \"unit\": \"" << m[i].second.second << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

void
writeOutputs(const std::string &path, const Args &a, const Outputs &o)
{
    std::ofstream os(path, std::ios::app);
    for (const auto &c : o)
        os << a.workload << '\t' << a.seed << '\t' << c.key << '\t'
           << c.values << '\n';
}

/** Per-layer metrics from a traced run. */
Metrics
layerMetrics(const Tracer &tr, int reps, std::size_t jobs,
             double untracedWall, const std::vector<double> &tracedWalls)
{
    Metrics m;
    auto put = [&m](const std::string &n, double v, const char *unit) {
        m.push_back({n, {v, unit}});
    };
    auto per = [](double num, double den, double mult) {
        return den > 0 ? num * mult / den : 0.0;
    };
    const double records = tr.counter("trace.records", reps);
    const double gen = tr.seconds("trace", reps);
    put("trace.records", records, "count");
    put("trace.gen_s", gen, "s");
    put("trace.ns_per_record", per(gen, records, 1e9), "ns");

    const double none = tr.seconds("timing", reps);
    const double mitigated = tr.seconds("timing_core", reps);
    const double delta = mitigated > 0 ? mitigated - none : 0.0;
    const double timing = none + mitigated - delta;
    const double requests = tr.counter("timing.requests", reps);
    put("timing.requests", requests, "count");
    put("timing.s", timing, "s");
    put("timing.ns_per_request", per(timing, requests, 1e9), "ns");

    const double events = tr.counter("engine.events", reps);
    put("engine.events", events, "count");
    put("engine.ns_per_event",
        per(tr.seconds("probe.engine", reps), events, 1e9), "ns");

    const double clActs = tr.counter("timing.closed_loop_acts", reps);
    put("timing.closed_loop_acts", clActs, "count");
    put("timing.closed_loop_ns_per_act",
        per(tr.seconds("closed_loop", reps), clActs, 1e9), "ns");
    const double srcActs = tr.counter("source.acts", reps);
    put("source.acts", srcActs, "count");
    put("source.ns_per_act",
        per(tr.seconds("probe.source", reps), srcActs, 1e9), "ns");

    for (const auto &[kind, cfg] : probeSchemes()) {
        const std::string base = "core." + kind;
        for (const char *variant : {"benign", "attack"}) {
            const std::string v = base + '.' + variant;
            put(v + ".ns_per_act",
                per(tr.seconds(v, reps), tr.counter(v + ".acts", reps), 1e9),
                "ns");
        }
        const double acts = tr.counter(base + ".acts", reps);
        put(base + ".acts", acts, "count");
        put(base + ".events_per_kact",
            per(tr.counter(base + ".events", reps), acts, 1e3), "count");
    }
    put("core.timing_delta_s", delta, "s");

    std::vector<double> cellMs;
    for (double d : tr.durations("cell"))
        cellMs.push_back(d * 1e3);
    put("sweep.cells", per(static_cast<double>(cellMs.size()), reps, 1), "count");
    put("sweep.cell_ms_p50", percentile(cellMs, 0.5), "ms");
    put("sweep.cell_ms_p90", percentile(cellMs, 0.9), "ms");
    const double blCpu = tr.counter("baseline.cpu_s", reps);
    const double blWait = tr.seconds("baseline", reps) - blCpu;
    put("sweep.baseline_computes", tr.counter("baseline.computes", reps), "count");
    put("sweep.baseline_compute_s", blCpu, "s");
    put("sweep.baseline_wait_s", blWait, "s");
    // A worker inside a cell is busy unless it is blocked on another
    // cell's baseline future; outside a cell it is idle.
    const double inCells = tr.seconds("cell", reps);
    const double capacity =
        static_cast<double>(jobs) * tr.seconds("grid", reps);
    put("pool.busy_frac", per(inCells - blWait, capacity, 1), "frac");
    put("pool.idle_s", std::max(0.0, capacity - inCells), "s");

    put("baseline_io.loads", tr.counter("baseline_io.loads", reps), "count");
    put("baseline_io.bytes", tr.counter("baseline_io.bytes", reps), "B");
    put("baseline_io.load_s", tr.seconds("probe.baseline_io", reps), "s");
    const double appends = tr.counter("checkpoint.appends", reps);
    put("checkpoint.appends", appends, "count");
    put("checkpoint.bytes", tr.counter("checkpoint.bytes", reps), "B");
    put("checkpoint.append_us",
        per(tr.seconds("probe.checkpoint", reps), appends, 1e6), "us");

    const double tracedWall = median(tracedWalls);
    put("trace_overhead_frac", per(tracedWall, untracedWall, 1) - 1.0, "frac");
    double layers = 0;
    for (const char *name :
         {"trace", "timing", "timing_core", "baseline", "core"})
        layers += tr.repSeconds(name, reps);
    double wallPerRep = 0;
    for (double w : tracedWalls)
        wallPerRep += w;
    wallPerRep /= static_cast<double>(std::max<std::size_t>(tracedWalls.size(), 1));
    // Layer spans of concurrent cells overlap in wall time, so the
    // share is of the pool's capacity (jobs x wall).
    put("traced.layer_frac",
        per(layers, wallPerRep * static_cast<double>(jobs), 1), "frac");
    return m;
}

/** One benchmark run; throws on a set-up, input or probe failure. */
int
runBenchmark(const Args &args, Workload &workload)
{
    std::map<std::string, Outputs> expected;
    if (!args.expected.empty()) {
        if (!fs::exists(args.expected))
            usage("expected-outputs file not found: " + args.expected);
        expected = readExpected(args.expected);
    }
    const auto exp =
        expected.find(args.workload + '\t' + std::to_string(args.seed));
    OutputCheck check(exp == expected.end() ? nullptr : &exp->second);

    Context ctx;
    ctx.seed = args.seed;
    ctx.workDir = ".bench_work/" + args.workload + '-'
                  + std::to_string(getpid());
    fs::create_directories(ctx.workDir);
    struct Cleanup
    {
        std::string dir;
        ~Cleanup()
        {
            std::error_code ec;
            fs::remove_all(dir, ec);
        }
    } cleanup{ctx.workDir};

    std::cout << "host {\"cpu\": \"" << jsonEscape(cpuModel())
              << "\", \"nproc\": " << std::thread::hardware_concurrency()
              << ", \"compiler\": \"" << jsonEscape(__VERSION__)
              << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
              << "\", \"simd_tier\": " << TreeBundle::simdTier()
              << ", \"scale\": " << workload.scale()
              << ", \"jobs\": " << workload.jobs()
              << ", \"workload\": \"" << args.workload
              << "\", \"seed\": " << args.seed << ", \"expected\": \""
              << (check.committed() ? "committed" : "first-rep") << "\"}\n";

    // A rep that throws fails every cell it should have produced.
    auto guarded = [&args](auto &&rep) -> Outputs {
        try {
            return rep();
        } catch (const std::exception &ex) {
            std::cerr << "perfbench: " << args.workload
                      << ": rep failed: " << ex.what() << '\n';
            return {};
        }
    };

    {
        std::vector<double> setupTimes;
        auto timedSetup = [&]() {
            const double t0 = wallNow();
            workload.setup(ctx);
            setupTimes.push_back(wallNow() - t0);
        };

        std::vector<double> walls, peaks;
        FastestRep fastWall(&CellOutput::wall), fastCpu(&CellOutput::cpu);
        Outputs last;
        auto untracedRep = [&]() {
            workload.prepare(ctx);
            resetPeakRss();
            const double c0 = processCpuSeconds();
            const double t0 = wallNow();
            last = guarded([&] { return workload.run(ctx); });
            const double wall = wallNow() - t0;
            const double cpu = processCpuSeconds() - c0;
            walls.push_back(wall);
            fastWall.add(last, workload.cells(), wall);
            fastCpu.add(last, workload.cells(), cpu);
            peaks.push_back(peakRssMb());
            check.check(last, workload.cells());
        };

        // Untraced, every rep follows its own set-up, so setup_s (their
        // median) samples the same host conditions as wall_s; both
        // count against --seconds.  A traced run sets up once.
        const double untracedBudget = args.trace ? args.seconds / 2 : args.seconds;
        const int minReps = args.trace ? 2 : 3;
        const double start = wallNow();
        while (walls.size() < static_cast<std::size_t>(minReps)
               || wallNow() - start < untracedBudget) {
            if (setupTimes.empty() || !args.trace)
                timedSetup();
            untracedRep();
        }
        if (!args.dumpOutputs.empty())
            writeOutputs(args.dumpOutputs, args, last);
        double relErr = std::nan("");
        try {
            relErr = workload.cmrpoRelErr(ctx, last);
        } catch (const std::exception &ex) {
            std::cerr << "perfbench: cmrpo_rel_err: " << ex.what() << '\n';
        }

        Metrics metrics;
        if (!args.trace) {
            const double okFrac =
                1.0 - static_cast<double>(check.failed())
                          / static_cast<double>(check.attempted());
            std::cout << "setup wall_s";
            for (double t : setupTimes)
                std::cout << ' ' << fmtNum(t);
            std::cout << '\n';
            std::cout << "rep wall_s";
            for (double w : walls)
                std::cout << ' ' << fmtNum(w);
            std::cout << "\nreps " << walls.size() << " median_wall_s "
                      << fmtNum(median(walls)) << " p90_wall_s "
                      << fmtNum(percentile(walls, 0.9)) << " fail_frac "
                      << fmtNum(1.0 - okFrac) << " expected "
                      << (check.committed() ? "committed" : "first-rep")
                      << '\n';
            metrics = {
                {"wall_s", {fastWall.value(), "s"}},
                {"cpu_s", {fastCpu.value(), "s"}},
                {"setup_s", {median(setupTimes), "s"}},
                {"peak_rss_mb", {median(peaks), "MB"}},
                {"cell_ok_frac", {okFrac, "frac"}},
                {"cmrpo_rel_err", {relErr, "frac"}},
            };
        } else {
            Tracer tr;
            std::vector<double> tracedWalls;
            const double tstart = wallNow();
            int rep = 0;
            while (tracedWalls.size() < 2
                   || wallNow() - tstart < args.seconds / 2) {
                workload.prepare(ctx);
                tr.setRep(rep++);
                const double t0 = wallNow();
                const Outputs out =
                    guarded([&] { return workload.runTraced(ctx, tr); });
                tracedWalls.push_back(wallNow() - t0);
                check.check(out, workload.cells());
            }
            tr.setRep(-1);
            workload.probe(ctx, tr, rep);
            metrics = layerMetrics(tr, rep, workload.jobs(), median(walls),
                                   tracedWalls);
            fs::create_directories(".bench_out");
            const std::string path = ".bench_out/trace-" + args.workload
                                     + "-seed" + std::to_string(args.seed)
                                     + ".json";
            tr.write(path);
            std::cout << "trace written to " << path << '\n';
        }
        for (const auto &[name, v] : metrics)
            std::cout << "metric " << name << ' ' << fmtNum(v.first) << ' '
                      << v.second << '\n';
        const bool correct = check.failed() == 0 && std::isfinite(relErr);
        printResult(correct, check.attempted(), check.failed(), metrics);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    auto workload = makeWorkload(args.workload, args.seed);
    if (!workload)
        usage("unknown workload " + args.workload);
    try {
        return runBenchmark(args, *workload);
    } catch (const std::exception &ex) {
        std::cerr << "perfbench: " << args.workload << " aborted: "
                  << ex.what() << '\n';
        return 1;
    }
}
