#include "shard.hpp"

#include <algorithm>
#include <cstdlib>
#include <mutex>
#include <sstream>

#include "common/fault_injection.hpp"
#include "common/logging.hpp"

namespace catsim
{

std::uint32_t
defaultShards()
{
    if (const char *env = std::getenv("CATSIM_SHARDS")) {
        char *end = nullptr;
        const long v = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && v >= 1)
            return static_cast<std::uint32_t>(v);
    }
    return 1;
}

namespace
{

/** Journal blob codec for one shard's ReplayResult (all integers). */
std::string
encodeReplay(const ReplayResult &r)
{
    BlobWriter w;
    putStats(w, r.stats);
    w.putU64(r.banks);
    w.putU64(r.epochs);
    return w.str();
}

bool
decodeReplay(const std::string &blob, ReplayResult *r)
{
    BlobReader rd(blob);
    return getStats(rd, &r->stats)
           && rd.getU64(&r->banks) && rd.getU64(&r->epochs)
           && rd.atEnd();
}

/**
 * Feed one bank's window slice (rows + kEpochMarker sentinels) to its
 * persistent scheme.  Batch boundaries are semantically per-row, so
 * splitting at window edges is invisible in the results.
 */
Count
feedWindowSlice(MitigationScheme &scheme, const std::vector<RowAddr> &rows)
{
    Count epochs = 0;
    std::size_t start = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (rows[i] != kEpochMarker)
            continue;
        if (i > start)
            scheme.onActivateBatch(rows.data() + start, i - start);
        scheme.onEpoch();
        ++epochs;
        start = i + 1;
    }
    if (start < rows.size())
        scheme.onActivateBatch(rows.data() + start, rows.size() - start);
    return epochs;
}

} // namespace

ShardPlan
ShardPlan::make(std::uint32_t num_banks, std::uint32_t num_shards,
                std::uint32_t banks_per_pool)
{
    if (num_banks == 0)
        CATSIM_FATAL("ShardPlan needs at least one bank");
    const std::uint32_t align = std::max<std::uint32_t>(banks_per_pool, 1);
    // Pool groups are the indivisible unit: a shard boundary inside a
    // group would split a SharedCounterPool (tail group may be short).
    const std::uint32_t groups = (num_banks + align - 1) / align;
    const std::uint32_t shards =
        std::min(std::max<std::uint32_t>(num_shards, 1), groups);

    ShardPlan plan;
    plan.numBanks_ = num_banks;
    plan.shards_.reserve(shards);
    for (std::uint32_t s = 0; s < shards; ++s) {
        const std::uint32_t g0 =
            static_cast<std::uint32_t>(std::uint64_t(groups) * s / shards);
        const std::uint32_t g1 = static_cast<std::uint32_t>(
            std::uint64_t(groups) * (s + 1) / shards);
        const std::uint32_t first = g0 * align;
        const std::uint32_t last = std::min(g1 * align, num_banks);
        plan.shards_.push_back({first, last - first});
    }
    return plan;
}

std::string
ShardPlan::spec() const
{
    return "banks=" + std::to_string(numBanks_) + "/shards="
           + std::to_string(shards_.size());
}

ShardedSim::ShardedSim(SchemeConfig scheme, RowAddr rows_per_bank,
                       ShardPlan plan, std::size_t jobs)
    : scheme_(std::move(scheme)), rowsPerBank_(rows_per_bank),
      plan_(std::move(plan)), jobs_(jobs ? jobs : 1),
      checkpointDir_(checkpointDirFromEnv()),
      keepGoing_(keepGoingFromEnv())
{
}

GridRun
ShardedSim::shardGrid(const char *kind, const std::string &tag,
                      const std::string &run_tag)
{
    GridRun grid;
    grid.name = std::string("fleet ") + kind;
    grid.unit = "shard";
    grid.failPoint = "shard_task";
    grid.checkpointDir = checkpointDir_;
    grid.jobs = jobs_;
    grid.keepGoing = keepGoing_;
    for (std::size_t i = 0; i < plan_.numShards(); ++i) {
        const ShardRange &r = plan_.shards()[i];
        grid.keys.push_back(std::string(kind) + "-shard#" + std::to_string(i)
                            + "|first=" + std::to_string(r.firstBank)
                            + "|n=" + std::to_string(r.numBanks));
        grid.labels.push_back("banks " + std::to_string(r.firstBank) + "-"
                              + std::to_string(r.firstBank + r.numBanks
                                               - 1));
    }
    const std::uint64_t seq = callSeq_[std::string(kind) + '|' + tag]++;
    if (!checkpointDir_.empty()) {
        std::ostringstream os;
        os << "fleet-" << kind << "|tag=" << run_tag << "|seq=" << seq
           << '|' << scheme_.format() << "|rows=" << rowsPerBank_ << '|'
           << plan_.spec();
        for (const auto &k : grid.keys)
            os << '|' << k;
        grid.runKey = os.str();
    }
    return grid;
}

void
ShardedSim::finishTotals(FleetResult *fleet)
{
    std::vector<char> live(fleet->perShard.size(), 1);
    for (const CellError &e : fleet->errors)
        live[e.index] = 0;
    fleet->total = ReplayResult{};
    for (std::size_t i = 0; i < fleet->perShard.size(); ++i) {
        if (!live[i])
            continue;
        fleet->total.stats.add(fleet->perShard[i].stats);
        fleet->total.banks += fleet->perShard[i].banks;
    }
    // Epochs follow the unsharded replay's bank-0 rule: the shard
    // holding global bank 0 is always shard 0 (contiguous ranges).
    if (!fleet->perShard.empty() && live[0])
        fleet->total.epochs = fleet->perShard[0].epochs;
}

FleetResult
ShardedSim::run(const SourceFactory &make_source, const std::string &tag)
{
    if (scheme_.kind == SchemeKind::None)
        CATSIM_FATAL("fleet replay needs a real scheme, not None");
    FleetResult fleet;
    fleet.perShard.resize(plan_.numShards());
    GridOutcome outcome = runJournaledGrid(
        shardGrid("run", tag, tag),
        [&fleet](std::size_t i, const std::string &blob) {
            return decodeReplay(blob, &fleet.perShard[i]);
        },
        [this, &fleet, &make_source](std::size_t i) {
            // Sources and schemes are built here, on the worker thread,
            // so first-touch keeps the shard's arenas node-local.
            const ShardRange &range = plan_.shards()[i];
            std::vector<std::unique_ptr<ActivationSource>> sources;
            sources.reserve(range.numBanks);
            for (std::uint32_t b = 0; b < range.numBanks; ++b)
                sources.push_back(make_source(range.firstBank + b));
            fleet.perShard[i] = replaySources(sources, scheme_, rowsPerBank_,
                                              range.firstBank);
            return encodeReplay(fleet.perShard[i]);
        });
    fleet.errors = std::move(outcome.errors);
    fleet.resumedShards = outcome.resumed;
    finishTotals(&fleet);
    return fleet;
}

FleetResult
ShardedSim::replayTrace(TraceStream &stream, const AddressMapper &mapper,
                        const DramGeometry &geometry,
                        std::uint64_t epoch_every,
                        std::size_t window_records,
                        const std::string &tag)
{
    if (scheme_.kind == SchemeKind::None)
        CATSIM_FATAL("fleet replay needs a real scheme, not None");
    if (scheme_.banksPerPool > 1
        && (scheme_.kind == SchemeKind::Prcat
            || scheme_.kind == SchemeKind::Drcat))
        CATSIM_FATAL(
            "streamed trace replay cannot reproduce the pooled "
            "round-robin interleave window by window; use the in-RAM "
            "path (traceBankStreams + replayActivations) for "
            "banksPerPool > 1");
    if (geometry.totalBanks() != plan_.numBanks())
        CATSIM_FATAL("ShardPlan covers ", plan_.numBanks(),
                     " banks but the geometry has ",
                     geometry.totalBanks());

    const std::size_t n = plan_.numShards();
    FleetResult fleet;
    fleet.perShard.resize(n);
    // epoch_every changes the results (window size does not), so it is
    // part of the run identity.
    const GridRun grid = shardGrid(
        "trace", tag, tag + "|epoch=" + std::to_string(epoch_every));

    // All-or-nothing resume: per-shard results only exist once the
    // whole trace has streamed, so a journal either replays the full
    // fleet (without touching the trace) or the run starts over.
    std::unique_ptr<CheckpointJournal> journal;
    if (!grid.checkpointDir.empty()) {
        journal = std::make_unique<CheckpointJournal>(grid.checkpointDir,
                                                      grid.runKey);
        std::string blob;
        std::size_t found = 0;
        for (std::size_t i = 0; i < n; ++i)
            if (journal->lookup(grid.keys[i], &blob)
                && decodeReplay(blob, &fleet.perShard[i]))
                ++found;
        if (found == n) {
            CATSIM_INFORM("checkpoint: resumed full fleet trace replay "
                          "(", n, " shards) from ", journal->path());
            fleet.resumedShards = n;
            finishTotals(&fleet);
            return fleet;
        }
        for (auto &r : fleet.perShard)
            r = ReplayResult{};
    }

    // Persistent per-shard schemes: state carries across windows, so
    // the concatenated feed equals the one-shot in-RAM replay.
    std::vector<std::vector<std::unique_ptr<MitigationScheme>>> schemes(n);
    std::vector<Count> epochs(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        const ShardRange &r = plan_.shards()[i];
        schemes[i] = makeBankSchemes(scheme_, rowsPerBank_, r.numBanks,
                                     r.firstBank);
    }

    TraceWindower windower(stream, mapper, geometry, epoch_every,
                           window_records);
    std::vector<std::vector<RowAddr>> window;
    std::vector<char> live(n, 1);
    std::mutex errMutex;
    while (windower.next(&window)) {
        parallelFor(
            n,
            [&](std::size_t i) {
                if (!live[i])
                    return; // dead shards skip the rest of the stream
                const ShardRange &range = plan_.shards()[i];
                try {
                    fault::maybeThrow("shard_task");
                    for (std::uint32_t b = 0; b < range.numBanks; ++b) {
                        const auto &rows = window[range.firstBank + b];
                        if (rows.empty())
                            continue;
                        const Count e =
                            feedWindowSlice(*schemes[i][b], rows);
                        if (range.firstBank + b == 0)
                            epochs[i] += e;
                    }
                } catch (const std::exception &e) {
                    // No retry: the shard's scheme state may already
                    // hold part of this window, so a re-feed would
                    // double-count.  Record and drop the shard; the
                    // rest of the fleet keeps streaming.
                    std::lock_guard<std::mutex> lock(errMutex);
                    fleet.errors.push_back({i, grid.labels[i], e.what(), 1});
                    live[i] = 0;
                }
            },
            jobs_);
        std::sort(fleet.errors.begin(), fleet.errors.end(),
                  [](const CellError &a, const CellError &b) {
                      return a.index < b.index;
                  });
        if (!keepGoing_ && !fleet.errors.empty())
            throw std::runtime_error(
                "shard " + std::to_string(fleet.errors[0].index) + ": "
                + fleet.errors[0].message);
    }

    for (std::size_t i = 0; i < n; ++i) {
        if (!live[i])
            continue;
        ReplayResult &r = fleet.perShard[i];
        r.banks = plan_.shards()[i].numBanks;
        r.epochs = epochs[i];
        for (const auto &s : schemes[i])
            if (s)
                r.stats.add(s->stats());
        if (journal) {
            try {
                journal->append(grid.keys[i], encodeReplay(r));
            } catch (const std::exception &e) {
                if (!keepGoing_)
                    throw;
                CATSIM_WARN("checkpoint append failed for shard ", i,
                            ": ", e.what());
            }
        }
    }

    if (!fleet.errors.empty()) {
        CATSIM_WARN("keep-going: ", fleet.errors.size(), "/", n,
                    " fleet trace shards failed; they are excluded from "
                    "the merged totals and were not checkpointed");
        for (const auto &e : fleet.errors)
            CATSIM_WARN("  shard ", e.index, " (", e.label, "): ",
                        e.message);
    }
    finishTotals(&fleet);
    return fleet;
}

} // namespace catsim
