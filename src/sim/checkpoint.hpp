/**
 * @file
 * The one on-disk format (journal images), the crash-safe run journal
 * built on it, and the journaled grid runner that sweeps, fleets and
 * Monte-Carlo campaigns share.
 *
 * Every sweep cell, fleet shard and Monte-Carlo trial batch is a pure
 * deterministic function of its spec, so a long run can be made
 * crash-safe by journaling each completed unit of work: one record
 * per cell, appended (and fsync'd) the moment the cell finishes.  On
 * restart the journal is replayed, every record whose key and CRC32
 * validate is served from disk, and only the missing cells re-run -
 * a killed-and-resumed run therefore produces byte-identical output
 * to an uninterrupted one.
 *
 * Enabled by CATSIM_CHECKPOINT=dir (or programmatically).  One
 * journal file per distinct run, named from a hash of the run key (the
 * run kind, scale, and every cell spec), so a changed grid opens a
 * fresh journal instead of mixing stale cells in.
 *
 * On-disk format (little-endian, append-only):
 *
 *   header:  u64 magic "CATSIMJ1" | u64 version | u64 runKeyLen |
 *            runKey bytes | u32 crc32(header bytes so far)
 *   record:  u64 keyLen | u64 blobLen | key bytes | blob bytes |
 *            u32 crc32(record bytes so far)
 *
 * Blobs are BlobWriter encodings.  Baseline cache files
 * (sim/baseline_io) use the same layout: a header whose run key names
 * the model version, cache key and scale, then exactly one record
 * holding the TimingResult.  parseJournal() is the one reader of the
 * format, for both.
 *
 * Journal replay stops at the first short read or CRC mismatch,
 * truncates the file back to the last valid record (the torn tail a
 * SIGKILL mid append leaves behind), and appends from there.  A
 * corrupt or torn record is therefore never served - it is re-run
 * instead.
 *
 * runJournaledGrid() is the one resume/evaluate/journal loop: sweeps
 * (SweepRunner), fleets (ShardedSim::run) and Monte-Carlo campaigns
 * describe their grid as a run key plus per-cell record keys and hand
 * it the two per-cell operations (restore a journaled result, evaluate
 * a fresh one).
 * A grid may name an evaluation order (sweeps dispatch one cell per
 * distinct baseline first); journal keys, result slots and error
 * reports stay indexed by grid position whatever the order.
 * With CATSIM_SWEEP_KEEP_GOING=1 a failing cell is retried once and
 * then recorded as a CellError while the rest of the grid completes;
 * the default is fail-fast.
 */

#ifndef CATSIM_SIM_CHECKPOINT_HPP
#define CATSIM_SIM_CHECKPOINT_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace catsim
{

struct SchemeStats;

/** Checkpoint directory from CATSIM_CHECKPOINT ("" = disabled). */
std::string checkpointDirFromEnv();

/** Journal file name (not path) for a run key: hash-suffixed. */
std::string checkpointFileName(const std::string &runKey);

/** True when CATSIM_SWEEP_KEEP_GOING=1 requests keep-going grids. */
bool keepGoingFromEnv();

/**
 * Header bytes of a journal image for @p runKey (magic, version, run
 * key, CRC).
 */
std::string journalHeader(const std::string &runKey);

/** Append one framed record (lengths, key, blob, CRC) to @p image. */
void appendJournalRecord(std::string *image, std::string_view key,
                         std::string_view blob);

/**
 * Read-only parse of a journal @p image written for @p runKey.  The
 * header must match journalHeader(runKey) byte for byte.  Each record
 * whose framing and CRC validate is handed to @p onRecord (views into
 * @p image) in file order; the walk stops at the first short or
 * corrupt record, or when @p onRecord returns false (that record is
 * then not counted as valid).  Length fields are bounded only by the
 * bytes left in the image.
 *
 * @return the end offset of the last valid record (the header's end
 *         when there is none), or 0 when the header does not match.
 */
std::size_t parseJournal(
    std::string_view image, const std::string &runKey,
    const std::function<bool(std::string_view key, std::string_view blob)>
        &onRecord);

/**
 * One append-only journal of completed work records.
 *
 * Thread safety: lookup() reads the replayed index built at open time
 * and may race with nothing; append() serializes internally, so
 * concurrent sweep workers can journal cells as they finish.
 */
class CheckpointJournal
{
  public:
    /**
     * Open (creating if needed) dir/checkpointFileName(runKey) and
     * replay its valid records.  A header that fails validation or
     * names a different run key (hash collision, format bump) starts
     * the journal fresh.
     */
    CheckpointJournal(const std::string &dir, const std::string &runKey);

    CheckpointJournal(const CheckpointJournal &) = delete;
    CheckpointJournal &operator=(const CheckpointJournal &) = delete;

    /** True when @p key was journaled; copies its blob to @p blob. */
    bool lookup(const std::string &key, std::string *blob) const;

    /**
     * Append one completed record and fsync it.  Throws
     * std::runtime_error on I/O failure (a cell result that could not
     * be made durable must not be treated as checkpointed).
     */
    void append(const std::string &key, const std::string &blob);

    /** Records replayed from disk at open time. */
    std::size_t replayedRecords() const { return replayed_; }

    /** Full path of the journal file. */
    const std::string &path() const { return path_; }

  private:
    std::string path_;
    std::map<std::string, std::string> index_;
    std::size_t replayed_ = 0;
    std::mutex appendMutex_;
};

/**
 * Little-endian binary blob builder/reader for journal payloads.
 * Doubles are stored bit-exactly, so a value decoded from the journal
 * is the value the original run computed - byte-identical resumes.
 */
class BlobWriter
{
  public:
    void putU64(std::uint64_t v);
    void putDouble(double v);
    /** Raw bytes, no length prefix (the caller writes one). */
    void putBytes(const void *data, std::size_t len);
    const std::string &str() const { return buf_; }

  private:
    std::string buf_;
};

/**
 * Reads what BlobWriter wrote, bounds-checked against the buffer: a
 * failed get consumes nothing.  The buffer must outlive the reader.
 */
class BlobReader
{
  public:
    explicit BlobReader(std::string_view buf) : buf_(buf) {}
    bool getU64(std::uint64_t *v);
    bool getU32(std::uint32_t *v);
    bool getDouble(double *v);
    /** View of the next @p len bytes (no copy). */
    bool getBytes(std::uint64_t len, std::string_view *out);
    /** Bytes consumed so far. */
    std::size_t pos() const { return pos_; }
    /** True when every byte was consumed (length sanity check). */
    bool atEnd() const { return pos_ == buf_.size(); }

  private:
    std::string_view buf_;
    std::size_t pos_ = 0;
};

/** The SchemeStats fields, in their one journal order. */
void putStats(BlobWriter &w, const SchemeStats &s);
bool getStats(BlobReader &r, SchemeStats *s);

/**
 * One cell that failed permanently under keep-going mode: which cell,
 * what it was, and what its final attempt threw.  A failed cell is NOT
 * journaled, so a checkpointed resume re-runs exactly the failed
 * cells.
 */
struct CellError
{
    std::size_t index = 0; //!< grid index (sweep cell, fleet shard)
    std::string label;     //!< cell label for the error report
    std::string message;   //!< what() of the last attempt
    int attempts = 0;      //!< evaluation attempts made (max 2)
};

/** A grid of independent cells for runJournaledGrid(). */
struct GridRun
{
    std::string name;                     //!< run flavor for log lines
    const char *unit = "cell";            //!< cell noun ("cell", "shard")
    const char *failPoint = "sweep_cell"; //!< armed once per attempt
    std::vector<std::string> keys;        //!< journal record key per cell
    std::vector<std::string> labels;      //!< report label per cell
    /** Evaluation order: a permutation of the cell indices, walked
     *  when pending cells are handed out; empty = index order. */
    std::vector<std::size_t> order;
    std::string checkpointDir;            //!< journal directory; "" = none
    std::string runKey;                   //!< journal identity of the grid
    std::size_t jobs = 1;                 //!< parallelFor workers
    bool keepGoing = false;               //!< retry once, then record
};

/** What runJournaledGrid() did beyond filling the result slots. */
struct GridOutcome
{
    std::vector<CellError> errors; //!< keep-going failures, by index
    std::size_t resumed = 0;       //!< cells restored from the journal
};

/**
 * Evaluate every cell of @p grid that its journal does not already
 * hold.  @p restore(i, blob) decodes cell i's journaled record into
 * its result slot and returns false when the blob does not parse (the
 * cell then re-runs); @p eval(i) computes cell i's result slot and
 * returns the blob to journal.  Pending cells run through parallelFor
 * on grid.jobs workers in grid.order (index order when empty) and
 * each is journaled the moment it finishes.
 *
 * Fail-fast (the default) rethrows the error of the failing cell
 * earliest in that order, prefixed with "<unit> <grid index>: "; cells
 * finished before it (earlier in dispatch order) stay journaled.
 * Keep-going retries a failing cell once, then records it in the
 * outcome and leaves its slot to the caller.  Result slots are
 * distinct per cell, so @p eval needs no locking of its own.  Throws
 * std::invalid_argument when a non-empty grid.order is not a
 * permutation of the cell indices.
 */
GridOutcome runJournaledGrid(
    const GridRun &grid,
    const std::function<bool(std::size_t, const std::string &)> &restore,
    const std::function<std::string(std::size_t)> &eval);

} // namespace catsim

#endif // CATSIM_SIM_CHECKPOINT_HPP
