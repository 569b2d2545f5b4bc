/**
 * @file
 * Table of Physical Addresses (ToPA) output model: a chain of
 * variable-sized memory regions that the tracer fills in order. The last
 * entry either carries the STOP bit — tracing halts and further packets
 * are dropped (EXIST's "compulsory tracing", paper §3.3) — or links back
 * to the first region (ring semantics, the conventional alternative).
 * Entries may carry an INT bit that raises a PMI when the region fills,
 * which is how the perf-based NHT baseline drains its aux buffer.
 */
#ifndef EXIST_HWTRACE_TOPA_H
#define EXIST_HWTRACE_TOPA_H

#include <cstdint>
#include <functional>
#include <vector>

#include "util/types.h"

namespace exist {

/** One ToPA table entry describing an output region. */
struct TopaEntry {
    std::uint64_t size_bytes = 0;  ///< model bytes (real / kTraceByteScale)
    bool stop = false;             ///< STOP bit: halt tracing when filled
    bool intr = false;             ///< INT bit: raise PMI when filled
};

/** Outcome of appending bytes to the output. */
struct TopaWriteResult {
    std::uint64_t accepted = 0;  ///< bytes stored
    std::uint64_t dropped = 0;   ///< bytes lost (stopped)
    int pmis_fired = 0;          ///< regions with INT filled by this write
    bool stopped_now = false;    ///< this write hit a STOP region end
};

/**
 * The output buffer backing a ToPA chain. Content is stored linearly in
 * the order regions appear in the table; ring wrap resets the cursor.
 * The backing store grows with the write cursor instead of being
 * allocated (and zero-filled) at its full capacity up front: a session
 * sized for a large budget usually writes a small fraction of it, and
 * no byte outside [0, high-water cursor) is ever read.
 */
class TopaBuffer
{
  public:
    /** Install a new table. Only legal when tracing is disabled; the
     *  tracer enforces that and calls reset() here. */
    void configure(std::vector<TopaEntry> entries, bool ring);

    /** Clear fill state, keeping the configured table. */
    void reset();

    /** Append packet bytes. */
    TopaWriteResult write(const std::uint8_t *data, std::uint64_t n);

    /** Total capacity in model bytes. */
    std::uint64_t capacity() const { return capacity_; }

    bool stopped() const { return stopped_; }
    bool configured() const { return !entries_.empty(); }

    std::uint64_t bytesAccepted() const { return bytes_accepted_; }
    std::uint64_t bytesDropped() const { return bytes_dropped_; }
    /** Cumulative ring wraps, surviving drains (a statistic). */
    std::uint64_t wraps() const { return wraps_base_ + wraps_; }
    /** Whether the store wrapped since the last reset/drain — i.e.
     *  whether data()/wrapOffset() need oldest-first reordering. */
    bool hasWrapped() const { return wraps_ != 0; }

    /**
     * Stored content: every byte written since the last reset/drain,
     * up to capacity(). For ring buffers that wrapped, data() holds
     * exactly capacity() bytes — the last capacity() written — and
     * wrapOffset() marks the logical start (oldest byte) within it.
     */
    const std::vector<std::uint8_t> &data() const { return store_; }
    std::uint64_t wrapOffset() const { return wraps_ ? cursor_ : 0; }

    /**
     * Drain the content into `out` and reset the fill state. Used by
     * the NHT baseline's PMI handler (perf copying the aux buffer out).
     */
    std::uint64_t drainTo(std::vector<std::uint8_t> &out);

    /**
     * Streaming hook: called with the freshly-filled span of the store
     * each time a region boundary is crossed (including the STOP
     * region), while the session is still tracing. The span is valid
     * only for the duration of the call (the store may move as it
     * grows), so a consumer copies what it keeps. Non-destructive —
     * the fill state, STOP semantics and data() content are exactly as
     * without a callback, so batch collection stays bit-identical.
     * Only legal for non-ring chains (a wrap would overwrite bytes a
     * ring consumer has not seen; rings keep the drainTo path).
     */
    using RegionReadyFn =
        std::function<void(const std::uint8_t *data, std::uint64_t n)>;
    void setRegionReadyCallback(RegionReadyFn cb);

    /** Publish the unpublished tail [published, cursor) to the
     *  callback (end-of-session flush); returns the bytes published. */
    std::uint64_t flushRegionReady();

    /** Bytes already handed to the region-ready callback. */
    std::uint64_t publishedBytes() const { return published_; }

  private:
    void publishReady();
    /** Grow store_'s allocation to hold [0, end) (end <= capacity). */
    void reserveFor(std::uint64_t end);

    std::vector<TopaEntry> entries_;
    bool ring_ = false;
    std::uint64_t capacity_ = 0;

    /** Bytes written since reset/drain: size() is the high-water
     *  cursor, never more than capacity_. */
    std::vector<std::uint8_t> store_;
    std::uint64_t cursor_ = 0;        ///< next write offset in store_
    std::size_t region_ = 0;          ///< current table entry
    std::uint64_t region_fill_ = 0;   ///< bytes into current region
    bool stopped_ = false;
    std::uint64_t bytes_accepted_ = 0;
    std::uint64_t bytes_dropped_ = 0;
    std::uint64_t wraps_ = 0;         ///< wraps since last reset/drain
    std::uint64_t wraps_base_ = 0;    ///< wraps drained away (cumulative)
    std::uint64_t published_ = 0;     ///< region-ready watermark
    RegionReadyFn region_cb_;
};

}  // namespace exist

#endif  // EXIST_HWTRACE_TOPA_H
