/**
 * @file
 * Streaming decode pipeline: overlap ToPA collection with flow
 * reconstruction. Tracers publish each filled ToPA region into a
 * bounded MPSC RegionQueue while the session is still tracing; worker
 * threads pop regions and advance the per-core FlowStream state
 * machines, so by the time tracing stops only the stream tails remain
 * to decode (cf. "Efficient Trace for RISC-V": decode keeps pace with
 * generation when regions are consumed incrementally).
 *
 * Backpressure: the queue is bounded in regions; a producer whose
 * push finds it full blocks until a consumer catches up, which bounds
 * the pipeline's memory to (queue capacity + per-core stream buffers)
 * instead of letting an outpaced decoder accumulate regions without
 * limit.
 *
 * Determinism: per-core regions carry sequence numbers and are applied
 * to that core's FlowStream strictly in order, and FlowStream results
 * are a pure function of the concatenated bytes — so the merged output
 * (emitted in core-registration order, i.e. collection order) is
 * bit-identical to the batch ParallelDecoder path at any thread count,
 * region size, or arrival interleaving.
 */
#ifndef EXIST_DECODE_STREAMING_DECODER_H
#define EXIST_DECODE_STREAMING_DECODER_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "decode/flow_reconstructor.h"
#include "util/thread_annotations.h"
#include "util/types.h"

namespace exist {

class ThreadPool;

/** One published chunk of a core's trace byte stream. */
struct TraceRegion {
    CoreId core = kInvalidId;
    std::uint64_t seq = 0;  ///< per-core arrival order
    std::vector<std::uint8_t> bytes;
};

/**
 * Bounded multi-producer single-consumer-group queue handing filled
 * regions from the collecting (simulation) thread to decode workers.
 */
class RegionQueue
{
  public:
    explicit RegionQueue(std::size_t capacity);

    /** Blocks while full; false (region dropped) once closed. */
    bool push(TraceRegion region) EXIST_EXCLUDES(mu_);

    /** Blocks while empty; false when closed and drained. */
    bool pop(TraceRegion &out) EXIST_EXCLUDES(mu_);

    /** Wake producers and consumers; pending regions still drain. */
    void close() EXIST_EXCLUDES(mu_);

    /** Peak queue depth observed (telemetry for tuning capacity). */
    std::size_t highWater() const EXIST_EXCLUDES(mu_);

  private:
    mutable Mutex mu_{lockorder::LockRank::kDecodeQueue,
                      "decode.region_queue"};
    CondVar not_full_;
    CondVar not_empty_;
    std::deque<TraceRegion> q_ EXIST_GUARDED_BY(mu_);
    const std::size_t capacity_;
    std::size_t high_water_ EXIST_GUARDED_BY(mu_) = 0;
    bool closed_ EXIST_GUARDED_BY(mu_) = false;
};

/**
 * The pipeline front-end: register the session's cores (in collection
 * order), publish regions as they fill, finish() after tracing stops.
 *
 * threads semantics: 1 decodes inline on the publishing thread (no
 * overlap, fully deterministic scheduling — the serial reference);
 * 0 runs a dedicated pool of ThreadPool::defaultThreads() workers;
 * N > 1 a dedicated pool of N. The process-wide shared pool is never
 * used: consumers park on workers for a whole session, and a producer
 * blocked on backpressure inside nested shared-pool parallelism (e.g.
 * cluster reconcile sessions) could deadlock the pool.
 */
class StreamingDecoder
{
  public:
    struct Stats {
        std::uint64_t regions_published = 0;
        std::uint64_t bytes_published = 0;
        std::size_t queue_high_water = 0;
        /** TNT memos parked in the session's pool: after finish(), all
         *  it ever built — at most the appends that ran at once. */
        std::size_t memos = 0;
    };

    StreamingDecoder(const ProgramBinary *prog, DecodeOptions opts = {},
                     int threads = 0, std::size_t queue_capacity = 128);
    ~StreamingDecoder();

    StreamingDecoder(const StreamingDecoder &) = delete;
    StreamingDecoder &operator=(const StreamingDecoder &) = delete;

    /** Register a core; registration order defines the merge order of
     *  finish(). Must precede the first publish. */
    void addCore(CoreId core);

    /**
     * Publish one filled region of `core`'s stream. Thread-safe across
     * cores; regions of the same core must be published by one thread
     * (they are: a core's tracer runs on the collecting thread).
     * Blocks when the queue is full (backpressure).
     */
    void publish(CoreId core, const std::uint8_t *data, std::uint64_t n);

    /**
     * Seal every stream: close the queue, join the workers, decode the
     * tails and return per-core results in registration order. Call
     * exactly once, after the last publish.
     */
    std::vector<std::pair<CoreId, DecodedTrace>> finish();

    /** Effective worker count (1 = inline mode). */
    int threads() const;

    Stats stats() const;

  private:
    struct CoreState {
        CoreId core = kInvalidId;
        Mutex mu{lockorder::LockRank::kDecodeCore,
                 "decode.core_state"};
        /** The resumable per-core reconstruction; consumers advance it
         *  strictly in seq order, so it is guarded even though regions
         *  arrive from many workers. */
        FlowStream stream EXIST_GUARDED_BY(mu);
        std::uint64_t next_pub_seq EXIST_GUARDED_BY(mu) = 0;
        std::uint64_t next_apply_seq EXIST_GUARDED_BY(mu) = 0;
        /** Out-of-order arrivals parked until their predecessors. */
        std::map<std::uint64_t, std::vector<std::uint8_t>> stash
            EXIST_GUARDED_BY(mu);

        CoreState(CoreId c, const ProgramBinary *prog,
                  DecodeOptions opts,
                  std::shared_ptr<const BlockCache> cache,
                  TntMemoPool *memo_pool)
            : core(c), stream(prog, opts, std::move(cache), memo_pool)
        {
        }
    };

    void consumerLoop();
    CoreState &stateOf(CoreId core);

    const ProgramBinary *prog_;
    DecodeOptions opts_;
    /** One BlockCache per session, read-only across every core's
     *  stream and worker (null when decode_cache is off). */
    std::shared_ptr<const BlockCache> cache_;
    /** TNT memos lent to the core streams for one append()/finish()
     *  at a time, so the session holds as many memos as chunks decode
     *  at once (at most the worker count), not one per traced core.
     *  Declared before cores_ so it outlives every stream. Its kLeaf
     *  lock is taken under a core's kDecodeCore lock. */
    TntMemoPool memo_pool_;
    std::unique_ptr<ThreadPool> pool_;  ///< null in inline mode
    RegionQueue queue_;
    std::vector<std::unique_ptr<CoreState>> cores_;
    std::vector<std::future<void>> consumers_;
    std::atomic<std::uint64_t> regions_published_{0};
    std::atomic<std::uint64_t> bytes_published_{0};
    std::atomic<bool> publishing_started_{false};
    bool finished_ = false;
};

}  // namespace exist

#endif  // EXIST_DECODE_STREAMING_DECODER_H
