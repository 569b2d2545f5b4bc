#include "decode/streaming_decoder.h"

#include "obs/trace_plane.h"
#include "runtime/thread_pool.h"
#include "util/logging.h"

namespace exist {

// --- RegionQueue ----------------------------------------------------------

RegionQueue::RegionQueue(std::size_t capacity) : capacity_(capacity)
{
    EXIST_ASSERT(capacity_ > 0, "RegionQueue needs capacity");
}

bool
RegionQueue::push(TraceRegion region)
{
    MutexLock lk(mu_);
    while (q_.size() >= capacity_ && !closed_)
        not_full_.wait(mu_);
    if (closed_)
        return false;
    q_.push_back(std::move(region));
    if (q_.size() > high_water_)
        high_water_ = q_.size();
    not_empty_.notify_one();
    return true;
}

bool
RegionQueue::pop(TraceRegion &out)
{
    MutexLock lk(mu_);
    while (q_.empty() && !closed_)
        not_empty_.wait(mu_);
    if (q_.empty())
        return false;  // closed and drained
    out = std::move(q_.front());
    q_.pop_front();
    not_full_.notify_one();
    return true;
}

void
RegionQueue::close()
{
    MutexLock lk(mu_);
    closed_ = true;
    not_full_.notify_all();
    not_empty_.notify_all();
}

std::size_t
RegionQueue::highWater() const
{
    MutexLock lk(mu_);
    return high_water_;
}

// --- StreamingDecoder -----------------------------------------------------

StreamingDecoder::StreamingDecoder(const ProgramBinary *prog,
                                   DecodeOptions opts, int threads,
                                   std::size_t queue_capacity)
    : prog_(prog), opts_(opts),
      cache_(opts.block_cache ? BlockCache::forBinary(prog) : nullptr),
      queue_(queue_capacity)
{
    if (threads != 1) {
        pool_ = std::make_unique<ThreadPool>(threads);
        consumers_.reserve(static_cast<std::size_t>(pool_->size()));
        for (int i = 0; i < pool_->size(); ++i)
            consumers_.push_back(
                pool_->submit([this] { consumerLoop(); }));
    }
}

StreamingDecoder::~StreamingDecoder()
{
    if (!finished_) {
        // Abandoned pipeline: release the parked consumers so the pool
        // can join.
        queue_.close();
        for (auto &f : consumers_)
            f.wait();
    }
}

int
StreamingDecoder::threads() const
{
    return pool_ != nullptr ? pool_->size() : 1;
}

void
StreamingDecoder::addCore(CoreId core)
{
    EXIST_ASSERT(!publishing_started_.load(std::memory_order_relaxed),
                 "addCore after first publish");
    cores_.push_back(
        std::make_unique<CoreState>(core, prog_, opts_, cache_,
                                    &memo_pool_));
}

StreamingDecoder::CoreState &
StreamingDecoder::stateOf(CoreId core)
{
    for (auto &cs : cores_)
        if (cs->core == core)
            return *cs;
    EXIST_FATAL("publish to unregistered core %d", core);
}

void
StreamingDecoder::publish(CoreId core, const std::uint8_t *data,
                          std::uint64_t n)
{
    if (n == 0)
        return;
    publishing_started_.store(true, std::memory_order_relaxed);
    CoreState &cs = stateOf(core);
    regions_published_.fetch_add(1, std::memory_order_relaxed);
    bytes_published_.fetch_add(n, std::memory_order_relaxed);

    if (pool_ == nullptr) {
        // Inline mode: decode on the publishing thread. The lock is
        // uncontended here but keeps the guarded-stream annotation
        // honest for every path.
        MutexLock lk(cs.mu);
        EXIST_SPAN("decode.chunk", obs::corrId(core, cs.next_pub_seq++));
        cs.stream.append(data, static_cast<std::size_t>(n));
        return;
    }
    TraceRegion region;
    region.core = core;
    {
        MutexLock lk(cs.mu);
        region.seq = cs.next_pub_seq++;
    }
    region.bytes.assign(data, data + n);
    // Link the producer-side publish to whichever consumer applies it.
    obs::flowBegin("decode.region", obs::corrId(core, region.seq));
    bool accepted = queue_.push(std::move(region));
    EXIST_ASSERT(accepted, "publish after finish");
}

void
StreamingDecoder::consumerLoop()
{
    TraceRegion region;
    while (queue_.pop(region)) {
        CoreState &cs = stateOf(region.core);
        MutexLock lk(cs.mu);
        cs.stash.emplace(region.seq, std::move(region.bytes));
        // Apply every in-order chunk now available; out-of-order
        // arrivals wait in the stash for their predecessors.
        auto it = cs.stash.find(cs.next_apply_seq);
        while (it != cs.stash.end()) {
            std::uint64_t chunk_corr =
                obs::corrId(region.core, cs.next_apply_seq);
            EXIST_SPAN("decode.chunk", chunk_corr);
            obs::flowEnd("decode.region", chunk_corr);
            cs.stream.append(it->second.data(), it->second.size());
            cs.stash.erase(it);
            ++cs.next_apply_seq;
            it = cs.stash.find(cs.next_apply_seq);
        }
    }
}

std::vector<std::pair<CoreId, DecodedTrace>>
StreamingDecoder::finish()
{
    EXIST_ASSERT(!finished_, "StreamingDecoder finished twice");
    finished_ = true;
    queue_.close();
    for (auto &f : consumers_)
        f.get();  // rethrows a consumer failure here

    // Decode the stream tails — the only work left after trace end —
    // fanned across the pool like the batch decoder fans whole buffers.
    std::vector<std::pair<CoreId, DecodedTrace>> out(cores_.size());
    auto one = [&](std::size_t i) {
        CoreState &cs = *cores_[i];
        EXIST_SPAN("decode.tail", obs::corrId(cs.core));
        // The consumers are joined, but take the core lock anyway:
        // stash/stream are guarded, and the uncontended acquire is
        // cheaper than an exemption from the analysis.
        MutexLock lk(cs.mu);
        EXIST_ASSERT(cs.stash.empty(),
                     "core %d has unapplied regions", cs.core);
        out[i].first = cs.core;
        out[i].second = cs.stream.finish();
    };
    if (pool_ == nullptr || cores_.size() <= 1) {
        for (std::size_t i = 0; i < cores_.size(); ++i)
            one(i);
    } else {
        pool_->parallelFor(0, cores_.size(), one);
    }
    return out;
}

StreamingDecoder::Stats
StreamingDecoder::stats() const
{
    Stats s;
    s.regions_published =
        regions_published_.load(std::memory_order_relaxed);
    s.bytes_published = bytes_published_.load(std::memory_order_relaxed);
    s.queue_high_water = queue_.highWater();
    s.memos = memo_pool_.size();
    return s;
}

}  // namespace exist
