/**
 * @file
 * TNT-run memoization: the decoder's answer to EXIST's observation
 * that datacenter control flow is dominated by repetition (§3.4). A
 * hot loop replays the same few conditional blocks with the same few
 * outcome patterns millions of times; walking the CFG one TNT bit at a
 * time re-derives the same transitions every pass. TntMemo caches the
 * net effect of consuming the next k TNT bits starting at a given
 * block — end block, branches, instructions retired, per-function
 * count deltas, the static-resume tail — keyed by (block id, next k
 * TNT bits), so the hot path retires k outcomes with one table hit.
 *
 * Entries are built by a bounded *pure replay* over the immutable
 * BlockCache: the replay performs exactly the transitions the slow
 * path would (conditionals consume window bits in order, statically
 * resolvable transfers follow target0) and stops at the first point
 * that needs input the window cannot supply — window exhausted at a
 * conditional, a TIP-requiring transfer, or a syscall. Applying an
 * entry is therefore equivalent, count for count, to running the slow
 * path over the same bits; anything an entry cannot capture (TIP
 * resolution, segment boundaries, budget edges) falls back to the
 * slow path, which is how cache-on output stays bit-identical to
 * cache-off by construction (DESIGN.md §11).
 *
 * A TntMemo is used by one FlowStream at a time — owned for the
 * stream's life, or lent from a TntMemoPool for one append()/finish()
 * — so lookups and inserts are single-threaded by confinement and need
 * no locks. Only the BlockCache is shared.
 */
#ifndef EXIST_DECODE_TNT_MEMO_H
#define EXIST_DECODE_TNT_MEMO_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "decode/block_cache.h"
#include "util/thread_annotations.h"

namespace exist {

/** FlowStream's static-resume tail window (see its declaration). */
inline constexpr std::size_t kDecodeStaticTailMax = 12;

/**
 * Bump allocator for the variable-length payloads of memo entries
 * (per-function deltas, static tails). Entries live until the memo
 * dies with its stream, so there is no free list — just chunked
 * monotonic allocation with a byte budget that stops memoization
 * (never decode) when exhausted.
 */
class MemoArena
{
  public:
    /** Allocations are addressed by 32-bit offset (chunk index in the
     *  high bits): half the width of a pointer, which is what lets a
     *  memo entry keep its payload handle AND an inline FnDelta in one
     *  32-byte slot. */
    static constexpr std::uint32_t kNoOffset = ~std::uint32_t{0};

    template <typename T>
    T *
    allocArray(std::size_t n, std::uint32_t *off_out)
    {
        if (n == 0) {
            *off_out = kNoOffset;
            return nullptr;
        }
        std::size_t bytes = n * sizeof(T);
        std::size_t align = alignof(T);
        used_ = (used_ + align - 1) & ~(align - 1);
        if (chunks_.empty() || used_ + bytes > kChunkBytes) {
            chunks_.push_back(
                std::make_unique<unsigned char[]>(kChunkBytes));
            reserved_ += kChunkBytes;
            used_ = 0;
        }
        *off_out = static_cast<std::uint32_t>(
            (chunks_.size() - 1) * kChunkBytes + used_);
        T *p = reinterpret_cast<T *>(chunks_.back().get() + used_);
        used_ += bytes;
        return p;
    }

    /** Resolve an offset returned by allocArray. */
    const std::uint32_t *
    at(std::uint32_t off) const
    {
        return reinterpret_cast<const std::uint32_t *>(
            chunks_[off >> kChunkShift].get() + (off & (kChunkBytes - 1)));
    }

    /** Bytes reserved from the system (the budget currency). */
    std::size_t bytesReserved() const { return reserved_; }

  private:
    static constexpr unsigned kChunkShift = 16;
    static constexpr std::size_t kChunkBytes = std::size_t{1}
                                               << kChunkShift;

    std::vector<std::unique_ptr<unsigned char[]>> chunks_;
    std::size_t used_ = 0;
    std::size_t reserved_ = 0;
};

/** Memoized net effect of one TNT run. */
class TntMemo
{
  public:
    /** Per-function count delta accumulated over one run. */
    struct FnDelta {
        std::uint32_t fn = 0;
        std::uint32_t insns = 0;
        std::uint32_t entries = 0;
    };

    /** No valid (block << 16 | window) key collides with this: block
     *  ids are dense and far below 2^32. */
    static constexpr std::uint64_t kInvalidKey = ~0ULL;

    /**
     * One memoized run, packed to 32 bytes so a 4-way set probe
     * touches two cache lines — the probe is on the per-window hot
     * path, and lookup latency is where the fast path lives or dies.
     *
     * Runs overwhelmingly stay inside one function (a loop body), so
     * the dominant delta shape — exactly one function, few entries —
     * is stored *inline*: `fn` plus the entries count packed into the
     * top bits of `branches` (the run's insns already equal that
     * function's insns delta). Applying such a hit touches no payload
     * line at all. Multi-function runs keep the out-of-line payload
     * (FnDelta triples, then the static tail) addressed by a 32-bit
     * arena offset — half a pointer, which is what pays for the
     * inline `fn` field without growing the entry.
     */
    struct Entry {
        std::uint64_t key = kInvalidKey;  ///< (block << 16) | window
        /** Arena offset of the payload (deltas, then tail); tail-only
         *  when the delta is inline; kNoOffset when empty. */
        std::uint32_t pay_off = MemoArena::kNoOffset;
        std::uint32_t fn = 0;  ///< inline-delta function id
        std::uint32_t end_block = kNoBlock;
        std::uint32_t last_use = 0;  ///< LRU clock
        std::uint32_t insns = 0;     ///< instructions retired
        /** Low 13 bits: transitions in the run (cap kMaxRunBranches).
         *  High 3 bits: inline-delta function entry count. */
        std::uint16_t branches = 0;
        /** Low 7 bits: payload FnDelta count; 0 means the single
         *  delta is inline in `fn`/`insns`/entries bits (every run
         *  visits at least one block, so a true zero cannot occur).
         *  Bit 7: the run ended at a conditional with the window
         *  exhausted, so the next k bits start another run — the fast
         *  path chains on this flag without re-reading the end
         *  block's BlockInfo. */
        std::uint8_t delta_len = 0;
        std::uint8_t used_tail = 0;  ///< (bits_used-1) << 4 | tail_len

        static std::uint64_t
        makeKey(std::uint32_t block, std::uint32_t bits)
        {
            return (static_cast<std::uint64_t>(block) << 16) | bits;
        }
        bool valid() const { return key != kInvalidKey; }
        unsigned bitsUsed() const { return (used_tail >> 4) + 1u; }
        unsigned tailLen() const { return used_tail & 0xfu; }
        unsigned deltaLen() const { return delta_len & 0x7fu; }
        bool chainable() const { return (delta_len & 0x80u) != 0; }
        unsigned branchCount() const { return branches & 0x1fffu; }
        unsigned inlineEntries() const { return branches >> 13; }
        /** Byte offset of the tail words within the arena (valid only
         *  when tailLen() > 0 and the entry is not scratch-served). */
        std::uint32_t
        tailOffset() const
        {
            return pay_off +
                   12u * deltaLen();  // sizeof(FnDelta) per delta
        }
    };
    static_assert(sizeof(Entry) == 32, "Entry packing regressed");
    static_assert(sizeof(FnDelta) == 12 && alignof(FnDelta) == 4,
                  "payload layout assumes 3-word FnDelta");

    struct Stats {
        std::uint64_t hits = 0;       ///< derived: lookups - builds
        std::uint64_t misses = 0;     ///< built and inserted
        std::uint64_t unusable = 0;   ///< replay not memoizable
        std::uint64_t evictions = 0;  ///< valid entries replaced
    };

    /** k in [1, kMaxBits]; cache must outlive the memo. */
    TntMemo(unsigned k, const BlockCache *cache);

    static constexpr unsigned kMaxBits = 16;

    unsigned k() const { return k_; }
    const BlockCache *cache() const { return cache_; }

    /**
     * The entry for (block, bits), building it on miss. `block` must
     * be a conditional and `bits` a full k-bit window. Returns nullptr
     * when the run is not memoizable (replay cap, malformed target) —
     * the caller takes the slow path. The pointer is invalidated by
     * the next lookup.
     *
     * Inline hit path: one Fibonacci-hash multiply (power-of-two sets
     * make the golden-ratio multiply's top bits a sufficient mix; a
     * full fmix64 finalizer measurably costs at this call rate) and a
     * 4-way key probe; victim choice and replay live out of line.
     */
    const Entry *
    lookupOrBuild(std::uint32_t block, std::uint32_t bits)
    {
        ++tick_;
        const std::uint64_t key = Entry::makeKey(block, bits);
        Entry *ways = waysFor(key);
        for (std::size_t w = 0; w < kWays; ++w) {
            if (ways[w].key == key) {
                ways[w].last_use = tick_;
                return &ways[w];
            }
        }
        return missPath(ways, block, bits);
    }

    /**
     * Whether @p e is the arena-budget-exhausted scratch entry, whose
     * payload is overwritten by the next lookup. Callers keeping a
     * borrowed payload pointer (the lazy tail) must copy it out first.
     */
    bool isScratch(const Entry *e) const { return e == &scratch_entry_; }

    /** The out-of-line FnDelta array of @p e (deltaLen() > 0 only). */
    const FnDelta *
    deltas(const Entry *e) const
    {
        const std::uint32_t *p = isScratch(e) ? scratch_payload_.data()
                                              : arena_.at(e->pay_off);
        return reinterpret_cast<const FnDelta *>(p);
    }

    /** The static-tail words of @p e (tailLen() > 0 only). */
    const std::uint32_t *
    tail(const Entry *e) const
    {
        if (isScratch(e))
            return scratch_payload_.data() + 3u * e->deltaLen();
        return arena_.at(e->tailOffset());
    }

    /** Resolve a tail byte offset recorded earlier from a non-scratch
     *  entry (FlowStream's lazy tail defers this until the tail is
     *  actually read, which is rare). */
    const std::uint32_t *
    tailAt(std::uint32_t off) const
    {
        return arena_.at(off);
    }

    /** Hit count is derived (tick_ counts every lookup; a lookup that
     *  is not a build or an unusable replay was a hit), keeping the
     *  hit path free of a second counter update. */
    Stats
    stats() const
    {
        Stats s = stats_;
        s.hits = tick_ - s.misses - s.unusable;
        return s;
    }

    /** Table + arena footprint, for decode.cache.bytes. */
    std::uint64_t
    bytes() const
    {
        return table_.size() * sizeof(Entry) + arena_.bytesReserved();
    }

    /** Sets in the table now (grows under load; see missPath). */
    std::size_t sets() const { return table_.size() / kWays; }

  private:
    /** Set-count bounds: the table starts at kSetsMin sets and doubles
     *  under load (missPath) up to a cap sized to the binary's block
     *  count (see the ctor), itself bounded by a per-k ceiling — wide
     *  windows multiply distinct keys per block, so k > 4 gets a
     *  higher conflict-floor ceiling. */
    static constexpr std::size_t kSetsMin = 512;
    static constexpr std::size_t kSetsSmall = 4096;   ///< cap, k <= 4
    static constexpr std::size_t kSetsLarge = 16384;  ///< cap, k > 4
    static constexpr std::size_t kWays = 4;
    /** Replay transition cap: a run past this is a degenerate CFG
     *  (the generator's forward-only static chains never get close);
     *  punt to the slow path rather than build an unbounded entry. */
    static constexpr std::uint32_t kMaxRunBranches = 4096;
    /** Arena budget; memoization stops (decode does not) beyond it. */
    static constexpr std::size_t kArenaBudget = 4 * 1024 * 1024;

    const Entry *missPath(Entry *ways, std::uint32_t block,
                          std::uint32_t bits);
    const Entry *build(Entry &slot, std::uint32_t block,
                       std::uint32_t bits);
    /** The kWays slots of @p key's set. */
    Entry *
    waysFor(std::uint64_t key)
    {
        const std::size_t set =
            static_cast<std::size_t>(key * 0x9e3779b97f4a7c15ULL >>
                                     set_shift_);
        return &table_[set * kWays];
    }
    /** Double the set count, rehashing every valid entry. */
    void grow();
    void sizeTable(std::size_t sets);

    unsigned k_;
    const BlockCache *cache_;
    std::size_t sets_cap_;      ///< growth stops at this many sets
    unsigned set_shift_;        ///< 64 - log2(sets)
    std::vector<Entry> table_;  ///< sets * kWays, set-major
    MemoArena arena_;
    std::uint32_t tick_ = 0;
    Stats stats_;
    /** Scratch for a replay in flight (committed to the arena only on
     *  insert; also the storage behind arena-budget-exhausted hits). */
    std::vector<FnDelta> scratch_deltas_;
    std::uint32_t scratch_tail_[kDecodeStaticTailMax];
    std::vector<std::uint32_t> scratch_payload_;
    Entry scratch_entry_;
};

/**
 * Lender of TntMemo instances to the streams of one reconstructor or
 * one streaming session. Memo contents never influence decode output
 * (fast-path applies are count-for-count the slow path's transitions),
 * so a warm table from another buffer of the same binary is pure
 * profit: the borrower starts at the steady-state hit rate instead of
 * re-replaying every hot window from cold. A stream borrows a memo for
 * one append()/finish() and returns it before the call ends, so the
 * pool holds as many memos as calls ever ran at once. The borrower has
 * the memo exclusively between acquire and release — the pool is the
 * only shared state, touched once at each end of a call.
 */
class TntMemoPool
{
  public:
    /** A warm memo for (k, cache), or null if none is pooled (the
     *  caller then builds a cold one). */
    std::unique_ptr<TntMemo>
    acquire(unsigned k, const BlockCache *cache)
    {
        MutexLock lk(mu_);
        for (std::size_t i = free_.size(); i-- > 0;) {
            if (free_[i]->k() == k && free_[i]->cache() == cache) {
                std::unique_ptr<TntMemo> m = std::move(free_[i]);
                free_.erase(free_.begin() +
                            static_cast<std::ptrdiff_t>(i));
                return m;
            }
        }
        return nullptr;
    }

    void
    release(std::unique_ptr<TntMemo> m)
    {
        if (m == nullptr)
            return;
        MutexLock lk(mu_);
        free_.push_back(std::move(m));
    }

    /** Memos parked in the pool; with no call running, every memo its
     *  borrowers ever built. */
    std::size_t
    size() const
    {
        MutexLock lk(mu_);
        return free_.size();
    }

  private:
    mutable Mutex mu_{lockorder::LockRank::kLeaf, "decode.memo_pool"};
    std::vector<std::unique_ptr<TntMemo>> free_
        EXIST_GUARDED_BY(mu_);
};

}  // namespace exist

#endif  // EXIST_DECODE_TNT_MEMO_H
