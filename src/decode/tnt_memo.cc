#include "decode/tnt_memo.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "util/logging.h"

namespace exist {

TntMemo::TntMemo(unsigned k, const BlockCache *cache)
    : k_(k), cache_(cache)
{
    EXIST_ASSERT(k_ >= 1 && k_ <= kMaxBits, "tnt_memo_bits out of range");
    // Cap the table at the binary's size: the working set is roughly
    // (hot conditional blocks) x (windows per block), so a small loop
    // kernel is served by a few hundred sets that stay L1/L2-resident
    // — lookup latency is the fast path's whole cost — while large
    // binaries may grow up to the per-k ceiling. The table starts at
    // kSetsMin either way and grows only when its entries start to
    // evict each other, so a stream that decodes little never pays
    // for (or zero-fills) the cap.
    const std::size_t ceiling = k_ <= 4 ? kSetsSmall : kSetsLarge;
    std::size_t want = cache_->numBlocks();
    if (k_ > 4)
        want <<= (k_ - 4 < 4 ? k_ - 4 : 4);
    sets_cap_ = kSetsMin;
    while (sets_cap_ < ceiling && sets_cap_ < want)
        sets_cap_ <<= 1;
    sizeTable(kSetsMin);
    scratch_deltas_.reserve(64);
}

void
TntMemo::sizeTable(std::size_t sets)
{
    unsigned log2_sets = 0;
    while ((std::size_t{1} << log2_sets) < sets)
        ++log2_sets;
    set_shift_ = 64 - log2_sets;
    table_.assign(sets * kWays, Entry{});
}

void
TntMemo::grow()
{
    // Fibonacci hashing takes the set from the top bits of the product,
    // so doubling splits old set s into new sets 2s and 2s+1: at most
    // kWays entries land in either, and every entry survives.
    std::vector<Entry> old = std::move(table_);
    sizeTable(old.size() / kWays * 2);
    for (const Entry &e : old) {
        if (!e.valid())
            continue;
        Entry *ways = waysFor(e.key);
        std::size_t w = 0;
        while (ways[w].valid())
            ++w;
        ways[w] = e;
    }
}

const TntMemo::Entry *
TntMemo::missPath(Entry *ways, std::uint32_t block, std::uint32_t bits)
{
    // A miss that would evict means the table is too small for the
    // working set: double it (up to the cap) and probe again instead of
    // evicting, so below the cap no entry the full-size table would
    // keep is ever lost.
    bool set_full = true;
    for (std::size_t w = 0; w < kWays; ++w)
        set_full = set_full && ways[w].valid();
    if (set_full && sets() < sets_cap_) {
        grow();
        ways = waysFor(Entry::makeKey(block, bits));
    }
    Entry *victim = &ways[0];
    for (std::size_t w = 1; w < kWays; ++w) {
        if (!victim->valid())
            break;  // free way wins outright
        Entry &e = ways[w];
        if (!e.valid() || e.last_use < victim->last_use)
            victim = &e;
    }
    return build(*victim, block, bits);
}

const TntMemo::Entry *
TntMemo::build(Entry &slot, std::uint32_t block, std::uint32_t bits)
{
    // Pure replay of the slow path over the k-bit window, against the
    // immutable block cache only: conditionals consume window bits in
    // order, statically resolvable transfers follow target0, and the
    // run ends at the first block whose successor needs input the
    // window cannot supply (window exhausted at a conditional, a
    // TIP-resolved transfer, or a syscall pause). Every counter below
    // mirrors FlowStream::visit()/transition() exactly — that is the
    // whole bit-identity argument.
    scratch_deltas_.clear();
    std::uint32_t tail_len = 0;
    std::uint32_t cur = block;
    unsigned used = 0;
    std::uint32_t branches = 0;
    std::uint64_t insns = 0;
    bool end_conditional = false;
    const std::uint32_t nblocks = cache_->numBlocks();

    for (;;) {
        const BlockInfo &bi = cache_->info(cur);
        std::uint32_t next;
        bool from_packet;
        BranchKind kind = bi.branchKind();
        if (kind == BranchKind::kConditional) {
            if (used == k_) {
                end_conditional = true;
                break;
            }
            bool taken = ((bits >> used) & 1) != 0;
            ++used;
            next = taken ? bi.target0 : bi.target1;
            from_packet = true;
        } else if (kind == BranchKind::kDirectJump ||
                   kind == BranchKind::kDirectCall) {
            next = bi.target0;
            from_packet = false;
        } else {
            break;  // indirect / return / syscall: needs input
        }
        if (next >= nblocks || ++branches > kMaxRunBranches) {
            // Malformed static target or a degenerate static cycle:
            // leave it to the slow path (which reports / bounds it).
            ++stats_.unusable;
            return nullptr;
        }
        const BlockInfo &nb = cache_->info(next);
        insns += nb.insns;
        // Per-function deltas; runs touch few distinct functions, so
        // a backwards linear probe beats any map.
        {
            FnDelta *d = nullptr;
            for (auto it = scratch_deltas_.rbegin();
                 it != scratch_deltas_.rend(); ++it) {
                if (it->fn == nb.function_id) {
                    d = &*it;
                    break;
                }
            }
            if (d == nullptr) {
                scratch_deltas_.push_back(FnDelta{nb.function_id, 0, 0});
                d = &scratch_deltas_.back();
            }
            d->insns += nb.insns;
            if (nb.isFunctionEntry())
                ++d->entries;
        }
        if (from_packet)
            tail_len = 0;
        if (tail_len < kDecodeStaticTailMax)
            scratch_tail_[tail_len++] = next;
        cur = next;
    }

    // The start block is a conditional and k >= 1, so the first
    // iteration always consumes a bit: used >= 1, progress guaranteed.
    EXIST_ASSERT(used >= 1, "memo run consumed no bits");
    if (scratch_deltas_.size() > 127) {
        // A run touching 128+ functions is a degenerate CFG; the
        // packed entry (7-bit delta count) cannot describe it, so the
        // slow path keeps it.
        ++stats_.unusable;
        return nullptr;
    }
    ++stats_.misses;

    Entry built{};
    built.key = Entry::makeKey(block, bits);
    built.end_block = cur;
    built.insns = static_cast<std::uint32_t>(insns);
    built.last_use = tick_;
    built.used_tail = static_cast<std::uint8_t>(((used - 1) << 4) |
                                                tail_len);

    // Single-function runs with a small entry count — the dominant
    // shape, a loop body staying inside its function — inline the
    // delta into the entry itself (fn + the top bits of branches;
    // insns is shared with the run total, which for one function is
    // the same number). Payload then carries only the tail.
    const bool inline_delta =
        scratch_deltas_.size() == 1 && scratch_deltas_[0].entries <= 7;
    std::uint32_t entries_bits = 0;
    std::size_t delta_words;
    if (inline_delta) {
        built.fn = scratch_deltas_[0].fn;
        entries_bits = scratch_deltas_[0].entries;
        delta_words = 0;
        built.delta_len =
            static_cast<std::uint8_t>(end_conditional ? 0x80u : 0u);
    } else {
        delta_words = 3 * scratch_deltas_.size();
        built.delta_len =
            static_cast<std::uint8_t>(scratch_deltas_.size() |
                                      (end_conditional ? 0x80u : 0u));
    }
    built.branches =
        static_cast<std::uint16_t>(branches | (entries_bits << 13));

    // Assemble the payload: the FnDelta triples, then the tail words.
    const std::size_t payload_words = delta_words + tail_len;
    const bool over_budget = arena_.bytesReserved() >= kArenaBudget;
    std::uint32_t *payload = nullptr;
    if (over_budget) {
        // Over the arena budget: serve this run from scratch storage
        // without inserting, so decode keeps its fast result but the
        // table stops growing. Valid until the next lookupOrBuild.
        scratch_payload_.resize(std::max<std::size_t>(payload_words, 1));
        payload = scratch_payload_.data();
        built.pay_off = MemoArena::kNoOffset;
    } else {
        payload =
            arena_.allocArray<std::uint32_t>(payload_words, &built.pay_off);
    }
    if (payload_words != 0) {
        std::memcpy(payload, scratch_deltas_.data(),
                    delta_words * sizeof(std::uint32_t));
        std::memcpy(payload + delta_words, scratch_tail_,
                    tail_len * sizeof(std::uint32_t));
    }

    if (over_budget) {
        scratch_entry_ = built;
        return &scratch_entry_;
    }
    if (slot.valid())
        ++stats_.evictions;
    slot = built;
    return &slot;
}

}  // namespace exist
