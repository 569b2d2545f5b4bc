/**
 * @file
 * Decode fast-path equivalence (DESIGN.md §11): the BlockCache +
 * TNT-run memo must be bit-identical to the cache-off reference for
 * every memo window size, for any chunking of the byte stream, with
 * path recording on, and across warm memo-pool reuse. Also exercises
 * one BlockCache and one TntMemoPool shared by concurrent decoders —
 * the file is part of the concurrency suite so that runs under TSan.
 */
#include <gtest/gtest.h>

#include <random>
#include <thread>
#include <vector>

#include "analysis/testbed.h"
#include "decode/block_cache.h"
#include "decode/flow_reconstructor.h"
#include "decode/tnt_memo.h"
#include "workload/branch.h"

namespace exist {
namespace {

void
expectSameDecode(const DecodedTrace &a, const DecodedTrace &b)
{
    EXPECT_EQ(a.branches_decoded, b.branches_decoded);
    EXPECT_EQ(a.insns_decoded, b.insns_decoded);
    EXPECT_EQ(a.function_insns, b.function_insns);
    EXPECT_EQ(a.function_entries, b.function_entries);
    EXPECT_EQ(a.block_path, b.block_path);
    EXPECT_EQ(a.ptwrites, b.ptwrites);
    EXPECT_EQ(a.tnt_bits_consumed, b.tnt_bits_consumed);
    EXPECT_EQ(a.tips_consumed, b.tips_consumed);
    EXPECT_EQ(a.decode_errors, b.decode_errors);
    EXPECT_EQ(a.resyncs, b.resyncs);
    ASSERT_EQ(a.segments.size(), b.segments.size());
    for (std::size_t i = 0; i < a.segments.size(); ++i) {
        EXPECT_EQ(a.segments[i].start_time, b.segments[i].start_time);
        EXPECT_EQ(a.segments[i].end_time, b.segments[i].end_time);
        EXPECT_EQ(a.segments[i].first_offset,
                  b.segments[i].first_offset);
        EXPECT_EQ(a.segments[i].branches, b.segments[i].branches);
    }
}

/** The traced buffers every test decodes (one session, collected
 *  once). */
const std::vector<CollectedTrace> &
sessionTraces()
{
    static const std::vector<CollectedTrace> traces = [] {
        ExperimentSpec spec;
        spec.node.num_cores = 8;
        spec.workloads.push_back(WorkloadSpec{
            .app = "mc", .target = true, .closed_clients = 8});
        spec.backend = "EXIST";
        spec.session.period = secondsToCycles(0.12);
        spec.warmup = secondsToCycles(0.03);
        spec.keep_traces = true;
        return Testbed::run(spec).raw_traces;
    }();
    return traces;
}

DecodeOptions
offOptions()
{
    DecodeOptions o;
    o.block_cache = false;
    o.tnt_memo_bits = 0;
    return o;
}

/** Split [0, n) into random-sized chunks (at least 1 byte each). */
std::vector<std::size_t>
randomChunks(std::size_t n, std::uint32_t seed, std::size_t max_chunk)
{
    std::mt19937 rng(seed);
    std::uniform_int_distribution<std::size_t> dist(1, max_chunk);
    std::vector<std::size_t> sizes;
    std::size_t placed = 0;
    while (placed < n) {
        std::size_t sz = std::min(dist(rng), n - placed);
        sizes.push_back(sz);
        placed += sz;
    }
    return sizes;
}

TEST(DecodeCache, OnOffIdenticalAcrossMemoBits)
{
    const auto &traces = sessionTraces();
    ASSERT_FALSE(traces.empty());
    auto bin = Testbed::binaryForApp("mc");
    FlowReconstructor off_rec(bin.get(), offOptions());
    for (const CollectedTrace &ct : traces) {
        const DecodedTrace ref = off_rec.decode(ct.bytes);
        for (int k : {0, 1, 4, 8, 16}) {
            DecodeOptions on;
            on.tnt_memo_bits = k;
            FlowReconstructor on_rec(bin.get(), on);
            expectSameDecode(on_rec.decode(ct.bytes), ref);
        }
    }
}

TEST(DecodeCache, RecordPathIdenticalOnOff)
{
    const auto &traces = sessionTraces();
    ASSERT_FALSE(traces.empty());
    auto bin = Testbed::binaryForApp("mc");
    DecodeOptions off = offOptions();
    off.record_path = true;
    DecodeOptions on;
    on.record_path = true;  // disables the memo, keeps the BlockCache
    FlowReconstructor off_rec(bin.get(), off);
    FlowReconstructor on_rec(bin.get(), on);
    const CollectedTrace &ct = traces.front();
    const DecodedTrace a = off_rec.decode(ct.bytes);
    const DecodedTrace b = on_rec.decode(ct.bytes);
    EXPECT_FALSE(a.block_path.empty());
    expectSameDecode(b, a);
}

TEST(DecodeCache, ChunkedStreamingIdenticalAcrossMemoBits)
{
    const auto &traces = sessionTraces();
    ASSERT_FALSE(traces.empty());
    auto bin = Testbed::binaryForApp("mc");
    const CollectedTrace &ct = traces.front();
    FlowReconstructor off_rec(bin.get(), offOptions());
    const DecodedTrace ref = off_rec.decode(ct.bytes);
    for (int k : {1, 6, 16}) {
        DecodeOptions on;
        on.tnt_memo_bits = k;
        FlowReconstructor rec(bin.get(), on);
        for (std::uint32_t seed : {11u, 12u, 13u}) {
            // Mix tiny chunks (mid-packet boundaries) with large ones.
            const std::size_t max_chunk = seed % 2 ? 7 : 1024;
            FlowStream fs = rec.stream();
            std::size_t off_bytes = 0;
            for (std::size_t sz :
                 randomChunks(ct.bytes.size(), seed, max_chunk)) {
                fs.append(ct.bytes.data() + off_bytes, sz);
                off_bytes += sz;
            }
            expectSameDecode(fs.finish(), ref);
        }
    }
}

TEST(DecodeCache, WarmMemoPoolReuseIsIdentical)
{
    const auto &traces = sessionTraces();
    ASSERT_FALSE(traces.empty());
    auto bin = Testbed::binaryForApp("mc");
    const CollectedTrace &ct = traces.front();
    FlowReconstructor rec(bin.get());
    const DecodedTrace first = rec.decode(ct.bytes);
    const DecodedTrace second = rec.decode(ct.bytes);
    expectSameDecode(second, first);
    // The second decode acquires the first's memo from the pool: same
    // bytes, so every window it re-replays is already resident.
    EXPECT_GT(second.cache_stats.memo_hits, 0u);
    EXPECT_LE(second.cache_stats.memo_misses,
              first.cache_stats.memo_misses);
}

TEST(DecodeCache, PoollessStreamOwnsItsMemoAcrossAppends)
{
    // A stream opened without a pool keeps one memo for its whole life.
    // A stream lent memos from a private pool gets that pool's single
    // memo back at every append, so under one chunking both see the
    // same memo history: identical output and identical memo counters.
    const auto &traces = sessionTraces();
    ASSERT_FALSE(traces.empty());
    auto bin = Testbed::binaryForApp("mc");
    const CollectedTrace &ct = traces.front();
    const DecodedTrace ref =
        FlowReconstructor(bin.get(), offOptions()).decode(ct.bytes);
    auto cache = BlockCache::forBinary(bin.get());
    TntMemoPool pool;
    FlowStream owned(bin.get(), DecodeOptions{}, cache, nullptr);
    FlowStream lent(bin.get(), DecodeOptions{}, cache, &pool);
    std::size_t off = 0;
    for (std::size_t sz : randomChunks(ct.bytes.size(), 31, 512)) {
        owned.append(ct.bytes.data() + off, sz);
        lent.append(ct.bytes.data() + off, sz);
        off += sz;
        // Between calls the lent memo is back in the pool.
        ASSERT_EQ(pool.size(), 1u);
    }
    const DecodedTrace a = owned.finish();
    const DecodedTrace b = lent.finish();
    expectSameDecode(a, ref);
    expectSameDecode(b, ref);
    EXPECT_GT(a.cache_stats.memo_hits, 0u);
    EXPECT_EQ(a.cache_stats.memo_hits, b.cache_stats.memo_hits);
    EXPECT_EQ(a.cache_stats.memo_misses, b.cache_stats.memo_misses);
    EXPECT_EQ(a.cache_stats.memo_evictions, b.cache_stats.memo_evictions);
    EXPECT_EQ(a.cache_stats.memo_fast_bits, b.cache_stats.memo_fast_bits);
    EXPECT_EQ(a.cache_stats.memo_bytes, b.cache_stats.memo_bytes);
    EXPECT_EQ(pool.size(), 1u);
}

TEST(DecodeCache, MemoTableStartsSmallAndGrowsUnderLoad)
{
    // The table starts at its minimum and doubles on the first miss
    // that would evict; a binary's worth of distinct windows grows it,
    // never past the per-k ceiling.
    auto bin = Testbed::binaryForApp("Search1");
    auto cache = BlockCache::forBinary(bin.get());
    TntMemo memo(6, cache.get());
    const std::size_t initial = memo.sets();
    EXPECT_EQ(initial, 512u);
    EXPECT_LT(memo.bytes(), 2u * 1024 * 1024);
    std::uint64_t lookups = 0;
    for (std::uint32_t b = 0; b < cache->numBlocks(); ++b) {
        if (cache->info(b).branchKind() != BranchKind::kConditional)
            continue;
        for (std::uint32_t bits = 0; bits < 64; bits += 4) {
            memo.lookupOrBuild(b, bits);
            ++lookups;
        }
    }
    // Several times the initial slot count (initial sets x 4 ways).
    ASSERT_GT(lookups, 4u * 4u * initial);
    EXPECT_GT(memo.sets(), initial);
    EXPECT_LE(memo.sets(), 16384u);
    const TntMemo::Stats st = memo.stats();
    EXPECT_EQ(st.hits + st.misses + st.unusable, lookups);
}

TEST(DecodeCache, SharedBlockCacheAcrossThreads)
{
    const auto &traces = sessionTraces();
    ASSERT_FALSE(traces.empty());
    auto bin = Testbed::binaryForApp("mc");
    // One reconstructor: all threads read its BlockCache and recycle
    // memos through its internally-locked pool.
    FlowReconstructor rec(bin.get());
    std::vector<DecodedTrace> serial;
    for (const CollectedTrace &ct : traces)
        serial.push_back(rec.decode(ct.bytes));

    std::vector<DecodedTrace> parallel(traces.size());
    std::vector<std::thread> workers;
    const std::size_t nthreads = std::min<std::size_t>(4, traces.size());
    for (std::size_t t = 0; t < nthreads; ++t) {
        workers.emplace_back([&, t] {
            for (std::size_t i = t; i < traces.size(); i += nthreads)
                parallel[i] = rec.decode(traces[i].bytes);
        });
    }
    for (std::thread &w : workers)
        w.join();
    for (std::size_t i = 0; i < traces.size(); ++i)
        expectSameDecode(parallel[i], serial[i]);
}

}  // namespace
}  // namespace exist
