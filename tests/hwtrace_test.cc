/**
 * @file
 * Tests for the hardware-tracer model: MSR legality rules, ToPA
 * semantics (STOP, ring, PMI, drain), packet writer state machines and
 * the tracer's PacketEn filter transitions.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "decode/flow_reconstructor.h"
#include "decode/packet_parser.h"
#include "hwtrace/msr.h"
#include "hwtrace/packet_writer.h"
#include "hwtrace/topa.h"
#include "hwtrace/tracer.h"
#include "util/rng.h"
#include "workload/execution.h"

namespace exist {
namespace {

TEST(Msr, ConfigWhileEnabledFaults)
{
    MsrFile msrs;
    ASSERT_TRUE(msrs.write(RtitMsr::kCtl, rtit_ctl::kTraceEn).ok);
    // Changing CR3Match with TraceEn=1 is architecturally illegal.
    EXPECT_FALSE(msrs.write(RtitMsr::kCr3Match, 0x1234).ok);
    EXPECT_FALSE(msrs.write(RtitMsr::kOutputBase, 0x1000).ok);
    // Changing CTL bits other than TraceEn is illegal too.
    EXPECT_FALSE(
        msrs.write(RtitMsr::kCtl,
                   rtit_ctl::kTraceEn | rtit_ctl::kBranchEn)
            .ok);
    // Clearing TraceEn alone is fine.
    EXPECT_TRUE(msrs.write(RtitMsr::kCtl, 0).ok);
    EXPECT_TRUE(msrs.write(RtitMsr::kCr3Match, 0x1234).ok);
    EXPECT_EQ(msrs.cr3Match(), 0x1234u);
}

TEST(Msr, AccessesHaveCosts)
{
    MsrFile msrs;
    auto w = msrs.write(RtitMsr::kCr3Match, 1);
    EXPECT_GT(w.cost, 0u);
    std::uint64_t v;
    auto r = msrs.readCosted(RtitMsr::kCr3Match, v);
    EXPECT_EQ(v, 1u);
    EXPECT_GT(r.cost, 0u);
    EXPECT_LT(r.cost, w.cost);
    EXPECT_EQ(msrs.writeCount(), 1u);
}

TEST(Topa, StopSemanticsDropExcess)
{
    TopaBuffer buf;
    buf.configure({TopaEntry{16, /*stop=*/true, false}}, false);
    std::uint8_t data[24] = {0};
    TopaWriteResult r = buf.write(data, 24);
    EXPECT_EQ(r.accepted, 16u);
    EXPECT_EQ(r.dropped, 8u);
    EXPECT_TRUE(r.stopped_now);
    EXPECT_TRUE(buf.stopped());
    // Further writes are fully dropped.
    r = buf.write(data, 4);
    EXPECT_EQ(r.accepted, 0u);
    EXPECT_EQ(r.dropped, 4u);
    EXPECT_EQ(buf.bytesAccepted(), 16u);
    EXPECT_EQ(buf.bytesDropped(), 12u);
}

TEST(Topa, MultiRegionChain)
{
    TopaBuffer buf;
    buf.configure({TopaEntry{8, false, false},
                   TopaEntry{8, false, true},
                   TopaEntry{8, true, false}},
                  false);
    EXPECT_EQ(buf.capacity(), 24u);
    std::uint8_t data[32];
    for (int i = 0; i < 32; ++i)
        data[i] = static_cast<std::uint8_t>(i);
    TopaWriteResult r = buf.write(data, 32);
    EXPECT_EQ(r.accepted, 24u);
    EXPECT_EQ(r.pmis_fired, 1);  // the INT region filled
    EXPECT_TRUE(buf.stopped());
    EXPECT_EQ(buf.data()[23], 23);
}

TEST(Topa, RingWrapsAndDrainsOldestFirst)
{
    TopaBuffer buf;
    buf.configure({TopaEntry{8, false, false}}, /*ring=*/true);
    std::uint8_t data[12];
    for (int i = 0; i < 12; ++i)
        data[i] = static_cast<std::uint8_t>(i);
    buf.write(data, 12);  // wraps once, overwriting bytes 0..3
    EXPECT_EQ(buf.wraps(), 1u);
    EXPECT_FALSE(buf.stopped());
    std::vector<std::uint8_t> out;
    std::uint64_t n = buf.drainTo(out);
    EXPECT_EQ(n, 8u);
    // Oldest-first: bytes 4..7 then 8..11.
    EXPECT_EQ(out[0], 4);
    EXPECT_EQ(out[7], 11);
}

TEST(Topa, DrainPreservesCumulativeCounters)
{
    TopaBuffer buf;
    buf.configure({TopaEntry{64, false, true}}, true);
    std::uint8_t data[40] = {1};
    buf.write(data, 40);
    std::vector<std::uint8_t> out;
    buf.drainTo(out);
    buf.write(data, 40);
    EXPECT_EQ(buf.bytesAccepted(), 80u);
}

TEST(Topa, PartialDrainsAroundStopBoundary)
{
    TopaBuffer buf;
    buf.configure({TopaEntry{8, /*stop=*/true, false}}, false);
    std::uint8_t data[16];
    for (int i = 0; i < 16; ++i)
        data[i] = static_cast<std::uint8_t>(i);

    // Partial fill, drain before the STOP boundary is reached.
    buf.write(data, 5);
    std::vector<std::uint8_t> out;
    EXPECT_EQ(buf.drainTo(out), 5u);
    EXPECT_EQ(out[0], 0);
    EXPECT_EQ(out[4], 4);
    EXPECT_FALSE(buf.stopped());

    // The drain re-arms the chain: the next write crosses the STOP
    // boundary exactly at capacity.
    TopaWriteResult r = buf.write(data + 5, 10);
    EXPECT_EQ(r.accepted, 8u);
    EXPECT_EQ(r.dropped, 2u);
    EXPECT_TRUE(r.stopped_now);
    EXPECT_TRUE(buf.stopped());
    EXPECT_EQ(buf.drainTo(out), 8u);
    ASSERT_EQ(out.size(), 13u);
    // Concatenated drains reproduce the accepted prefix of the input.
    for (int i = 0; i < 13; ++i)
        EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
    // Cumulative counters survive both drains.
    EXPECT_EQ(buf.bytesAccepted(), 13u);
    EXPECT_EQ(buf.bytesDropped(), 2u);
}

TEST(Topa, DrainAfterWrapDoesNotReplayStaleData)
{
    TopaBuffer buf;
    buf.configure({TopaEntry{8, false, false}}, /*ring=*/true);
    std::uint8_t data[16];
    for (int i = 0; i < 16; ++i)
        data[i] = static_cast<std::uint8_t>(i);

    buf.write(data, 12);  // wraps once
    std::vector<std::uint8_t> out;
    EXPECT_EQ(buf.drainTo(out), 8u);
    EXPECT_EQ(out[0], 4);

    // Only 4 fresh bytes since the drain: the drain layout must use
    // the wraps-since-last-drain epoch, not the cumulative count, or
    // it would hand back 8 bytes including a stale replay of the
    // previous epoch's data.
    buf.write(data + 12, 4);
    out.clear();
    EXPECT_EQ(buf.drainTo(out), 4u);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0], 12);
    EXPECT_EQ(out[3], 15);
    // The cumulative wrap statistic still counts the first epoch.
    EXPECT_EQ(buf.wraps(), 1u);
    EXPECT_FALSE(buf.hasWrapped());
}

TEST(Topa, RegionReadyPublishesFilledRegions)
{
    TopaBuffer buf;
    buf.configure({TopaEntry{4, false, false},
                   TopaEntry{4, false, false},
                   TopaEntry{8, true, false}},
                  false);
    std::vector<std::uint8_t> published;
    std::vector<std::uint64_t> spans;
    buf.setRegionReadyCallback(
        [&](const std::uint8_t *d, std::uint64_t n) {
            published.insert(published.end(), d, d + n);
            spans.push_back(n);
        });

    std::uint8_t data[24];
    for (int i = 0; i < 24; ++i)
        data[i] = static_cast<std::uint8_t>(i);

    // Mid-region write publishes nothing.
    buf.write(data, 3);
    EXPECT_TRUE(published.empty());
    EXPECT_EQ(buf.publishedBytes(), 0u);

    // Crossing the first boundary publishes the filled region; one
    // write crossing several boundaries publishes each crossed span.
    buf.write(data + 3, 6);  // cursor 9: regions 0 and 1 filled
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0], 4u);
    EXPECT_EQ(spans[1], 4u);
    EXPECT_EQ(buf.publishedBytes(), 8u);

    // Filling the STOP region publishes it too; the overflow is
    // dropped, not published.
    TopaWriteResult r = buf.write(data + 9, 15);
    EXPECT_EQ(r.accepted, 7u);
    EXPECT_TRUE(buf.stopped());
    EXPECT_EQ(buf.publishedBytes(), 16u);

    // The concatenated published spans are exactly the stored bytes:
    // publishing is non-destructive and in order.
    ASSERT_EQ(published.size(), 16u);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(published[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(buf.flushRegionReady(), 0u);  // nothing unpublished
}

TEST(Topa, FlushRegionReadyPublishesTail)
{
    TopaBuffer buf;
    buf.configure({TopaEntry{8, true, false}}, false);
    std::vector<std::uint8_t> published;
    buf.setRegionReadyCallback(
        [&](const std::uint8_t *d, std::uint64_t n) {
            published.insert(published.end(), d, d + n);
        });
    std::uint8_t data[5] = {9, 8, 7, 6, 5};
    buf.write(data, 5);
    EXPECT_TRUE(published.empty());  // no boundary crossed yet
    EXPECT_EQ(buf.flushRegionReady(), 5u);
    ASSERT_EQ(published.size(), 5u);
    EXPECT_EQ(published[0], 9);
    EXPECT_EQ(published[4], 5);
    EXPECT_EQ(buf.flushRegionReady(), 0u);  // idempotent
    EXPECT_EQ(buf.publishedBytes(), 5u);
}

/**
 * Reference model of the ToPA output as one flat, fully preallocated
 * array — the layout TopaBuffer had before its store grew with the
 * cursor. The growing store must reproduce it byte for byte: stored
 * content, drain order, wrap offset and region-ready spans.
 */
struct FlatTopa {
    std::vector<TopaEntry> entries;
    bool ring = false;
    std::vector<std::uint8_t> store;  // capacity bytes, zero-filled
    std::uint64_t cursor = 0;
    std::uint64_t fill = 0;
    std::size_t region = 0;
    bool stopped = false;
    std::uint64_t wraps = 0;
    std::uint64_t published = 0;
    std::vector<std::uint8_t> spans;  // concatenated region-ready output

    FlatTopa(std::vector<TopaEntry> e, bool r) : entries(std::move(e)), ring(r)
    {
        std::uint64_t cap = 0;
        for (const TopaEntry &t : entries)
            cap += t.size_bytes;
        store.assign(cap, 0);
    }

    void
    write(const std::uint8_t *d, std::uint64_t n)
    {
        while (n > 0 && !stopped) {
            const TopaEntry &e = entries[region];
            std::uint64_t take = std::min(e.size_bytes - fill, n);
            std::memcpy(store.data() + cursor, d, take);
            cursor += take;
            fill += take;
            d += take;
            n -= take;
            if (fill < e.size_bytes)
                continue;
            if (e.stop) {
                stopped = true;
            } else if (region + 1 < entries.size()) {
                ++region;
                fill = 0;
            } else if (ring) {
                region = 0;
                fill = 0;
                cursor = 0;
                ++wraps;
            } else {
                stopped = true;
            }
            if (!ring)
                publish();
        }
    }

    void
    publish()
    {
        spans.insert(spans.end(),
                     store.begin() + static_cast<std::ptrdiff_t>(published),
                     store.begin() + static_cast<std::ptrdiff_t>(cursor));
        published = cursor;
    }

    std::vector<std::uint8_t>
    drain()
    {
        auto at = [this](std::uint64_t i) {
            return store.begin() + static_cast<std::ptrdiff_t>(i);
        };
        std::vector<std::uint8_t> out;
        if (wraps == 0) {
            out.assign(at(0), at(cursor));
        } else {
            out.assign(at(cursor), store.end());
            out.insert(out.end(), at(0), at(cursor));
        }
        cursor = fill = published = wraps = 0;
        region = 0;
        stopped = false;
        return out;
    }
};

TEST(Topa, GrowingStoreMatchesFlatReferenceModel)
{
    Rng rng(4242);
    for (int trial = 0; trial < 300; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        std::vector<TopaEntry> entries;
        const int nregions = 1 + static_cast<int>(rng.uniformInt(4));
        for (int i = 0; i < nregions; ++i)
            entries.push_back(TopaEntry{1 + rng.uniformInt(3000),
                                        rng.bernoulli(0.15),
                                        rng.bernoulli(0.3)});
        const bool ring = rng.bernoulli(0.5);
        TopaBuffer buf;
        buf.configure(entries, ring);
        FlatTopa ref(entries, ring);
        std::vector<std::uint8_t> spans;
        if (!ring)
            buf.setRegionReadyCallback(
                [&spans](const std::uint8_t *d, std::uint64_t n) {
                    spans.insert(spans.end(), d, d + n);
                });

        std::vector<std::uint8_t> chunk(2048);
        for (int step = 0; step < 40; ++step) {
            if (rng.bernoulli(0.1)) {
                std::vector<std::uint8_t> out;
                buf.drainTo(out);
                ASSERT_EQ(out, ref.drain());
                if (!ring) {
                    ASSERT_EQ(buf.publishedBytes(), 0u);
                }
                continue;
            }
            const std::uint64_t n = 1 + rng.uniformInt(chunk.size());
            for (std::uint64_t i = 0; i < n; ++i)
                chunk[i] = static_cast<std::uint8_t>(rng.next());
            buf.write(chunk.data(), n);
            ref.write(chunk.data(), n);

            // Stored content: exactly the written prefix (the whole
            // chain once a ring wrapped), equal to the flat layout.
            ASSERT_EQ(buf.stopped(), ref.stopped);
            ASSERT_EQ(buf.hasWrapped(), ref.wraps != 0);
            ASSERT_EQ(buf.wrapOffset(), ref.wraps != 0 ? ref.cursor : 0);
            const std::uint64_t held =
                ref.wraps != 0 ? ref.store.size() : ref.cursor;
            ASSERT_EQ(buf.data().size(), held);
            ASSERT_TRUE(std::equal(buf.data().begin(), buf.data().end(),
                                   ref.store.begin()));
        }
        if (!ring) {
            buf.flushRegionReady();
            ref.publish();
            ASSERT_EQ(spans, ref.spans);
        }
        std::vector<std::uint8_t> out;
        buf.drainTo(out);
        ASSERT_EQ(out, ref.drain());
    }
}

TEST(PacketWriter, TntPacksSixPerByte)
{
    TopaBuffer buf;
    buf.configure({TopaEntry{4096, true, false}}, false);
    PacketWriter writer(&buf);
    writer.setCycEnabled(false);
    writer.setTscEnabled(false);
    writer.resetState(0);
    for (int i = 0; i < 12; ++i)
        writer.tnt(i % 2 == 0, 10 * i);
    EXPECT_EQ(writer.stats().tnt_packets, 2u);
    EXPECT_EQ(writer.stats().tnt_bits, 12u);
    EXPECT_EQ(buf.bytesAccepted(), 2u);  // one byte per 6 outcomes

    // A partial group flushes as the 2-byte form.
    writer.tnt(true, 130);
    writer.flushTnt(140);
    EXPECT_EQ(writer.stats().tnt_packets, 3u);
    EXPECT_EQ(buf.bytesAccepted(), 4u);
}

TEST(PacketWriter, RoundTripThroughParser)
{
    TopaBuffer buf;
    buf.configure({TopaEntry{1 << 16, true, false}}, false);
    PacketWriter writer(&buf);
    writer.resetState(100);
    writer.pge(0x401000, 100);
    for (int i = 0; i < 6; ++i)
        writer.tnt(i & 1, 110 + static_cast<Cycles>(i));
    writer.tip(0x402345, 130);
    writer.tip(0x402349, 140);  // 2-byte compressed
    writer.pip(0xdeadb);
    writer.pgd(150);

    PacketParser parser(buf.data().data(), buf.bytesAccepted());
    Packet pkt;
    std::vector<PacketOp> ops;
    std::vector<std::uint64_t> values;
    while (parser.next(pkt)) {
        ops.push_back(pkt.op);
        values.push_back(pkt.value);
    }
    // CYC packets interleave; filter to the structural ones.
    std::vector<std::pair<PacketOp, std::uint64_t>> structural;
    for (std::size_t i = 0; i < ops.size(); ++i)
        if (ops[i] != PacketOp::kCyc && ops[i] != PacketOp::kTsc)
            structural.emplace_back(ops[i], values[i]);

    ASSERT_GE(structural.size(), 5u);
    EXPECT_EQ(structural[0].first, PacketOp::kTipPge);
    EXPECT_EQ(structural[0].second, 0x401000u);
    EXPECT_EQ(structural[1].first, PacketOp::kTnt6);
    EXPECT_EQ(structural[2].first, PacketOp::kTip);
    EXPECT_EQ(structural[2].second, 0x402345u);
    EXPECT_EQ(structural[3].first, PacketOp::kTip);
    EXPECT_EQ(structural[3].second, 0x402349u);
    EXPECT_EQ(structural[4].first, PacketOp::kPip);
    EXPECT_EQ(structural[4].second, 0xdeadbu);
    EXPECT_EQ(structural[5].first, PacketOp::kTipPgd);
}

TEST(PacketWriter, CycDeltasAccumulateTime)
{
    TopaBuffer buf;
    buf.configure({TopaEntry{1 << 16, true, false}}, false);
    PacketWriter writer(&buf);
    writer.setTscEnabled(false);
    writer.resetState(1000);
    writer.tip(0x400000, 1250);
    writer.tip(0x400100, 1900);

    PacketParser parser(buf.data().data(), buf.bytesAccepted());
    Packet pkt;
    Cycles t = 1000;
    while (parser.next(pkt))
        if (pkt.op == PacketOp::kCyc)
            t += pkt.value;
    EXPECT_EQ(t, 1900u);
}

TEST(PacketWriter, PsbCadenceAndResync)
{
    TopaBuffer buf;
    buf.configure({TopaEntry{1 << 20, true, false}}, false);
    PacketWriter writer(&buf);
    writer.resetState(0);
    writer.pge(0x400000, 0);
    for (Cycles i = 0; i < 30000; ++i)
        writer.tnt(i % 3 == 0, i);
    EXPECT_GE(writer.stats().psb_packets, 1u);

    // A parser starting mid-stream can resync at a PSB.
    PacketParser parser(buf.data().data() + 3,
                        buf.bytesAccepted() - 3);
    ASSERT_TRUE(parser.resyncToPsb());
    Packet pkt;
    int parsed = 0;
    while (parser.next(pkt))
        ++parsed;
    EXPECT_GT(parsed, 100);
}

TEST(Tracer, PacketEnFollowsCr3Filter)
{
    CoreTracer tracer(0);
    TracerConfig cfg;
    cfg.cr3_filter = true;
    cfg.cr3_match = 0xaaa;
    cfg.topa = {TopaEntry{1 << 16, true, false}};
    ASSERT_TRUE(tracer.configure(cfg).ok);
    ASSERT_TRUE(tracer.enable(0, 0xbbb, 0x400000).ok);
    EXPECT_TRUE(tracer.enabled());
    EXPECT_FALSE(tracer.packetEn());  // wrong process

    tracer.onContextSwitch(0xaaa, 0x400000, 10);
    EXPECT_TRUE(tracer.packetEn());  // matched: PGE emitted
    EXPECT_EQ(tracer.packetStats().pge_packets, 1u);

    tracer.onContextSwitch(0xccc, 0x500000, 20);
    EXPECT_FALSE(tracer.packetEn());  // PGD emitted
    EXPECT_EQ(tracer.packetStats().pgd_packets, 1u);
}

TEST(Tracer, SyscallPausesUserTracing)
{
    CoreTracer tracer(0);
    TracerConfig cfg;
    cfg.topa = {TopaEntry{1 << 16, true, false}};
    ASSERT_TRUE(tracer.configure(cfg).ok);
    ASSERT_TRUE(tracer.enable(0, 0x1, 0x400000).ok);
    ASSERT_TRUE(tracer.packetEn());
    tracer.onSyscallEntry(50);
    EXPECT_FALSE(tracer.packetEn());
    tracer.onUserResume(0x1, 0x400400, 80);
    EXPECT_TRUE(tracer.packetEn());
}

TEST(Tracer, StopOnFullSetsStatus)
{
    ProgramBinary prog =
        ProgramBinary::generate(AppCatalog::find("ex"), 2);
    CoreTracer tracer(0);
    TracerConfig cfg;
    cfg.topa = {TopaEntry{256, true, false}};  // tiny: fills fast
    ASSERT_TRUE(tracer.configure(cfg).ok);
    ASSERT_TRUE(
        tracer.enable(0, 0x1, prog.block(prog.entryBlock()).address)
            .ok);
    ExecutionContext exec(&prog, 3);
    for (Cycles i = 0; i < 5000 && !tracer.stopped(); ++i) {
        StepResult s = exec.step();
        tracer.onBranch(s.branch, prog, i * 10, 0x1, true);
    }
    EXPECT_TRUE(tracer.stopped());
    EXPECT_FALSE(tracer.packetEn());
    EXPECT_GT(tracer.realBytesDropped(), 0u);
}

TEST(Tracer, ConfigureWhileEnabledFails)
{
    CoreTracer tracer(0);
    TracerConfig cfg;
    cfg.topa = {TopaEntry{4096, true, false}};
    ASSERT_TRUE(tracer.configure(cfg).ok);
    ASSERT_TRUE(tracer.enable(0, 0, 0x400000).ok);
    EXPECT_FALSE(tracer.configure(cfg).ok);
    ASSERT_TRUE(tracer.disable(10).ok);
    EXPECT_TRUE(tracer.configure(cfg).ok);
}

TEST(Tracer, ExternalOutputIsUsed)
{
    TopaBuffer external;
    external.configure({TopaEntry{1 << 16, false, false}}, true);
    CoreTracer tracer(0);
    TracerConfig cfg;
    cfg.external_output = &external;
    ASSERT_TRUE(tracer.configure(cfg).ok);
    ASSERT_TRUE(tracer.enable(0, 0, 0x400000).ok);
    EXPECT_EQ(&tracer.output(), &external);
    EXPECT_GT(external.bytesAccepted(), 0u);  // the PGE landed there
}

TEST(Tracer, PtWriteRoundTripsThroughDecode)
{
    // The SS6.1 data-flow enhancement: PTWRITE payloads interleave with
    // control flow and decode back in order with timestamps.
    ProgramBinary prog =
        ProgramBinary::generate(AppCatalog::find("om"), 21);
    CoreTracer tracer(0);
    TracerConfig cfg;
    cfg.topa = {TopaEntry{1 << 20, true, false}};
    ASSERT_TRUE(tracer.configure(cfg).ok);
    ExecutionContext exec(&prog, 22);
    ASSERT_TRUE(
        tracer.enable(0, 0x1, prog.block(exec.currentBlock()).address)
            .ok);

    std::vector<std::uint64_t> written;
    Cycles now = 0;
    for (int i = 0; i < 5000; ++i) {
        StepResult s = exec.step();
        now += s.insns;
        tracer.onBranch(s.branch, prog, now, 0x1, true);
        if (i % 500 == 250) {
            std::uint64_t v = 0xfeed0000ull + static_cast<unsigned>(i);
            tracer.onPtWrite(v, now);
            written.push_back(v);
        }
    }
    tracer.disable(now);
    EXPECT_EQ(tracer.packetStats().ptw_packets, written.size());

    FlowReconstructor rec(&prog);
    DecodedTrace dt = rec.decode(tracer.output().data().data(),
                                 tracer.output().bytesAccepted());
    ASSERT_EQ(dt.ptwrites.size(), written.size());
    Cycles prev = 0;
    for (std::size_t i = 0; i < written.size(); ++i) {
        EXPECT_EQ(dt.ptwrites[i].second, written[i]);
        EXPECT_GE(dt.ptwrites[i].first, prev);
        prev = dt.ptwrites[i].first;
    }
    // Control flow is unaffected by interleaved data packets.
    EXPECT_EQ(dt.decode_errors, 0u);
    EXPECT_GT(dt.branches_decoded, 4900u);
}

TEST(Tracer, PtWriteIgnoredWhilePacketsDisabled)
{
    CoreTracer tracer(0);
    TracerConfig cfg;
    cfg.cr3_filter = true;
    cfg.cr3_match = 0xaaa;
    cfg.topa = {TopaEntry{1 << 16, true, false}};
    ASSERT_TRUE(tracer.configure(cfg).ok);
    ASSERT_TRUE(tracer.enable(0, 0xbbb, 0x400000).ok);  // no match
    ASSERT_FALSE(tracer.packetEn());
    tracer.onPtWrite(0x1234, 10);
    EXPECT_EQ(tracer.packetStats().ptw_packets, 0u);
}

}  // namespace
}  // namespace exist
