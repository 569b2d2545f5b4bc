/**
 * @file
 * Micro-benchmarks (google-benchmark) of the substrate hot paths: trace
 * packet encoding, packet parsing, flow reconstruction, program
 * execution stepping, the event queue, and the checksum every frame,
 * WAL record and snapshot image pays. These bound the wall-clock cost
 * of the figure harnesses and of the pipeline's byte paths.
 */
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "decode/flow_reconstructor.h"
#include "decode/packet_parser.h"
#include "hwtrace/packet_writer.h"
#include "hwtrace/topa.h"
#include "hwtrace/tracer.h"
#include "net/wire.h"
#include "sim/event_queue.h"
#include "workload/execution.h"

namespace exist {
namespace {

const ProgramBinary &
testProgram()
{
    static ProgramBinary prog =
        ProgramBinary::generate(AppCatalog::find("om"), 4242);
    return prog;
}

void
BM_ExecutionStep(benchmark::State &state)
{
    ExecutionContext exec(&testProgram(), 7);
    for (auto _ : state) {
        StepResult s = exec.step();
        benchmark::DoNotOptimize(s.branch.target_block);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExecutionStep);

void
BM_PacketEncode(benchmark::State &state)
{
    TopaBuffer buf;
    buf.configure({TopaEntry{64ull << 20, false, false}}, true);
    PacketWriter writer(&buf);
    writer.resetState(0);
    ExecutionContext exec(&testProgram(), 7);
    Cycles now = 0;
    for (auto _ : state) {
        StepResult s = exec.step();
        now += s.insns;
        switch (s.branch.kind) {
          case BranchKind::kConditional:
            writer.tnt(s.branch.taken, now);
            break;
          case BranchKind::kIndirectJump:
          case BranchKind::kIndirectCall:
          case BranchKind::kReturn:
            writer.tip(
                testProgram().block(s.branch.target_block).address,
                now);
            break;
          default:
            break;
        }
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["bytes/branch"] = benchmark::Counter(
        static_cast<double>(buf.bytesAccepted()) /
        static_cast<double>(state.iterations()));
}
BENCHMARK(BM_PacketEncode);

void
BM_FullTracerPath(benchmark::State &state)
{
    CoreTracer tracer(0);
    TracerConfig cfg;
    cfg.cache_bypass = true;
    cfg.topa = {TopaEntry{256ull << 20, false, false}};
    cfg.topa_ring = true;
    tracer.configure(cfg);
    ExecutionContext exec(&testProgram(), 9);
    tracer.enable(0, 0, testProgram().block(exec.currentBlock()).address);
    Cycles now = 0;
    for (auto _ : state) {
        StepResult s = exec.step();
        now += s.insns;
        tracer.onBranch(s.branch, testProgram(), now, 0, true);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullTracerPath);

/** Encode a fixed-length trace of @p prog; returns branch count. */
std::uint64_t
encodeTrace(const ProgramBinary &prog, std::uint64_t seed,
            CoreTracer &tracer)
{
    TracerConfig cfg;
    cfg.topa = {TopaEntry{64ull << 20, true, false}};
    tracer.configure(cfg);
    ExecutionContext exec(&prog, seed);
    tracer.enable(0, 0, prog.block(exec.currentBlock()).address);
    Cycles now = 0;
    std::uint64_t branches = 0;
    for (int i = 0; i < 200000; ++i) {
        StepResult s = exec.step();
        now += s.insns;
        tracer.onBranch(s.branch, prog, now, 0, true);
        ++branches;
    }
    tracer.disable(now);
    return branches;
}

void
BM_DecodeRoundtrip(benchmark::State &state)
{
    // Pre-encode a trace, then measure decode throughput on the legacy
    // cache-off path (the fast path is covered by BM_TntMemoDecode).
    CoreTracer tracer(0);
    std::uint64_t branches = encodeTrace(testProgram(), 11, tracer);
    const TopaBuffer &buf = tracer.output();
    DecodeOptions opts;
    opts.block_cache = false;
    opts.tnt_memo_bits = 0;
    FlowReconstructor rec(&testProgram(), opts);
    for (auto _ : state) {
        DecodedTrace dt = rec.decode(
            buf.data().data(), buf.bytesAccepted());
        benchmark::DoNotOptimize(dt.branches_decoded);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(branches));
}
BENCHMARK(BM_DecodeRoundtrip);

void
BM_PacketParse(benchmark::State &state)
{
    // Parse-only pass over the loop-heavy trace: bounds how much of
    // full decode is the byte-stream parser vs the flow walk.
    static ProgramBinary prog =
        ProgramBinary::generate(AppCatalog::find("ex"), 1717);
    CoreTracer tracer(0);
    std::uint64_t branches = encodeTrace(prog, 13, tracer);
    const TopaBuffer &buf = tracer.output();
    for (auto _ : state) {
        PacketParser parser(buf.data().data(), buf.bytesAccepted());
        Packet pkt;
        std::uint64_t n = 0;
        while (parser.next(pkt))
            ++n;
        benchmark::DoNotOptimize(n);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(branches));
}
BENCHMARK(BM_PacketParse);

void
BM_TntMemoDecode(benchmark::State &state)
{
    // Decode fast path (DESIGN.md §11) over the loop-heavy stencil
    // profile (619.lbm_s stand-in) at varying TNT-memo window sizes.
    // Arg 0 = BlockCache only, no memoization.
    static ProgramBinary prog =
        ProgramBinary::generate(AppCatalog::find("lbm"), 1717);
    CoreTracer tracer(0);
    std::uint64_t branches = encodeTrace(prog, 13, tracer);
    const TopaBuffer &buf = tracer.output();
    DecodeOptions opts;
    opts.block_cache = true;
    opts.tnt_memo_bits = static_cast<int>(state.range(0));
    FlowReconstructor rec(&prog, opts);
    std::uint64_t hits = 0, misses = 0;
    std::uint64_t fast_bits = 0, tnt_bits = 0;
    for (auto _ : state) {
        DecodedTrace dt = rec.decode(
            buf.data().data(), buf.bytesAccepted());
        benchmark::DoNotOptimize(dt.branches_decoded);
        hits = dt.cache_stats.memo_hits;
        misses = dt.cache_stats.memo_misses;
        fast_bits = dt.cache_stats.memo_fast_bits;
        tnt_bits = dt.tnt_bits_consumed;
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(branches));
    state.counters["memo_hit%"] =
        hits + misses > 0 ? 100.0 * static_cast<double>(hits) /
                                static_cast<double>(hits + misses)
                          : 0.0;
    state.counters["fast_bits%"] =
        tnt_bits > 0 ? 100.0 * static_cast<double>(fast_bits) /
                           static_cast<double>(tnt_bits)
                     : 0.0;
}
BENCHMARK(BM_TntMemoDecode)->Arg(0)->Arg(1)->Arg(4)->Arg(5)->Arg(6)->Arg(8)->Arg(16);

/**
 * Kernel-shaped event load: four cores that each reschedule their next
 * slice from inside the firing event (Kernel::scheduleRun), over a
 * dozen far timers that stay pending (tracing-period and interrupt
 * timers). Arg 0 schedules typed records, as the kernel's slices do;
 * arg 1 schedules std::function callbacks, as timers and the fabric do.
 */
class SliceLoad
{
  public:
    static constexpr int kCores = 4;
    static constexpr int kFarTimers = 12;

    explicit SliceLoad(bool typed) : typed_(typed)
    {
        for (int i = 0; i < kFarTimers; ++i)
            q_.schedule(Cycles{1} << 50 | static_cast<Cycles>(i), [] {});
        for (int c = 0; c < kCores; ++c)
            reschedule(static_cast<std::uint64_t>(c));
    }

    EventQueue &queue() { return q_; }
    std::uint64_t slices() const { return slices_; }

  private:
    void
    runSlice(std::uint64_t core)
    {
        ++slices_;
        reschedule(core);
    }

    void
    reschedule(std::uint64_t core)
    {
        const Cycles when = q_.now() + 2000 + 37 * core;
        if (typed_) {
            q_.schedule(when, [](void *load, std::uint64_t c) {
                static_cast<SliceLoad *>(load)->runSlice(c);
            }, this, core);
        } else {
            q_.schedule(when, [this, core] { runSlice(core); });
        }
    }

    EventQueue q_;
    bool typed_;
    std::uint64_t slices_ = 0;
};

void
BM_EventQueue(benchmark::State &state)
{
    SliceLoad load(state.range(0) == 0);
    for (auto _ : state)
        load.queue().step();
    benchmark::DoNotOptimize(load.slices());
    state.SetLabel(state.range(0) == 0 ? "typed" : "callback");
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueue)->Arg(0)->Arg(1);

/**
 * The one checksum (net::xxh64) over a frame-sized (4 KB), a
 * WAL-record-sized (64 KB) and a snapshot-sized (5 MB) buffer of
 * pseudo-random bytes; reports bytes/s.
 */
void
BM_Checksum(benchmark::State &state)
{
    std::vector<std::uint8_t> buf(static_cast<std::size_t>(state.range(0)));
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (std::uint8_t &b : buf) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        b = static_cast<std::uint8_t>(x);
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(net::xxh64(buf.data(), buf.size()));
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_Checksum)->Arg(4 << 10)->Arg(64 << 10)->Arg(5 << 20);

}  // namespace
}  // namespace exist

BENCHMARK_MAIN();
