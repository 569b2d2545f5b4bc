#include "obs/flight_recorder.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>

#include "obs/trace_plane.h"
#include "util/types.h"

namespace exist::obs {
namespace {

const char *
kindLetter(Kind k)
{
    switch (k) {
      case Kind::kBegin: return "B";
      case Kind::kEnd: return "E";
      case Kind::kInstant: return "i";
      case Kind::kFlowBegin: return "s";
      case Kind::kFlowEnd: return "f";
      case Kind::kSimSpan: return "X";
    }
    return "?";
}

void
appendf(std::string &out, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

void
appendf(std::string &out, const char *fmt, ...)
{
    char buf[256];
    va_list args;
    va_start(args, fmt);
    int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    if (n > 0)
        out.append(buf, std::min<std::size_t>(static_cast<std::size_t>(n),
                                              sizeof(buf) - 1));
}

}  // namespace

std::string
flightDumpText(std::size_t last_n)
{
    auto threads = snapshot();
    // Anchor real timestamps at the newest real event so lines read as
    // "T-123.4us": time before the crash/dump point.
    std::uint64_t t_max = 0;
    for (const auto &t : threads)
        for (const auto &ev : t.events)
            if (ev.clock == Clock::kReal)
                t_max = std::max(t_max, ev.ts);

    std::string out;
    appendf(out,
            "== exist flight recorder: %" PRIu64 " thread(s), %" PRIu64
            " event(s) recorded ==\n",
            threadsRegistered(), eventsRecorded());
    for (const auto &t : threads) {
        std::size_t n = t.events.size();
        std::size_t first = n > last_n ? n - last_n : 0;
        appendf(out, "-- ring %d (%s): last %zu of %" PRIu64 " --\n",
                t.ring, t.name.c_str(), n - first, t.total);
        for (std::size_t i = first; i < n; ++i) {
            const EventView &ev = t.events[i];
            const char *name = ev.name ? ev.name : "<null>";
            if (ev.clock == Clock::kReal) {
                double rel_us =
                    static_cast<double>(t_max - std::min(ev.ts, t_max)) /
                    1000.0;
                appendf(out, "  real T-%010.3fus %s %-24s corr=%016" PRIx64
                             " arg=%" PRIu64 "\n",
                        rel_us, kindLetter(ev.kind), name, ev.corr, ev.arg);
            } else {
                appendf(out, "  sim  @%-12" PRIu64 " %s %-24s corr=%016"
                             PRIx64 " node=%" PRIu64 " payload=%" PRIu64
                             "\n",
                        ev.ts, kindLetter(ev.kind), name, ev.corr,
                        ev.arg & 0xffff, ev.arg >> 16);
            }
        }
    }
    std::uint64_t dropped = threadsDropped();
    if (dropped)
        appendf(out, "-- %" PRIu64 " thread(s) unrecorded (table full) --\n",
                dropped);
    std::uint64_t lost = eventsLost();
    if (lost)
        appendf(out, "-- %" PRIu64 " event(s) overwritten by ring wrap --\n",
                lost);
    return out;
}

void
flightDumpTo(std::FILE *out, std::size_t last_n)
{
    std::string text = flightDumpText(last_n);
    std::fwrite(text.data(), 1, text.size(), out);
    std::fflush(out);
}

}  // namespace exist::obs
