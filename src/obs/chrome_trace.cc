#include "obs/chrome_trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "obs/trace_plane.h"
#include "util/types.h"

namespace exist::obs {
namespace {

constexpr int kRealPid = 1;
constexpr int kSimPidBase = 100;

void
appendf(std::string &out, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

void
appendf(std::string &out, const char *fmt, ...)
{
    char buf[320];
    va_list args;
    va_start(args, fmt);
    int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    if (n > 0)
        out.append(buf, std::min<std::size_t>(static_cast<std::size_t>(n),
                                              sizeof(buf) - 1));
}

std::string
jsonEscape(const char *s)
{
    std::string out;
    for (; s && *s; ++s) {
        unsigned char c = static_cast<unsigned char>(*s);
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(static_cast<char>(c));
        } else if (c < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out.push_back(static_cast<char>(c));
        }
    }
    return out;
}

std::string
category(const char *name)
{
    std::string cat;
    for (; name && *name && *name != '.'; ++name)
        cat.push_back(*name);
    return cat.empty() ? std::string("misc") : cat;
}

double
simUs(std::uint64_t cycles)
{
    return static_cast<double>(cycles) / static_cast<double>(kCyclesPerUs);
}

struct OutEvent {
    double ts;
    double dur = 0.0;
    long long pid;
    int tid;
    char ph;
    std::string name;
    std::string cat;
    std::uint64_t corr;
    std::uint64_t payload;
};

void
writeEvent(std::string &out, const OutEvent &ev, bool &first)
{
    appendf(out, "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\","
                 "\"pid\":%lld,\"tid\":%d,\"ts\":%.3f",
            first ? "" : ",\n", ev.name.c_str(), ev.cat.c_str(), ev.ph,
            ev.pid, ev.tid, ev.ts);
    first = false;
    if (ev.ph == 'X')
        appendf(out, ",\"dur\":%.3f", ev.dur);
    if (ev.ph == 's' || ev.ph == 'f')
        appendf(out, ",\"id\":\"0x%" PRIx64 "\"", ev.corr);
    if (ev.ph == 'f')
        out += ",\"bp\":\"e\"";
    if (ev.ph == 'i')
        out += ",\"s\":\"t\"";
    appendf(out, ",\"args\":{\"corr\":\"0x%" PRIx64 "\",\"payload\":%" PRIu64
                 "}}",
            ev.corr, ev.payload);
}

void
writeMeta(std::string &out, bool &first, const char *what, long long pid,
          int tid, bool with_tid, const std::string &name)
{
    appendf(out, "%s{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%lld",
            first ? "" : ",\n", what, pid);
    first = false;
    if (with_tid)
        appendf(out, ",\"tid\":%d", tid);
    appendf(out, ",\"args\":{\"name\":\"%s\"}}", name.c_str());
}

}  // namespace

std::string
chromeTraceJson()
{
    auto threads = snapshot();

    std::uint64_t min_real = UINT64_MAX;
    for (const auto &t : threads)
        for (const auto &ev : t.events)
            if (ev.clock == Clock::kReal)
                min_real = std::min(min_real, ev.ts);
    if (min_real == UINT64_MAX)
        min_real = 0;

    std::vector<OutEvent> events;
    std::set<long long> sim_pids;
    std::map<std::pair<long long, int>, std::string> tid_names;

    for (const auto &t : threads) {
        // Per-thread B/E balance fix-up: drop ends with no open begin
        // (their begin was overwritten by ring wrap) and close leftover
        // begins at the thread's final timestamp.
        std::vector<std::size_t> open;
        double last_real_us = 0.0;
        for (const auto &raw : t.events) {
            if (!raw.name)
                continue;
            OutEvent ev;
            ev.name = jsonEscape(raw.name);
            ev.cat = category(raw.name);
            ev.corr = raw.corr;
            ev.tid = t.ring;
            if (raw.clock == Clock::kReal) {
                ev.pid = kRealPid;
                ev.ts = static_cast<double>(raw.ts - std::min(raw.ts,
                                                              min_real)) /
                        1000.0;
                ev.payload = raw.arg;
                last_real_us = std::max(last_real_us, ev.ts);
            } else {
                ev.pid = kSimPidBase +
                         static_cast<long long>(raw.arg & 0xffff);
                ev.ts = simUs(raw.ts);
                ev.payload = raw.arg >> 16;
                sim_pids.insert(ev.pid);
                tid_names[{ev.pid, ev.tid}] = t.name;
            }
            switch (raw.kind) {
              case Kind::kBegin:
                ev.ph = 'B';
                open.push_back(events.size());
                break;
              case Kind::kEnd:
                if (open.empty())
                    continue;  // begin lost to ring wrap
                open.pop_back();
                ev.ph = 'E';
                break;
              case Kind::kInstant:
                ev.ph = 'i';
                break;
              case Kind::kFlowBegin:
                ev.ph = 's';
                break;
              case Kind::kFlowEnd:
                ev.ph = 'f';
                break;
              case Kind::kSimSpan:
                ev.ph = 'X';
                ev.dur = simUs(ev.payload);
                break;
            }
            if (raw.clock == Clock::kReal)
                tid_names[{kRealPid, ev.tid}] = t.name;
            events.push_back(std::move(ev));
        }
        // Close any spans the dump caught mid-flight.
        while (!open.empty()) {
            const OutEvent &b = events[open.back()];
            open.pop_back();
            OutEvent e;
            e.ph = 'E';
            e.name = b.name;
            e.cat = b.cat;
            e.corr = b.corr;
            e.payload = 0;
            e.pid = b.pid;
            e.tid = b.tid;
            e.ts = std::max(b.ts, last_real_us);
            events.push_back(std::move(e));
        }
    }

    std::string out;
    out += "{\"displayTimeUnit\":\"ms\",\n\"otherData\":{";
    appendf(out, "\"events_recorded\":%" PRIu64 ",\"events_lost\":%" PRIu64
                 ",\"threads\":%" PRIu64 ",\"threads_dropped\":%" PRIu64
                 "},\n",
            eventsRecorded(), eventsLost(), threadsRegistered(),
            threadsDropped());
    out += "\"traceEvents\":[\n";
    bool first = true;
    writeMeta(out, first, "process_name", kRealPid, 0, false, "exist");
    for (long long pid : sim_pids) {
        char name[48];
        if (pid - kSimPidBase == 0xffff)  // collector/master sentinel
            std::snprintf(name, sizeof(name), "sim master");
        else
            std::snprintf(name, sizeof(name), "sim node %lld",
                          pid - kSimPidBase);
        writeMeta(out, first, "process_name", pid, 0, false, name);
    }
    for (const auto &[key, name] : tid_names)
        writeMeta(out, first, "thread_name", key.first, key.second, true,
                  jsonEscape(name.c_str()));
    for (const auto &ev : events)
        writeEvent(out, ev, first);
    out += "\n]}\n";
    return out;
}

}  // namespace exist::obs
