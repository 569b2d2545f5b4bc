/**
 * @file
 * Unit tests for the self-observability plane (src/obs): corrId
 * determinism, ring recording and wrap behaviour, sim-domain packing,
 * the RAII span macro, flight-recorder text, Chrome trace-event JSON
 * export, and the flight-dump-at-crash-point path (via the throwing
 * crash handler, so the "death" stays in-process).
 *
 * The plane is process-global, so every test tags its events with
 * names unique to that test and filters snapshots by them — rings are
 * shared with whatever other tests emitted before.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "durability/crash_point.h"
#include "obs/chrome_trace.h"
#include "obs/flight_recorder.h"
#include "obs/trace_plane.h"

namespace exist {
namespace {

/** All events named `name`, across every thread ring, oldest first
 *  per ring. */
std::vector<obs::EventView>
eventsNamed(const char *name)
{
    std::vector<obs::EventView> out;
    for (const obs::ThreadSnapshot &t : obs::snapshot())
        for (const obs::EventView &e : t.events)
            if (std::strcmp(e.name, name) == 0)
                out.push_back(e);
    return out;
}

TEST(ObsTest, CorrIdIsDeterministicAndKeySensitive)
{
    EXPECT_EQ(obs::corrId(1, 2, 3), obs::corrId(1, 2, 3));
    EXPECT_NE(obs::corrId(1, 2, 3), obs::corrId(1, 2, 4));
    EXPECT_NE(obs::corrId(1, 2), obs::corrId(2, 1));
    EXPECT_NE(obs::corrId(7), obs::corrId(7, 0, 1));
    // Single-key form equals the explicit zero-padded form.
    EXPECT_EQ(obs::corrId(7), obs::corrId(7, 0, 0));
}

TEST(ObsTest, InstantEventsAreRecordedInOrder)
{
    for (std::uint64_t i = 0; i < 5; ++i)
        obs::instant("obs_test.order", obs::corrId(i), i);
    std::vector<obs::EventView> got = eventsNamed("obs_test.order");
    ASSERT_EQ(got.size(), 5u);
    for (std::uint64_t i = 0; i < 5; ++i) {
        EXPECT_EQ(got[i].kind, obs::Kind::kInstant);
        EXPECT_EQ(got[i].clock, obs::Clock::kReal);
        EXPECT_EQ(got[i].corr, obs::corrId(i));
        EXPECT_EQ(got[i].arg, i);
    }
    // Real timestamps are monotone within one thread.
    for (std::size_t i = 1; i < got.size(); ++i)
        EXPECT_GE(got[i].ts, got[i - 1].ts);
}

TEST(ObsTest, SpanMacroEmitsBalancedBeginEnd)
{
    {
        EXIST_SPAN("obs_test.span", obs::corrId(42));
        obs::instant("obs_test.span_mid", obs::corrId(42));
    }
    std::vector<obs::EventView> got = eventsNamed("obs_test.span");
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].kind, obs::Kind::kBegin);
    EXPECT_EQ(got[1].kind, obs::Kind::kEnd);
    EXPECT_EQ(got[0].corr, got[1].corr);
    EXPECT_GE(got[1].ts, got[0].ts);
}

TEST(ObsTest, RingWrapsKeepingNewestEvents)
{
    // Emit from a dedicated thread so the wrap exercises exactly one
    // ring; more than capacity => the oldest must be discarded and
    // the survivors must be the newest, still in order.
    const std::uint64_t n = 10000;  // > kRingCapacity (8192)
    std::thread t([n] {
        obs::setThreadName("obs_test.wrapper");
        for (std::uint64_t i = 0; i < n; ++i)
            obs::instant("obs_test.wrap", obs::corrId(i), i);
    });
    t.join();
    std::vector<obs::EventView> got = eventsNamed("obs_test.wrap");
    ASSERT_FALSE(got.empty());
    EXPECT_LE(got.size(), 8192u);
    EXPECT_GT(got.size(), 4096u);  // snapshot may trim a torn prefix
    // Newest survives, and payloads are consecutive to the end.
    EXPECT_EQ(got.back().arg, n - 1);
    for (std::size_t i = 1; i < got.size(); ++i)
        EXPECT_EQ(got[i].arg, got[i - 1].arg + 1);
}

TEST(ObsTest, ThreadTotalCountsEverythingEverRecorded)
{
    std::thread t([] {
        obs::setThreadName("obs_test.totals");
        for (int i = 0; i < 9000; ++i)
            obs::instant("obs_test.total", obs::corrId(1));
    });
    t.join();
    bool found = false;
    for (const obs::ThreadSnapshot &snap : obs::snapshot()) {
        if (snap.name != "obs_test.totals")
            continue;
        found = true;
        EXPECT_GE(snap.total, 9000u);
        EXPECT_LE(snap.events.size(), 8192u);
    }
    EXPECT_TRUE(found);
}

TEST(ObsTest, RingOverwritesAreCountedAsLost)
{
    // No silent loss: every event a ring overwrote before a collector
    // could copy it is counted, per ring and in the process total.
    const std::uint64_t before = obs::eventsLost();
    std::thread t([] {
        obs::setThreadName("obs_test.lossy");
        for (int i = 0; i < 9000; ++i)
            obs::instant("obs_test.lossy", obs::corrId(2));
    });
    t.join();
    EXPECT_GE(obs::eventsLost() - before, 9000u - 8192u);
    bool found = false;
    for (const obs::ThreadSnapshot &snap : obs::snapshot()) {
        if (snap.name != "obs_test.lossy")
            continue;
        found = true;
        EXPECT_GE(snap.lost, 9000u - 8192u);
        // The writer is gone, so nothing is torn: what survives plus
        // what was lost is everything recorded.
        EXPECT_EQ(snap.events.size() + snap.lost, snap.total);
    }
    EXPECT_TRUE(found);
}

TEST(ObsTest, SimEventsCarryNodeAndPayload)
{
    obs::simInstant("obs_test.sim", obs::corrId(9), Cycles{12345}, 7,
                    99);
    std::vector<obs::EventView> got = eventsNamed("obs_test.sim");
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].clock, obs::Clock::kSim);
    EXPECT_EQ(got[0].ts, 12345u);
    EXPECT_EQ(got[0].arg & 0xffffu, 7u);        // node, low 16 bits
    EXPECT_EQ((got[0].arg >> 16) & 0xffffffffu, 99u);  // payload
}

TEST(ObsTest, DisabledPlaneRecordsNothing)
{
    obs::setEnabled(false);
    obs::instant("obs_test.disabled", obs::corrId(1));
    obs::setEnabled(true);
    EXPECT_TRUE(eventsNamed("obs_test.disabled").empty());
    obs::instant("obs_test.reenabled", obs::corrId(1));
    EXPECT_EQ(eventsNamed("obs_test.reenabled").size(), 1u);
}

TEST(ObsTest, FlightDumpRendersRecentEvents)
{
    obs::instant("obs_test.flight_marker", obs::corrId(0xabcd));
    std::string dump = obs::flightDumpText(64);
    EXPECT_NE(dump.find("exist flight recorder"), std::string::npos);
    EXPECT_NE(dump.find("obs_test.flight_marker"), std::string::npos);
}

TEST(ObsTest, ChromeTraceJsonIsWellFormedAndBalanced)
{
    {
        EXIST_SPAN("obs_test_json.span", obs::corrId(1));
    }
    obs::flowBegin("obs_test_json.flow", obs::corrId(2));
    obs::flowEnd("obs_test_json.flow", obs::corrId(2));
    obs::simSpan("obs_test_json.simspan", obs::corrId(3), Cycles{500},
                 Cycles{250}, 3);

    std::string json = obs::chromeTraceJson();
    ASSERT_FALSE(json.empty());
    EXPECT_EQ(json.front(), '{');
    // The document ends "}\n": a trailing newline after the root brace.
    EXPECT_EQ(json[json.find_last_not_of('\n')], '}');
    // Structural balance (no quoted braces occur in event names).
    long depth = 0;
    bool in_str = false;
    for (std::size_t i = 0; i < json.size(); ++i) {
        char c = json[i];
        if (in_str) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_str = false;
            continue;
        }
        if (c == '"')
            in_str = true;
        else if (c == '{')
            ++depth;
        else if (c == '}')
            --depth;
        EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);

    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("obs_test_json.span"), std::string::npos);
    // Category of an event is its name up to the first dot.
    EXPECT_NE(json.find("\"cat\":\"obs_test_json\""),
              std::string::npos);
    // Sim-span exports as a complete "X" event on the sim node pid.
    EXPECT_NE(json.find("obs_test_json.simspan"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    // Flow link pair survives the export.
    EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);

    // Every B has a matching E: count them per export.
    auto count = [&json](const char *needle) {
        std::size_t n = 0;
        for (std::size_t pos = json.find(needle);
             pos != std::string::npos;
             pos = json.find(needle, pos + 1))
            ++n;
        return n;
    };
    EXPECT_EQ(count("\"ph\":\"B\""), count("\"ph\":\"E\""));
}

// ---------------------------------------------------------------
// Crash-point integration: the flight recorder must capture the
// events leading up to a crash point. The throwing handler keeps the
// death in-process (the existctl subprocess tests cover real _Exit).

std::string g_crash_dump;

[[noreturn]] void
dumpAndThrow(const std::string &point)
{
    // What defaultHandler does with the crash-dump hook, minus the
    // process exit: render the flight recorder at the crash point.
    g_crash_dump = obs::flightDumpText(64);
    throw durability::crashpoint::CrashInjected{point};
}

TEST(ObsTest, FlightRecorderCapturesCrashPointContext)
{
    namespace cp = durability::crashpoint;
    g_crash_dump.clear();
    cp::Handler prev = cp::setHandler(&dumpAndThrow);
    cp::arm("obs-test-point");

    bool crashed = false;
    try {
        EXIST_SPAN("obs_test.pre_crash", obs::corrId(0xdead));
        obs::instant("obs_test.last_words", obs::corrId(0xdead));
        cp::hit("obs-test-point");
    } catch (const cp::CrashInjected &c) {
        crashed = true;
        EXPECT_EQ(c.point, "obs-test-point");
    }
    cp::disarm();
    cp::setHandler(prev);

    ASSERT_TRUE(crashed);
    // The dump taken *at the crash point* holds the open span and the
    // instant emitted just before the hit.
    EXPECT_NE(g_crash_dump.find("obs_test.pre_crash"),
              std::string::npos);
    EXPECT_NE(g_crash_dump.find("obs_test.last_words"),
              std::string::npos);
}

}  // namespace
}  // namespace exist
