// analyzer-virtual-path: src/cluster/fixture_obs_read_back.cc
// Self-test fixture: product code reading the self-tracing plane back
// must trip obs-read-back — span timing feeding a report-adjacent
// string would break the spans-on == spans-off byte identity that
// report determinism rests on.
#include <string>

namespace exist {

std::string
describeClusterHealth()
{
    std::string report = "cluster health\n";
    report += obs::flightDumpText(32);
    if (obs::eventsRecorded() > 1000)
        report += "busy\n";
    for (const auto &snap : obs::snapshot())
        report += std::to_string(snap.total);
    report += chromeTraceJson();
    return report;
}

}  // namespace exist
