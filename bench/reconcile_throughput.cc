/**
 * @file
 * Control-plane reconcile throughput: one submit stream of trace
 * requests against a demo cluster, reconciled by the ShardedMaster at
 * shard counts 1/2/4/8 with as many pool threads. Reports wall-clock
 * requests/s and the p99 reconcile latency from the control plane's
 * own metrics registry, and verifies on every configuration that the
 * output — reports, OSS bytes, ODPS rows, coverage ledger — is
 * bit-identical to the reference row: one shard at one thread, which
 * runs every lane and session inline.
 *
 * One untimed pass of the reference configuration runs first, so every
 * timed row starts with the same warm process-wide decode caches
 * (BlockCache registry, TntMemoPool) and a row's speedup measures the
 * shards, not the caches the rows before it filled.
 *
 * Besides the human-readable table, each configuration emits one
 * machine-readable JSON line (prefix "JSON ") so CI can track the
 * trajectory via tools/bench_trends.py --set cluster:
 *   JSON {"bench":"reconcile_throughput","shards":4,...}
 */
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cluster/metrics.h"
#include "cluster/shard/sharded_master.h"
#include "common.h"

using namespace exist;
using namespace exist::bench;

namespace {

ClusterConfig
demoConfig()
{
    ClusterConfig cc;
    cc.num_nodes = 10;
    cc.cores_per_node = 4;
    cc.seed = 2024;
    return cc;
}

void
deployDemo(Cluster &cluster)
{
    cluster.deploy("Search2", 3);
    cluster.deploy("Cache", 3);
    cluster.deploy("Prediction", 2);
}

/** The benchmark submit stream: anomaly and routine requests mixed
 *  across the deployed apps, period scaled for smoke runs. */
std::vector<std::string>
manifests()
{
    int period_ms =
        static_cast<int>(30.0 * periodScale() + 0.5);
    if (period_ms < 5)
        period_ms = 5;
    std::string p = " period_ms=" + std::to_string(period_ms) +
                    " budget_mb=64";
    std::vector<std::string> out;
    const char *apps[] = {"Search2", "Cache", "Prediction"};
    for (int i = 0; i < 12; ++i) {
        std::string m = "app=" + std::string(apps[i % 3]);
        if (i % 2 == 0)
            m += " anomaly=true";
        out.push_back(m + p);
    }
    return out;
}

/** One sweep row: the stream reconciled at `shards` shards with as
 *  many pool threads, on its own cluster and registry. */
struct SweepRow {
    explicit SweepRow(int shards)
        : cluster(demoConfig()),
          master(&cluster, {}, shards, shards, &registry)
    {
        deployDemo(cluster);
    }

    Cluster cluster;
    metrics::Registry registry;
    ShardedMaster master;
    double seconds = 0;
};

/** Whether `row` published exactly what `ref` did. */
bool
sameOutput(ShardedMaster &ref, ShardedMaster &row,
           const std::vector<std::uint64_t> &ids)
{
    for (std::uint64_t id : ids) {
        const TraceReport *a = ref.report(id);
        const TraceReport *b = row.report(id);
        if ((a == nullptr) != (b == nullptr) ||
            (a != nullptr && !(*a == *b)))
            return false;
    }
    return ref.oss().totalBytes() == row.oss().totalBytes() &&
           ref.odps().rowCount() == row.odps().rowCount() &&
           ref.coverage() == row.coverage();
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

}  // namespace

int
main()
{
    printBanner("Reconcile throughput: ShardedMaster at 1/2/4/8 shards "
                "(one shard at one thread is the reference)");

    const std::vector<std::string> stream = manifests();
    std::printf("submit stream: %zu requests over 3 apps "
                "(scale %.2f)\n\n",
                stream.size(), periodScale());

    {
        SweepRow warmup(1);
        for (const std::string &m : stream)
            warmup.master.apply(m);
        warmup.master.reconcile();
    }
    std::printf("caches warm: one untimed one-shard pass ran first\n\n");

    TableWriter table({"Shards", "Time(ms)", "Requests/s", "p99(us)",
                       "Speedup", "Identical"});
    std::unique_ptr<SweepRow> ref;
    bool all_identical = true;
    for (int shards : {1, 2, 4, 8}) {
        auto row = std::make_unique<SweepRow>(shards);
        std::vector<std::uint64_t> ids;
        for (const std::string &m : stream)
            ids.push_back(row->master.apply(m));

        auto t0 = std::chrono::steady_clock::now();
        row->master.reconcile();
        row->seconds = secondsSince(t0);
        double rps = stream.size() / row->seconds;
        std::uint64_t p99 = row->registry.histogram("reconcile.latency_us")
                                .percentile(0.99);

        // The whole point: every row must be bit-identical to the
        // reference, or the speedup is meaningless.
        const SweepRow &base = ref != nullptr ? *ref : *row;
        double speedup = base.seconds / row->seconds;
        bool identical = ref == nullptr ||
                         sameOutput(ref->master, row->master, ids);
        all_identical = all_identical && identical;

        table.row({std::to_string(shards),
                   TableWriter::num(row->seconds * 1e3),
                   TableWriter::num(rps), std::to_string(p99),
                   TableWriter::num(speedup),
                   ref == nullptr ? "ref" : identical ? "yes" : "NO"});
        std::printf("JSON {\"bench\":\"reconcile_throughput\","
                    "\"shards\":%d,\"threads\":%d,"
                    "\"requests\":%zu,\"sessions\":%llu,"
                    "\"seconds\":%.6f,\"requests_per_sec\":%.3f,"
                    "\"p99_latency_us\":%llu,\"speedup\":%.3f,"
                    "\"caches\":\"warm\",\"identical\":%s}\n",
                    shards, shards, stream.size(),
                    (unsigned long long)row->master.sessionsRun(),
                    row->seconds, rps, (unsigned long long)p99, speedup,
                    identical ? "true" : "false");
        if (ref == nullptr)
            ref = std::move(row);
    }

    std::printf("\n");
    table.print();
    std::printf("\nshard speedup saturates at min(shards, pending "
                "requests, hardware threads)\n");
    if (!all_identical) {
        std::fputs("sharded reconcile diverged from the one-shard "
                   "reference!\n",
                   stderr);
        return 1;
    }
    return 0;
}
