/**
 * @file
 * Closed-loop trace-request load generator: the measuring half of the
 * perfbench benchmark (perfbench/run.py turns its raw record into
 * metrics and gates; README.md explains the design).
 *
 * One request shape per workload (one app, one manifest form; only
 * request ids and seeds vary), one request outstanding, submitted to a
 * ShardedMaster through apply() + reconcile(). Requests run in epochs:
 * each epoch is a fresh control plane (and, for durable workloads, a
 * fresh WAL) that serves a fixed number of requests, because durable
 * cost grows with stored state. The first kExactEpochs epochs carry the
 * exact metrics; an untraced run keeps starting epochs until --seconds
 * of request-loop time have passed and kMinTimedRequests requests
 * completed.
 *
 * Outside the loop, epoch 0's request stream is driven again layer by
 * layer through the layers' public functions (planRequest,
 * Testbed::run, ParallelDecoder::decodeAll, collectPlan, publishRequest
 * or capturePublish/applyPublish, the durability::Journal hooks,
 * maybeSnapshot, durability::recover), and its reports must equal the
 * ShardedMaster's. --trace 1 writes every call's span out at exit;
 * --trace 0 skips the no-decode session and the re-decode, and keeps
 * only what target_slowdown_permille and the report check need.
 *
 * Output: one JSON object on stdout's last line (raw samples, counts,
 * correctness failures). Usage:
 *   trace_request_bench --workload NAME --seed N --seconds S
 *                       --trace 0|1 --out-dir DIR [--setup-only]
 */
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/testbed.h"
#include "cluster/cluster.h"
#include "cluster/collection.h"
#include "cluster/control_journal.h"
#include "cluster/metrics.h"
#include "cluster/shard/plan.h"
#include "cluster/shard/sharded_master.h"
#include "cluster/storage.h"
#include "decode/parallel_decoder.h"
#include "durability/journal.h"
#include "durability/recovery.h"
#include "durability/snapshot.h"
#include "util/rng.h"

namespace {

namespace fs = std::filesystem;
using namespace exist;
using Clock = std::chrono::steady_clock;

/** p90 needs ten samples beyond it: at least 100 timed requests. */
constexpr int kMinTimedRequests = 100;
/** Stop starting epochs past this much loop time, so a run on a slow
 *  host still exits well inside its time limit. */
constexpr double kMaxLoopSeconds = 120.0;
/** Epochs every run serves, traced or not. The exact metrics and
 *  peak_rss_mb cover these, so they do not depend on how many more
 *  epochs a run fits into its time. */
constexpr std::size_t kExactEpochs = 3;
/** Timed recoveries of each epoch's final state. */
constexpr int kRecoveriesPerEpoch = 3;

struct Workload {
    std::string name;
    int nodes = 0;
    int cores_per_node = 0;
    std::vector<std::pair<std::string, int>> deployments;
    std::string manifest;
    int shards = 1;
    /** The ShardedMaster thread knob; always explicit, never 0. */
    int threads = 1;
    bool durable = false;
    std::uint64_t snapshot_interval = 0;
    /** Requests served by one control-plane instance (one epoch). On
     *  durable_churn, 28 = three snapshot barriers plus a 4-request WAL
     *  tail for recovery to replay. */
    int epoch_requests = 0;
    /** Untimed requests that fill the process-wide decode caches. */
    int warmup_requests = 0;
};

// Why these two (README.md has the measured background, and why a
// substrate-only lbm workload was dropped):
//  service_net   — the only workload where collection runs; largest
//                  encode/decode/OTC share (services context-switch).
//  durable_churn — WAL appends and growing snapshots beside recovery
//                  replay, on routine requests over a wider fleet.
const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> table = {
        {.name = "service_net",
         .nodes = 3,
         .cores_per_node = 4,
         .deployments = {{"Search1", 3}},
         .manifest = "app=Search1 anomaly=true period_ms=20 budget_mb=64 "
                     "streaming=true net=true loss=0.02",
         .shards = 1,
         .threads = 2,
         .epoch_requests = 12,
         .warmup_requests = 3},
        {.name = "durable_churn",
         .nodes = 8,
         .cores_per_node = 4,
         .deployments = {{"Search2", 6}, {"Cache", 2}},
         .manifest = "app=Search2 period_ms=8 budget_mb=64",
         .shards = 1,
         .threads = 1,
         .durable = true,
         .snapshot_interval = 8,
         .epoch_requests = 28,
         .warmup_requests = 3},
    };
    return table;
}

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
               1e-6;
}

long
peakRssKb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

/** Cluster seed of one epoch: distinct inputs per epoch, fixed by the
 *  workload seed. Epoch kWarmupEpoch seeds the warm-up requests. */
constexpr std::uint64_t kWarmupEpoch = 1'000'000;

std::uint64_t
clusterSeed(std::uint64_t seed, std::uint64_t epoch)
{
    std::uint64_t sm = seed * 0x9e3779b97f4a7c15ULL + epoch;
    return splitmix64(sm) >> 16;
}

Cluster
makeCluster(const Workload &w, std::uint64_t cseed)
{
    ClusterConfig cc;
    cc.num_nodes = w.nodes;
    cc.cores_per_node = w.cores_per_node;
    cc.seed = cseed;
    Cluster cluster(cc);
    for (const auto &[app, replicas] : w.deployments)
        cluster.deploy(app, replicas);
    return cluster;
}

durability::ClusterMeta
metaFor(const Workload &w, std::uint64_t cseed)
{
    durability::ClusterMeta meta;
    meta.cluster_seed = cseed;
    meta.num_nodes = w.nodes;
    meta.cores_per_node = w.cores_per_node;
    meta.shards = w.shards;
    meta.snapshot_interval = w.snapshot_interval;
    meta.deployments = w.deployments;
    return meta;
}

durability::DurabilitySpec
durabilitySpec(const Workload &w, const fs::path &dir)
{
    durability::DurabilitySpec spec;
    spec.wal_dir = dir.string();
    spec.snapshot_interval = w.snapshot_interval;
    return spec;
}

/** FNV-1a over a report's fields: a compact identity that run.py
 *  compares across runs of one seed. */
class Digest
{
  public:
    void bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 0x100000001b3ULL;
        }
    }
    template <typename T> void pod(const T &v) { bytes(&v, sizeof v); }
    template <typename T> void vec(const std::vector<T> &v)
    {
        pod(v.size());
        if (!v.empty())
            bytes(v.data(), v.size() * sizeof(T));
    }
    void report(const TraceReport &r)
    {
        pod(r.request_id);
        pod(r.app.size());
        bytes(r.app.data(), r.app.size());
        pod(r.period);
        vec(r.traced_nodes);
        vec(r.per_worker_accuracy);
        pod(r.merged_accuracy);
        vec(r.merged_function_insns);
        vec(r.merged_truth_function_insns);
        pod(r.total_trace_bytes);
        pod(r.mean_target_cpi);
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// --- Minimal JSON writer ---------------------------------------------------

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Appends "key": value pairs to one JSON object. */
class JsonObject
{
  public:
    JsonObject &raw(const std::string &key, const std::string &value)
    {
        body_ += (body_.empty() ? "" : ",") + jsonString(key) + ":" + value;
        return *this;
    }
    JsonObject &num(const std::string &key, double v)
    {
        return raw(key, jsonNumber(v));
    }
    JsonObject &str(const std::string &key, const std::string &v)
    {
        return raw(key, jsonString(v));
    }
    JsonObject &nums(const std::string &key, const std::vector<double> &v)
    {
        std::string arr = "[";
        for (std::size_t i = 0; i < v.size(); ++i)
            arr += (i ? "," : "") + jsonNumber(v[i]);
        return raw(key, arr + "]");
    }
    JsonObject &strs(const std::string &key,
                     const std::vector<std::string> &v)
    {
        std::string arr = "[";
        for (std::size_t i = 0; i < v.size(); ++i)
            arr += (i ? "," : "") + jsonString(v[i]);
        return raw(key, arr + "]");
    }
    std::string str() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

// --- Spans -------------------------------------------------------------------

/** One timed call: name, start, end, parent span, request id. */
struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = a root span
    std::string name;
    std::uint64_t rid = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
};

/** In-memory span recorder for the traced run (single thread). */
class SpanRecorder
{
  public:
    class Scope
    {
      public:
        Scope(SpanRecorder &rec, const char *name, std::uint64_t rid)
            : rec_(rec), index_(rec.open(name, rid))
        {
        }
        ~Scope() { rec_.close(index_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder &rec_;
        std::size_t index_;
    };

    std::string toJson() const
    {
        std::string out = "[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out += (i ? ",\n" : "\n") +
                   JsonObject()
                       .num("id", static_cast<double>(s.id))
                       .num("parent", static_cast<double>(s.parent))
                       .str("name", s.name)
                       .num("rid", static_cast<double>(s.rid))
                       .num("start_ns", static_cast<double>(s.start_ns))
                       .num("end_ns", static_cast<double>(s.end_ns))
                       .str();
        }
        return out + "\n]\n";
    }

  private:
    std::int64_t nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
            .count();
    }
    std::size_t open(const char *name, std::uint64_t rid)
    {
        Span s;
        s.id = spans_.size() + 1;
        s.parent = stack_.empty() ? 0 : spans_[stack_.back()].id;
        s.name = name;
        s.rid = rid;
        s.start_ns = nowNs();
        spans_.push_back(std::move(s));
        stack_.push_back(spans_.size() - 1);
        return spans_.size() - 1;
    }
    void close(std::size_t index)
    {
        spans_[index].end_ns = nowNs();
        stack_.pop_back();
    }

    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<std::size_t> stack_;
};

// --- Closed-loop epochs ------------------------------------------------------

struct EpochResult {
    int attempted = 0;
    int completed = 0;
    double loop_s = 0.0;
    double cpu_s = 0.0;
    std::vector<double> latency_ms;
    std::map<std::uint64_t, TraceReport> reports;
    std::uint64_t stored_bytes = 0;
    std::vector<double> recovery_s;
};

/** Re-open a durable image as a fresh control plane: recover(), then
 *  rebuild + reconcile (a no-op when every publish is in the image).
 *  Returns the wall time; checks the recovered reports. */
double
timedRecovery(const Workload &w, std::uint64_t cseed, const fs::path &dir,
              const std::map<std::uint64_t, TraceReport> &live,
              std::vector<std::string> &failures,
              durability::RecoveredState::Telemetry *telemetry = nullptr)
{
    auto t0 = Clock::now();
    durability::RecoveryResult rec = durability::recover(dir.string());
    Cluster cluster = makeCluster(w, cseed);
    metrics::Registry registry;
    ShardedMaster master(&cluster, {}, w.shards, w.threads, &registry);
    if (rec.ok) {
        master.restoreForRecovery(rec.state.dump);
        master.reconcile();
    }
    double seconds = secondsBetween(t0, Clock::now());
    if (!rec.ok)
        failures.push_back("recovery failed: " + rec.error);
    else if (rec.state.dump.reports != live)
        failures.push_back("recovered reports differ from live reports");
    else if (rec.state.telemetry.pending_requests != 0)
        failures.push_back("recovery left requests pending");
    if (telemetry != nullptr)
        *telemetry = rec.state.telemetry;
    return seconds;
}

/**
 * Serve `requests` closed-loop requests on a fresh control plane.
 * Latency is admit (apply) -> report registered (reconcile returns with
 * the report in place); a durable workload's snapshot barrier runs
 * after each request, inside the loop time but outside its latency.
 * With `measure_recovery`, the final state is then recovered from
 * durable storage (the live WAL, or one forced snapshot image for
 * workloads without a journal) and timed.
 */
EpochResult
runEpoch(const Workload &w, std::uint64_t cseed, int requests,
         const fs::path &wal_dir, bool measure_recovery,
         std::vector<std::string> &failures)
{
    EpochResult out;
    Cluster cluster = makeCluster(w, cseed);
    metrics::Registry registry;
    fs::remove_all(wal_dir);
    std::unique_ptr<durability::Journal> journal;
    if (w.durable)
        journal = std::make_unique<durability::Journal>(
            durabilitySpec(w, wal_dir), metaFor(w, cseed), &registry);
    ShardedMaster master(&cluster, {}, w.shards, w.threads, &registry);
    if (journal)
        master.attachJournal(journal.get());

    double cpu0 = cpuSeconds();
    auto loop0 = Clock::now();
    for (int i = 0; i < requests; ++i) {
        ++out.attempted;
        auto t0 = Clock::now();
        std::uint64_t id = master.apply(w.manifest);
        master.reconcile();
        auto t1 = Clock::now();
        const TraceReport *report = master.report(id);
        if (master.phaseOf(id) == RequestPhase::kCompleted &&
            report != nullptr) {
            ++out.completed;
            out.latency_ms.push_back(secondsBetween(t0, t1) * 1e3);
            out.reports.emplace(id, *report);
        } else {
            failures.push_back("request " + std::to_string(id) + " ended " +
                               requestPhaseName(master.phaseOf(id)));
        }
        if (journal)
            journal->maybeSnapshot([&master] { return master.dumpState(); });
    }
    out.loop_s = secondsBetween(loop0, Clock::now());
    out.cpu_s = cpuSeconds() - cpu0;
    out.stored_bytes = master.oss().totalBytes();

    if (measure_recovery) {
        if (!journal) {
            durability::Journal image(durabilitySpec(w, wal_dir),
                                      metaFor(w, cseed));
            image.maybeSnapshot([&master] { return master.dumpState(); },
                                /*force=*/true);
        }
        journal.reset();
        for (int i = 0; i < kRecoveriesPerEpoch; ++i)
            out.recovery_s.push_back(
                timedRecovery(w, cseed, wal_dir, out.reports, failures));
    }
    fs::remove_all(wal_dir);
    return out;
}

// --- Layer-by-layer drive (traced run) ----------------------------------------

/** Per-session counts the traced run reads off the layers' results. */
struct SessionCounts {
    std::uint64_t rid = 0;
    /** Target cycles (user + kernel) and instructions, Oracle vs the
     *  published EXIST session. */
    std::uint64_t oracle_cycles = 0;
    std::uint64_t oracle_insns = 0;
    std::uint64_t traced_cycles = 0;
    std::uint64_t traced_insns = 0;
    std::uint64_t context_switches = 0;
    std::uint64_t trace_bytes = 0;
    std::uint64_t dropped_bytes = 0;
    std::uint64_t control_ops = 0;
    std::uint64_t msr_writes = 0;
    std::uint64_t raw_bytes = 0;
    std::uint64_t memo_hits = 0;
    std::uint64_t memo_misses = 0;
    double report_latency_s = 0.0;
};

struct RequestCounts {
    std::uint64_t rid = 0;
    bool collect_ran = false;
    std::uint64_t degraded_sessions = 0;
    std::uint64_t batches_sent = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t wire_bytes = 0;
};

/** Data-path sink over plain stores (the drive's own control state). */
class PlainSink : public StoreSink
{
  public:
    PlainSink(ObjectStore &oss, OdpsTable &odps) : oss_(oss), odps_(odps) {}
    void putObject(const std::string &key,
                   std::vector<std::uint8_t> bytes) override
    {
        oss_.put(key, std::move(bytes));
    }
    void insertRow(TraceRow row) override { odps_.insert(std::move(row)); }

  private:
    ObjectStore &oss_;
    OdpsTable &odps_;
};

/**
 * Drives one epoch's request stream through each layer's public
 * function in the order the control plane calls them, so its reports
 * must equal the ShardedMaster's for the same ids. Every session spec
 * runs three times: Oracle (the substrate alone), EXIST without decode
 * or ground truth (substrate + tracing), and the full spec (whose
 * result is the one published); its kept traces are then re-decoded.
 * A probe-only drive skips the no-decode run and the re-decode.
 */
class LayerDrive
{
  public:
    LayerDrive(const Workload &w, std::uint64_t cseed, fs::path wal_dir,
               SpanRecorder &spans, bool probe_only)
        : w_(w), cseed_(cseed), probe_only_(probe_only),
          cluster_(makeCluster(w, cseed)), wal_dir_(std::move(wal_dir)),
          spans_(spans)
    {
        fs::remove_all(wal_dir_);
        if (w.durable)
            journal_ = std::make_unique<durability::Journal>(
                durabilitySpec(w, wal_dir_), metaFor(w, cseed), &registry_);
    }

    ~LayerDrive() { fs::remove_all(wal_dir_); }
    LayerDrive(const LayerDrive &) = delete;
    LayerDrive &operator=(const LayerDrive &) = delete;

    void request(std::uint64_t id, std::vector<std::string> &failures)
    {
        {
            SpanRecorder::Scope root(spans_, "request", id);
            if (!drive(id, failures))
                return;
        }
        if (journal_) {
            auto t0 = Clock::now();
            bool wrote = false;
            {
                SpanRecorder::Scope s(spans_, "wal.snapshot", id);
                wrote = journal_->maybeSnapshot([this] { return dump(); });
            }
            if (wrote) {
                snapshot_ms.push_back(secondsBetween(t0, Clock::now()) *
                                      1e3);
                auto snaps = durability::listSnapshots(wal_dir_.string());
                snapshot_mb.push_back(
                    static_cast<double>(fs::file_size(snaps.back().second)) /
                    1e6);
            }
        }
    }

    /** Recover the drive's own WAL (durable workloads) and check it. */
    void recoverAndCheck(std::vector<std::string> &failures)
    {
        if (!journal_)
            return;
        journal_.reset();
        SpanRecorder::Scope s(spans_, "recovery", 0);
        durability::RecoveredState::Telemetry t;
        timedRecovery(w_, cseed_, wal_dir_, reports, failures, &t);
        recovery_records = t.wal_records;
    }

    std::uint64_t walBytes()
    {
        return registry_.counter("wal.bytes").value();
    }

    std::map<std::uint64_t, TraceReport> reports;
    std::vector<SessionCounts> sessions;
    std::vector<RequestCounts> requests;
    std::vector<double> snapshot_ms;
    std::vector<double> snapshot_mb;
    std::uint64_t recovery_records = 0;

  private:
    bool drive(std::uint64_t id, std::vector<std::string> &failures)
    {
        TraceRequest *req = nullptr;
        {
            SpanRecorder::Scope s(spans_, "cluster.admit", id);
            TraceRequest parsed = TraceRequest::parse(w_.manifest);
            parsed.id = id;
            parsed.phase = RequestPhase::kPending;
            if (journal_) {
                SpanRecorder::Scope a(spans_, "wal.append", id);
                journal_->onAdmit(parsed);
            }
            req = &requests_.emplace(id, std::move(parsed)).first->second;
        }

        RequestPlan plan;
        {
            SpanRecorder::Scope s(spans_, "cluster.plan", id);
            plan = planRequest(&cluster_, rco_, *req, w_.threads);
        }
        if (journal_) {
            SpanRecorder::Scope a(spans_, "wal.append", id);
            journal_->onPlanned(id, plan.outcome);
        }
        req->phase = plan.outcome;
        if (plan.outcome != RequestPhase::kRunning) {
            failures.push_back("drive: request " + std::to_string(id) +
                               " failed planning");
            return false;
        }

        for (SessionPlan &session : plan.sessions)
            runSession(id, session, failures);

        RequestCounts rc;
        rc.rid = id;
        {
            SpanRecorder::Scope s(spans_, "collect", id);
            CollectHooks hooks;
            if (journal_) {
                hooks = journal_->collectHooks(id);
                auto inner = std::move(hooks.on_consume);
                hooks.on_consume =
                    [this, id, inner](NodeId node, std::uint64_t stream,
                                      std::uint64_t seq,
                                      std::uint64_t total,
                                      const std::vector<std::uint8_t> &c) {
                        SpanRecorder::Scope a(spans_, "wal.append", id);
                        inner(node, stream, seq, total, c);
                    };
            }
            CollectionOutcome outcome = collectPlan(
                plan, cluster_.config().seed, &registry_,
                journal_ ? &hooks : nullptr);
            rc.collect_ran = outcome.ran;
            rc.degraded_sessions = outcome.degraded;
            rc.batches_sent = outcome.agents.batches_sent;
            rc.retransmits = outcome.agents.retransmits;
            rc.wire_bytes = outcome.fabric.bytes_on_wire;
        }
        requests.push_back(rc);

        {
            SpanRecorder::Scope s(spans_, "cluster.publish", id);
            PlainSink sink(oss_, odps_);
            TraceReport report;
            if (journal_) {
                PublishEffects fx = capturePublish(plan);
                {
                    SpanRecorder::Scope a(spans_, "wal.append", id);
                    journal_->onPublish(id, fx);
                }
                applyPublish(fx, sink);
                ledger_.recordRequest(fx.ledger.app, fx.ledger.sessions,
                                      fx.ledger.period,
                                      fx.ledger.trace_bytes);
                report = std::move(fx.report);
            } else {
                report = publishRequest(plan, sink);
                ledger_.recordRequest(req->app, plan.sessions.size(),
                                      plan.period, report.total_trace_bytes);
            }
            reports.emplace(id, std::move(report));
            req->phase = RequestPhase::kCompleted;
        }
        return true;
    }

    void runSession(std::uint64_t id, SessionPlan &session,
                    std::vector<std::string> &failures)
    {
        SpanRecorder::Scope s(spans_, "session", id);
        const ExperimentSpec &full = session.spec;
        const std::string &app = requests_.at(id).app;

        ExperimentSpec oracle = full;
        oracle.backend = "Oracle";
        oracle.decode = false;
        oracle.ground_truth = false;
        oracle.record_paths = false;
        oracle.keep_traces = false;
        ExperimentResult substrate;
        {
            SpanRecorder::Scope t(spans_, "substrate", id);
            substrate = Testbed::run(oracle);
        }

        {
            SpanRecorder::Scope t(spans_, "session.full", id);
            session.result = Testbed::run(full);
        }
        const ExperimentResult &r = session.result;

        SessionCounts sc;
        sc.rid = id;
        const AppResult &o = substrate.at(app);
        const AppResult &t = r.at(app);
        sc.oracle_cycles = o.user_cycles + o.kernel_cycles;
        sc.oracle_insns = o.insns;
        sc.traced_cycles = t.user_cycles + t.kernel_cycles;
        sc.traced_insns = t.insns;
        sc.context_switches = substrate.context_switch_total;
        sc.trace_bytes = r.backend_stats.trace_real_bytes;
        sc.dropped_bytes = r.backend_stats.dropped_real_bytes;
        sc.control_ops = r.backend_stats.control_ops;
        sc.msr_writes = r.backend_stats.msr_writes;
        sc.report_latency_s = r.report_latency_s;
        if (probe_only_) {
            sessions.push_back(sc);
            return;
        }

        ExperimentSpec no_decode = full;
        no_decode.decode = false;
        no_decode.ground_truth = false;
        ExperimentResult traced;
        {
            SpanRecorder::Scope t(spans_, "trace", id);
            traced = Testbed::run(no_decode);
        }

        {
            SpanRecorder::Scope t(spans_, "decode", id);
            DecodeOptions opts;
            opts.block_cache = full.decode_cache;
            opts.tnt_memo_bits = full.tnt_memo_bits;
            auto binary = Testbed::binaryForApp(app);
            ParallelDecoder decoder(binary.get(), opts, full.decode_threads);
            for (const auto &[core, dt] : decoder.decodeAll(traced.raw_traces)) {
                sc.memo_hits += dt.cache_stats.memo_hits;
                sc.memo_misses += dt.cache_stats.memo_misses;
            }
        }

        if (r.raw_traces.size() != traced.raw_traces.size())
            failures.push_back("drive: no-decode session kept a different "
                               "trace set than the full session");
        for (std::size_t i = 0;
             i < std::min(r.raw_traces.size(), traced.raw_traces.size());
             ++i) {
            if (r.raw_traces[i].bytes != traced.raw_traces[i].bytes) {
                failures.push_back("drive: trace bytes differ between the "
                                   "no-decode and full sessions");
                break;
            }
            sc.raw_bytes += r.raw_traces[i].bytes.size();
        }
        sessions.push_back(sc);
    }

    ControlStateDump dump() const
    {
        ControlStateDump d;
        d.next_id = requests_.empty() ? 1 : requests_.rbegin()->first + 1;
        d.requests = requests_;
        d.reports = reports;
        d.ledger = ledger_;
        d.objects.assign(oss_.objects().begin(), oss_.objects().end());
        d.rows = odps_.rows();
        return d;
    }

    const Workload &w_;
    std::uint64_t cseed_;
    bool probe_only_;
    Cluster cluster_;
    RepetitionAwareCoverageOptimizer rco_;
    fs::path wal_dir_;
    SpanRecorder &spans_;
    metrics::Registry registry_;
    std::unique_ptr<durability::Journal> journal_;
    std::map<std::uint64_t, TraceRequest> requests_;
    ObjectStore oss_;
    OdpsTable odps_;
    CoverageLedger ledger_;
};

/** Compare the drive's reports with the master's for the same ids. */
void
checkReports(const std::map<std::uint64_t, TraceReport> &master,
             const std::map<std::uint64_t, TraceReport> &drive,
             std::vector<std::string> &failures)
{
    for (const auto &[id, report] : drive) {
        auto it = master.find(id);
        if (it == master.end())
            failures.push_back("request " + std::to_string(id) +
                               ": no ShardedMaster report");
        else if (!(it->second == report))
            failures.push_back("request " + std::to_string(id) +
                               ": ShardedMaster report differs from the "
                               "layer-by-layer report");
    }
}

/**
 * Per-mille slowdown of the traced target against Oracle in simulated
 * cycles per instruction, pooled over the driven epoch's sessions.
 * CPI rather than instruction rate: a service's instruction rate is
 * set by its clients' demand, so only its cycles show the tracing cost.
 */
double
slowdownPermille(const std::vector<SessionCounts> &sessions)
{
    double oc = 0, oi = 0, tc = 0, ti = 0;
    for (const SessionCounts &s : sessions) {
        oc += static_cast<double>(s.oracle_cycles);
        oi += static_cast<double>(s.oracle_insns);
        tc += static_cast<double>(s.traced_cycles);
        ti += static_cast<double>(s.traced_insns);
    }
    if (oc <= 0 || oi <= 0 || ti <= 0)
        return 0.0;
    return ((tc / ti) / (oc / oi) - 1.0) * 1e3;
}

std::string
sessionsJson(const std::vector<SessionCounts> &sessions)
{
    std::string out = "[";
    for (std::size_t i = 0; i < sessions.size(); ++i) {
        const SessionCounts &s = sessions[i];
        out += (i ? "," : "") +
               JsonObject()
                   .num("rid", static_cast<double>(s.rid))
                   .num("context_switches",
                        static_cast<double>(s.context_switches))
                   .num("trace_bytes", static_cast<double>(s.trace_bytes))
                   .num("dropped_bytes", static_cast<double>(s.dropped_bytes))
                   .num("control_ops", static_cast<double>(s.control_ops))
                   .num("msr_writes", static_cast<double>(s.msr_writes))
                   .num("raw_bytes", static_cast<double>(s.raw_bytes))
                   .num("memo_hits", static_cast<double>(s.memo_hits))
                   .num("memo_misses", static_cast<double>(s.memo_misses))
                   .num("report_latency_s", s.report_latency_s)
                   .str();
    }
    return out + "]";
}

std::string
requestsJson(const std::vector<RequestCounts> &requests)
{
    std::string out = "[";
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const RequestCounts &r = requests[i];
        out += (i ? "," : "") +
               JsonObject()
                   .num("rid", static_cast<double>(r.rid))
                   .num("collect_ran", r.collect_ran ? 1 : 0)
                   .num("degraded_sessions",
                        static_cast<double>(r.degraded_sessions))
                   .num("batches_sent", static_cast<double>(r.batches_sent))
                   .num("retransmits", static_cast<double>(r.retransmits))
                   .num("wire_bytes", static_cast<double>(r.wire_bytes))
                   .str();
    }
    return out + "]";
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
    return buf;
}

/** Exact outputs of the first kExactEpochs epochs: identical on every
 *  run of one seed. */
void
addExact(JsonObject &out, const std::vector<EpochResult> &epochs,
         double slowdown)
{
    double accuracy = 0.0, stored = 0.0, n = 0.0;
    Digest digest;
    for (std::size_t e = 0; e < kExactEpochs; ++e) {
        for (const auto &[id, report] : epochs[e].reports) {
            accuracy += report.merged_accuracy;
            digest.report(report);
        }
        stored += static_cast<double>(epochs[e].stored_bytes);
        n += static_cast<double>(epochs[e].reports.size());
    }
    out.num("report_accuracy_pct", n > 0 ? 100.0 * accuracy / n : 0.0)
        .num("stored_kb_per_request", n > 0 ? stored / 1024.0 / n : 0.0)
        .num("target_slowdown_permille", slowdown)
        .str("report_digest", hex(digest.value()));
}

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string out_dir = ".";
    bool setup_only = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", k.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (k == "--workload")
            a.workload = value();
        else if (k == "--seed")
            a.seed = std::stoull(value());
        else if (k == "--seconds")
            a.seconds = std::stod(value());
        else if (k == "--trace")
            a.trace = std::stoi(value());
        else if (k == "--out-dir")
            a.out_dir = value();
        else if (k == "--setup-only")
            a.setup_only = true;
        else {
            std::fprintf(stderr, "unknown argument %s\n", k.c_str());
            std::exit(2);
        }
    }
    return a;
}

}  // namespace

int
main(int argc, char **argv)
{
    auto start = Clock::now();
    Args args = parseArgs(argc, argv);
    const Workload *w = nullptr;
    for (const Workload &c : workloads())
        if (c.name == args.workload)
            w = &c;
    if (w == nullptr) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    fs::path out_dir = args.out_dir;
    fs::create_directories(out_dir);
    std::string tag = w->name + "-s" + std::to_string(args.seed);
    fs::path wal_dir = out_dir / ("wal-" + tag);

    std::vector<std::string> failures;
    JsonObject out;
    out.str("workload", w->name)
        .num("seed", static_cast<double>(args.seed))
        .num("trace", args.trace)
        .num("shards", w->shards)
        .num("threads", w->threads)
        .str("manifest", w->manifest)
        .str("build_type", PERFBENCH_BUILD_TYPE)
        .str("compiler", PERFBENCH_COMPILER);

    // Set-up: binaries, cold decode caches, warm-up requests.
    runEpoch(*w, clusterSeed(args.seed, kWarmupEpoch), w->warmup_requests,
             wal_dir, false, failures);
    double setup_s = secondsBetween(start, Clock::now());
    out.num("setup_s", setup_s);
    if (args.setup_only) {
        out.strs("failures", failures);
        std::printf("%s\n", out.str().c_str());
        return 0;
    }

    // Untraced runs serve epochs until --seconds of loop time and
    // kMinTimedRequests requests; traced runs only the exact epochs.
    const bool timed = args.trace == 0;
    std::vector<EpochResult> epochs;
    double loop_s = 0.0;
    int attempted = 0, completed = 0;
    long rss_kb = 0;
    auto more = [&] {
        if (epochs.size() < kExactEpochs)
            return true;
        return timed && loop_s <= kMaxLoopSeconds &&
               (loop_s < args.seconds || completed < kMinTimedRequests);
    };
    while (more()) {
        epochs.push_back(runEpoch(*w, clusterSeed(args.seed, epochs.size()),
                                  w->epoch_requests, wal_dir, timed,
                                  failures));
        loop_s += epochs.back().loop_s;
        attempted += epochs.back().attempted;
        completed += epochs.back().completed;
        if (epochs.size() == kExactEpochs)
            rss_kb = peakRssKb();
    }
    out.num("epochs", static_cast<double>(epochs.size()))
        .num("epoch_requests", w->epoch_requests)
        .num("attempted", attempted)
        .num("completed", completed);

    // Outside the timed loop: drive epoch 0's stream layer by layer. An
    // untraced run keeps no spans; it needs only the slowdown and the
    // report check.
    SpanRecorder spans;
    LayerDrive drive(*w, clusterSeed(args.seed, 0),
                     out_dir / ("drive-" + tag), spans,
                     /*probe_only=*/timed);
    for (int id = 1; id <= w->epoch_requests; ++id)
        drive.request(static_cast<std::uint64_t>(id), failures);
    checkReports(epochs[0].reports, drive.reports, failures);
    if (drive.reports.size() != static_cast<std::size_t>(w->epoch_requests))
        failures.push_back("drive completed " +
                           std::to_string(drive.reports.size()) + " of " +
                           std::to_string(w->epoch_requests) + " requests");
    addExact(out, epochs, slowdownPermille(drive.sessions));

    if (timed) {
        std::vector<double> latency, recovery;
        double cpu_s = 0.0;
        for (const EpochResult &e : epochs) {
            latency.insert(latency.end(), e.latency_ms.begin(),
                           e.latency_ms.end());
            recovery.insert(recovery.end(), e.recovery_s.begin(),
                            e.recovery_s.end());
            cpu_s += e.cpu_s;
        }
        out.num("loop_s", loop_s)
            .num("cpu_s", cpu_s)
            .num("peak_rss_kb", static_cast<double>(rss_kb))
            .nums("latency_ms", latency)
            .nums("recovery_s", recovery);
    } else {
        drive.recoverAndCheck(failures);
        fs::path spans_path = out_dir / ("spans-" + tag + ".json");
        std::ofstream(spans_path) << spans.toJson();
        out.str("spans_file", spans_path.string())
            .raw("sessions", sessionsJson(drive.sessions))
            .raw("requests", requestsJson(drive.requests))
            .num("wal_bytes", static_cast<double>(drive.walBytes()))
            .nums("snapshot_ms", drive.snapshot_ms)
            .nums("snapshot_mb", drive.snapshot_mb)
            .num("recovery_records",
                 static_cast<double>(drive.recovery_records));
    }
    out.strs("failures", failures);
    std::printf("%s\n", out.str().c_str());
    return 0;
}
