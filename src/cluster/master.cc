#include "cluster/master.h"

#include "analysis/testbed.h"
#include "cluster/collection.h"
#include "cluster/control_journal.h"
#include "cluster/metrics.h"
#include "cluster/shard/plan.h"
#include "obs/trace_plane.h"
#include "runtime/thread_pool.h"
#include "util/logging.h"

namespace exist {

namespace {

/** Data-path sink over the plain (unstriped) stores. */
class SerialSink : public StoreSink
{
  public:
    SerialSink(ObjectStore &oss, OdpsTable &odps)
        : oss_(oss), odps_(odps)
    {
    }

    void
    putObject(const std::string &key,
              std::vector<std::uint8_t> bytes) override
    {
        oss_.put(key, std::move(bytes));
    }

    void
    insertRow(TraceRow row) override
    {
        odps_.insert(std::move(row));
    }

  private:
    ObjectStore &oss_;
    OdpsTable &odps_;
};

}  // namespace

Master::Master(Cluster *cluster, RcoConfig rco_cfg, int threads)
    : cluster_(cluster), rco_(rco_cfg), threads_(threads)
{
}

std::uint64_t
Master::submit(TraceRequest req)
{
    req.id = next_id_++;
    req.phase = RequestPhase::kPending;
    std::uint64_t id = req.id;
    EXIST_SPAN("reconcile.admit", id);
    // WAL-before-state: the admission is durable before the API-server
    // map reflects it, so a crash here replays the insert.
    if (journal_ != nullptr)
        journal_->onAdmit(req);
    requests_.emplace(id, std::move(req));
    return id;
}

std::uint64_t
Master::apply(const std::string &manifest)
{
    return submit(TraceRequest::parse(manifest));
}

const TraceRequest *
Master::request(std::uint64_t id) const
{
    auto it = requests_.find(id);
    return it == requests_.end() ? nullptr : &it->second;
}

const TraceReport *
Master::report(std::uint64_t id) const
{
    auto it = reports_.find(id);
    return it == reports_.end() ? nullptr : &it->second;
}

void
Master::reconcile()
{
    // Phase 1 — plan serially in request-id order. Each request plans
    // on its private RNG stream (cluster/shard/plan.h), so the chosen
    // periods and worker sets depend only on (cluster state, id) —
    // the same plans the sharded control plane computes.
    std::vector<RequestPlan> plans;
    for (auto &[id, req] : requests_)
        if (req.phase == RequestPhase::kPending) {
            EXIST_SPAN("reconcile.plan", id);
            plans.push_back(planRequest(cluster_, rco_, req, threads_));
            if (journal_ != nullptr)
                journal_->onPlanned(id, plans.back().outcome);
            // Single-threaded API server: the transition needs no lock
            // here, unlike the sharded path (shard.mu).
            req.phase = plans.back().outcome;
        }

    // Phase 2 — run every (request, worker-node) session concurrently:
    // sessions are independent simulations, so they fan out across the
    // pool. Flatten to one task list so a request with one slow node
    // does not serialize the others.
    std::vector<SessionPlan *> jobs;
    for (RequestPlan &plan : plans)
        for (SessionPlan &s : plan.sessions)
            jobs.push_back(&s);
    {
        ReconcilePool pool(threads_);
        runSessions(jobs, pool.get());
    }
    sessions_run_ += jobs.size();

    // Phase 2b — collection plane (when the request asked for net):
    // session results travel node agent -> master ingest over the
    // request's private simulated fabric before they are published.
    // Seeded per request, so the serial and sharded masters see the
    // same fault pattern and publish byte-identical reports.
    for (RequestPlan &plan : plans) {
        CollectHooks hooks;
        if (journal_ != nullptr)
            hooks = journal_->collectHooks(plan.req->id);
        collectPlan(plan, cluster_->config().seed,
                    &metrics::Registry::global(),
                    journal_ != nullptr ? &hooks : nullptr);
    }

    // Phase 3 — publish serially in request-id order: OSS uploads,
    // ODPS rows, coverage accounting and report assembly see session
    // results in the same order as the historical implementation.
    for (RequestPlan &plan : plans)
        publishOne(plan);
}

void
Master::publishOne(RequestPlan &plan)
{
    TraceRequest &req = *plan.req;
    if (req.phase != RequestPhase::kRunning)
        return;  // failed during planning

    EXIST_SPAN("reconcile.publish", req.id);
    SerialSink sink(oss_, odps_);
    if (journal_ != nullptr) {
        // WAL-before-state, physically: capture the pure publish,
        // journal the full effects, then apply. A crash after the
        // append replays the effects instead of re-running anything.
        PublishEffects fx = capturePublish(plan);
        journal_->onPublish(req.id, fx);
        applyPublish(fx, sink);
        ledger_.recordRequest(fx.ledger.app, fx.ledger.sessions,
                              fx.ledger.period, fx.ledger.trace_bytes);
        reports_.emplace(req.id, std::move(fx.report));
    } else {
        TraceReport report = publishRequest(plan, sink);
        ledger_.recordRequest(req.app, plan.sessions.size(),
                              plan.period, report.total_trace_bytes);
        reports_.emplace(req.id, std::move(report));
    }
    req.phase = RequestPhase::kCompleted;
}

ControlStateDump
Master::dumpState() const
{
    ControlStateDump dump;
    dump.next_id = next_id_;
    dump.requests = requests_;
    dump.reports = reports_;
    dump.ledger = ledger_;
    for (const auto &[key, bytes] : oss_.objects())
        dump.objects.emplace_back(key, bytes);
    dump.rows = odps_.rows();
    return dump;
}

void
Master::restoreForRecovery(const ControlStateDump &dump)
{
    next_id_ = dump.next_id;
    requests_ = dump.requests;
    reports_ = dump.reports;
    ledger_ = dump.ledger;
    for (const auto &[key, bytes] : dump.objects)
        oss_.put(key, bytes);
    // Re-insert preserves the dump's row order, which for the serial
    // master is the original insertion (publish) order.
    for (const TraceRow &row : dump.rows)
        odps_.insert(row);
}

Master::Footprint
Master::managementFootprint() const
{
    // Calibrated to the paper's Fig. 17 measurement: the RCO management
    // pod consumes < 3e-3 cores and ~40 MB on a ten-node cluster, with
    // sub-linear growth toward per-mille overhead at thousand scale.
    // Pool threads are parked outside reconcile, so they cost stack
    // memory and housekeeping, not cores.
    int threads = threads_ > 0 ? threads_ : ThreadPool::defaultThreads();
    Footprint f;
    f.cores = 0.0008 + 0.0002 * cluster_->numNodes() + 5e-6 * threads;
    f.memory_mb = 36.0 + 0.4 * cluster_->numNodes() + 8.0 * threads;
    return f;
}

}  // namespace exist
