#include "exp/experiment.hh"

#include <algorithm>
#include <cstdlib>

#include "common/fnv.hh"
#include "exp/report.hh"
#include "obs/monitor.hh"
#include "sim/interrupt.hh"
#include "sim/journal.hh"
#include "sim/metrics.hh"
#include "sim/procpool.hh"

namespace padc::exp
{

namespace
{

/** Simulated cycles of one run: the slowest core's cycle count. */
Cycle
runCycles(const sim::RunMetrics &metrics)
{
    Cycle cycles = 0;
    for (const auto &core : metrics.cores)
        cycles = std::max(cycles, core.cycles);
    return cycles;
}

void
addTrafficMetrics(StatSet &metrics, const sim::RunMetrics &run)
{
    metrics.add("traffic_total", static_cast<double>(run.totalTraffic()));
    metrics.add("traffic_demand",
                static_cast<double>(run.trafficDemand()));
    metrics.add("traffic_pref_useful",
                static_cast<double>(run.trafficPrefUseful()));
    metrics.add("traffic_pref_useless",
                static_cast<double>(run.trafficPrefUseless()));
    metrics.add("traffic_writeback",
                static_cast<double>(run.trafficWriteback()));

    // Controller-side per-class serviced counts, opt-in so default BENCH
    // documents stay byte-stable across releases (the baselines are
    // compared bit-exactly). The schema lists these as optional members.
    static const bool class_metrics = [] {
        const char *env = std::getenv("PADC_CLASS_METRICS");
        return env != nullptr && env[0] == '1';
    }();
    if (class_metrics) {
        for (std::size_t c = 0; c < kRequestClassCount; ++c) {
            std::string name = toString(static_cast<RequestClass>(c));
            for (char &ch : name) {
                if (ch == '-')
                    ch = '_';
            }
            metrics.add("class_serviced_" + name,
                        static_cast<double>(run.class_serviced[c]));
        }
    }
}

/** Rank of a point status for worst-status aggregation. */
int
severity(const std::string &status)
{
    if (status == "ok")
        return 0;
    if (status == "truncated")
        return 1;
    return 2;
}

} // namespace

std::uint64_t
ExperimentResult::configHash() const
{
    const std::uint64_t count = points.size();
    std::uint64_t hash = fnv1a(&count, sizeof(count), kFnvTruncatedOffset);
    for (const PointRecord &point : points)
        hash = fnv1a(&point.key, sizeof(point.key), hash);
    return hash;
}

std::uint64_t
ExperimentResult::simCycles() const
{
    std::uint64_t cycles = 0;
    for (const PointRecord &point : points)
        cycles += point.cycles;
    return cycles;
}

ExperimentContext::ExperimentContext(
    const ExperimentInfo &info, sim::ParallelExperimentRunner &runner,
    sim::SweepJournal *journal, std::optional<std::uint64_t> seed_override,
    telemetry::TelemetryConfig telemetry, sim::ProcessPool *pool)
    : info_(info), runner_(runner), journal_(journal), pool_(pool),
      seed_override_(seed_override), tcfg_(telemetry)
{
}

std::vector<sim::SweepPoint>
ExperimentContext::attachCollectors(
    const std::vector<sim::SweepPoint> &points)
{
    if (!tcfg_.any())
        return points;
    std::vector<sim::SweepPoint> attached = points;
    for (auto &point : attached) {
        captures_.push_back(
            {sim::describePoint(point),
             std::make_unique<telemetry::Collector>(tcfg_)});
        point.config.collector = captures_.back().collector.get();
    }
    return attached;
}

void
ExperimentContext::recordPoint(PointRecord record)
{
    if (severity(record.status) > severity(result_.status)) {
        result_.status = record.status;
        result_.detail = record.detail;
    }
    result_.points.push_back(std::move(record));
}

std::vector<sim::Result<sim::MixEvaluation>>
ExperimentContext::evaluateSweep(const std::vector<sim::SweepPoint> &points,
                                 sim::AloneIpcCache &alone)
{
    // Telemetry collectors cannot cross the process boundary, so
    // telemetry sweeps always run in-thread.
    const bool pooled = pool_ != nullptr && !tcfg_.any();
    if (obs::FleetMonitor *monitor = obs::activeMonitor()) {
        monitor->sweepStarted(info_.name, points.size(),
                              journal_ != nullptr
                                  ? journal_->loadedEntries()
                                  : 0);
    }
    const auto results =
        pooled ? pool_->evaluateSweep(points, alone, journal_)
               : sim::evaluateSweep(attachCollectors(points), alone,
                                    runner_, journal_);
    reportSweepFailures(points, results);
    result_.interrupted = result_.interrupted || sim::interruptRequested();
    if (obs::FleetMonitor *monitor = obs::activeMonitor())
        monitor->sweepFinished(result_.interrupted);

    for (std::size_t i = 0; i < points.size(); ++i) {
        const sim::MixEvaluation &eval = results[i].value;
        PointRecord record;
        record.key = sim::sweepPointKey(points[i]);
        record.label = sim::describePoint(points[i]);
        record.status = sim::toString(results[i].outcome.status);
        record.detail = results[i].outcome.detail;
        record.attempts = results[i].outcome.attempts;
        record.last_error = results[i].outcome.last_error;
        record.cycles = runCycles(eval.metrics);
        record.metrics.add("ws", eval.summary.ws);
        record.metrics.add("hs", eval.summary.hs);
        record.metrics.add("uf", eval.summary.uf);
        for (std::size_t c = 0; c < eval.summary.speedups.size(); ++c)
            record.metrics.add("speedup" + std::to_string(c),
                               eval.summary.speedups[c]);
        addTrafficMetrics(record.metrics, eval.metrics);
        recordPoint(std::move(record));
    }
    return results;
}

std::vector<sim::Result<sim::RunMetrics>>
ExperimentContext::runSweep(const std::vector<sim::SweepPoint> &points)
{
    const bool pooled = pool_ != nullptr && !tcfg_.any();
    if (obs::FleetMonitor *monitor = obs::activeMonitor()) {
        monitor->sweepStarted(info_.name, points.size(),
                              journal_ != nullptr
                                  ? journal_->loadedEntries()
                                  : 0);
    }
    const auto results =
        pooled ? pool_->runSweep(points, journal_)
               : sim::runSweep(attachCollectors(points), runner_,
                               journal_);
    reportSweepFailures(points, results);
    result_.interrupted = result_.interrupted || sim::interruptRequested();
    if (obs::FleetMonitor *monitor = obs::activeMonitor())
        monitor->sweepFinished(result_.interrupted);

    for (std::size_t i = 0; i < points.size(); ++i) {
        const sim::RunMetrics &run = results[i].value;
        PointRecord record;
        record.key = sim::sweepPointKey(points[i]);
        record.label = sim::describePoint(points[i]);
        record.status = sim::toString(results[i].outcome.status);
        record.detail = results[i].outcome.detail;
        record.attempts = results[i].outcome.attempts;
        record.last_error = results[i].outcome.last_error;
        record.cycles = runCycles(run);
        for (std::size_t c = 0; c < run.cores.size(); ++c) {
            const std::string prefix = "core" + std::to_string(c) + ".";
            record.metrics.add(prefix + "ipc", run.cores[c].ipc);
            record.metrics.add(prefix + "mpki", run.cores[c].mpki);
            record.metrics.add(prefix + "spl", run.cores[c].spl);
            record.metrics.add(prefix + "rbhu", run.cores[c].rbhu);
        }
        addTrafficMetrics(record.metrics, run);
        recordPoint(std::move(record));
    }
    return results;
}

sim::RunMetrics
ExperimentContext::runMix(const sim::SystemConfig &config,
                          const workload::Mix &mix,
                          const sim::RunOptions &options)
{
    sim::RunStatus status;
    sim::SystemConfig run_config = config;
    if (tcfg_.any()) {
        captures_.push_back(
            {sim::describePoint({config, mix, options}),
             std::make_unique<telemetry::Collector>(tcfg_)});
        run_config.collector = captures_.back().collector.get();
    }
    const sim::RunMetrics run =
        sim::runMix(run_config, mix, options, &status);

    PointRecord record;
    record.key = sim::sweepPointKey({config, mix, options});
    record.label = sim::describePoint({config, mix, options});
    record.status = status.converged() ? "ok" : "truncated";
    record.detail = status.detail();
    record.cycles = runCycles(run);
    for (std::size_t c = 0; c < run.cores.size(); ++c) {
        const std::string prefix = "core" + std::to_string(c) + ".";
        record.metrics.add(prefix + "ipc", run.cores[c].ipc);
        record.metrics.add(prefix + "mpki", run.cores[c].mpki);
        record.metrics.add(prefix + "spl", run.cores[c].spl);
        record.metrics.add(prefix + "rbhu", run.cores[c].rbhu);
    }
    addTrafficMetrics(record.metrics, run);
    recordPoint(std::move(record));
    return run;
}

void
ExperimentContext::recordScalar(const std::string &name, double value)
{
    result_.scalars.add(name, value);
}

void
ExperimentContext::recordCustomPoint(const std::string &label,
                                     Cycle cycles, const StatSet &metrics)
{
    PointRecord record;
    const std::string path = info_.name + "/" + label;
    record.key = fnv1a(path.data(), path.size(), kFnvTruncatedOffset);
    record.label = label;
    record.status = "ok";
    record.cycles = cycles;
    record.metrics = metrics;
    recordPoint(std::move(record));
}

} // namespace padc::exp
