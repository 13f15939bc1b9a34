/**
 * @file
 * Per-layer measurement tool of the simulator benchmark (see README.md
 * in this directory).
 *
 * It rebuilds, from the library's public API, exactly the System::run
 * calls a benchmark workload makes through `padc run` -- every sweep
 * point plus every alone-IPC baseline run -- and runs them itself:
 *
 *   perfbench_layers count <workload>
 *       Runs every System untraced and prints the benchmark's own
 *       denominators: simulated cycles (warm-up and alone runs
 *       included) and retired instructions of every core.
 *
 *   perfbench_layers keys <workload>
 *       Prints the sweepPointKey of every point, which must equal the
 *       keys in padc's BENCH files for the same experiments.
 *
 *   perfbench_layers trace <workload> <work-dir>
 *       Runs every System twice, untraced and then traced, and prints
 *       the per-layer metrics as one JSON object. The traced pass
 *       wraps each core's TraceSource in a timing shim, records the
 *       request lifecycle through SystemConfig::collector, and reads
 *       exact counts from exportStats()/memStats()/controller stats.
 *       Layers only reachable through System are timed by replaying the
 *       run's own recorded op stream through a standalone
 *       Core/SetAssocCache/MshrFile/Prefetcher hierarchy, its recorded
 *       request stream through a standalone MemoryController, and its
 *       recorded DRAM command stream through a standalone Channel.
 *
 * Nothing here changes simulator behaviour: every System is built and
 * run exactly as the experiment harness builds and runs it.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "cache/mshr.hh"
#include "common/stats.hh"
#include "core/core.hh"
#include "core/trace.hh"
#include "dram/dram_system.hh"
#include "exp/driver.hh"
#include "exp/experiment.hh"
#include "exp/report.hh"
#include "memctrl/accuracy_tracker.hh"
#include "memctrl/controller.hh"
#include "prefetch/prefetcher.hh"
#include "sim/experiment.hh"
#include "sim/journal.hh"
#include "sim/metrics.hh"
#include "sim/system.hh"
#include "sim/wire.hh"
#include "telemetry/profiler.hh"
#include "telemetry/telemetry.hh"
#include "workload/mixes.hh"
#include "workload/profile.hh"

namespace
{

using namespace padc;
using Clock = std::chrono::steady_clock;

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

/** Cost of one empty span (two clock reads), set by calibrateTimer(). */
double g_timer_ns = 0;

/** Accumulated host time and call count of one timed entry point. */
struct Span
{
    std::uint64_t ns = 0;
    std::uint64_t calls = 0;

    /** Time inside the calls, without the spans' own clock reads. */
    double selfNs() const
    {
        return std::max(0.0, static_cast<double>(ns) - calls * g_timer_ns);
    }

    double nsPerCall() const { return calls == 0 ? 0.0 : selfNs() / calls; }
};

/** Times fn() into @p span. */
template <typename Fn>
auto
timed(Span &span, Fn &&fn)
{
    const std::uint64_t t0 = nowNs();
    if constexpr (std::is_void_v<decltype(fn())>) {
        fn();
        span.ns += nowNs() - t0;
        ++span.calls;
    } else {
        auto out = fn();
        span.ns += nowNs() - t0;
        ++span.calls;
        return out;
    }
}

/** Smallest per-span cost of empty spans over a few trials. */
void
calibrateTimer()
{
    double best = 1e9;
    for (int trial = 0; trial < 5; ++trial) {
        Span span;
        for (int i = 0; i < 200000; ++i) {
            const std::uint64_t t0 = nowNs();
            span.ns += nowNs() - t0;
            ++span.calls;
        }
        best = std::min(best, static_cast<double>(span.ns) / span.calls);
    }
    g_timer_ns = best;
}

/**
 * Times @p k back-to-back calls of fn() as one span of @p k calls: for
 * calls cheaper than a clock read, the clock's cost then amortises
 * over k calls instead of swamping each one. fn must be repeatable
 * without changing the simulation (a const query, or a call whose
 * repeats are no-ops). Returns the first call's result.
 */
constexpr int kRepeat = 8;

template <typename Fn>
auto
timedRepeat(Span &span, Fn &&fn)
{
    const std::uint64_t t0 = nowNs();
    auto out = fn();
    for (int i = 1; i < kRepeat; ++i) {
        auto again = fn();
        asm volatile("" : : "g"(&again) : "memory");
    }
    const double per_call =
        (static_cast<double>(nowNs() - t0) - g_timer_ns) / kRepeat;
    // Stored so that selfNs() (which subtracts one clock cost per call)
    // yields per_call per call.
    span.ns += static_cast<std::uint64_t>(
        std::max(0.0, (per_call + g_timer_ns) * kRepeat));
    span.calls += kRepeat;
    return out;
}

// --- the workloads' System::run calls -----------------------------------

/** One System::run the workload makes, as the harness builds it. */
struct RunSpec
{
    sim::SystemConfig config;
    workload::Mix mix;      ///< together run: the mix; alone: 1 profile
    std::uint32_t alone_core = 0;
    bool alone = false;
    sim::RunOptions options;
    std::string experiment; ///< registered experiment it belongs to
};

/** A sweep point of the workload, for the harness-layer measurements. */
struct PointSpec
{
    sim::SweepPoint point;
    std::size_t run = 0; ///< index of its RunSpec
};

struct Workload
{
    std::vector<RunSpec> runs;
    std::vector<PointSpec> points;
    std::vector<std::string> experiments;
};

void
addAloneRuns(Workload &w, const sim::SystemConfig &base,
             const sim::RunOptions &options, const workload::Mix &mix,
             std::uint64_t mix_seed, const std::string &experiment)
{
    // AloneIpcCache::computeAlone: demand-first, the application on its
    // own core, the other cores spinning on one line.
    for (std::uint32_t c = 0; c < mix.size(); ++c) {
        RunSpec run;
        run.config = sim::applyPolicy(base, sim::PolicySetup::DemandFirst);
        run.mix = {mix[c]};
        run.alone_core = c;
        run.alone = true;
        run.options = options;
        run.options.mix_seed = mix_seed;
        run.experiment = experiment;
        w.runs.push_back(run);
    }
}

void
addPoint(Workload &w, const sim::SystemConfig &config,
         const workload::Mix &mix, const sim::RunOptions &options,
         const std::string &experiment)
{
    RunSpec run;
    run.config = config;
    run.mix = mix;
    run.options = options;
    run.experiment = experiment;
    w.points.push_back({{config, mix, options}, w.runs.size()});
    w.runs.push_back(run);
}

/** fig10 / fig12: exp::caseStudyBench. */
void
caseStudy(Workload &w, const workload::Mix &mix, const std::string &name)
{
    const auto cores = static_cast<std::uint32_t>(mix.size());
    const sim::SystemConfig base = sim::SystemConfig::baseline(cores);
    sim::RunOptions options = exp::defaultOptions(cores);
    options.instructions = 150000;
    options.warmup = 30000;
    addAloneRuns(w, base, options, mix, options.mix_seed, name);
    for (const auto setup : exp::fivePolicies())
        addPoint(w, sim::applyPolicy(base, setup), mix, options, name);
    w.experiments.push_back(name);
}

/** fig09: exp::overallBench(ctx, 2, 12, fivePolicies()), mix seed 1234. */
void
overall2Core(Workload &w)
{
    const sim::SystemConfig base = sim::SystemConfig::baseline(2);
    const sim::RunOptions options = exp::defaultOptions(2);
    const auto mixes = workload::randomMixes(12, 2, 1234);
    for (std::size_t i = 0; i < mixes.size(); ++i)
        addAloneRuns(w, base, options, mixes[i], i, "fig09");
    for (const auto setup : exp::fivePolicies()) {
        const sim::SystemConfig config = sim::applyPolicy(base, setup);
        for (std::size_t i = 0; i < mixes.size(); ++i) {
            sim::RunOptions point_options = options;
            point_options.mix_seed = i;
            addPoint(w, config, mixes[i], point_options, "fig09");
        }
    }
    w.experiments.push_back("fig09");
}

Workload
buildWorkload(const std::string &name)
{
    Workload w;
    if (name == "cmp4_saturated") {
        caseStudy(w, workload::caseStudyFriendly(), "fig10");
        caseStudy(w, workload::caseStudyUnfriendly(), "fig12");
    } else if (name == "sweep_pool_resume") {
        overall2Core(w);
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return w;
}

// --- trace sources --------------------------------------------------------

/** Times TraceSource::next and keeps the first ops for the core replay. */
class TimedTrace : public core::TraceSource
{
  public:
    TimedTrace(std::unique_ptr<core::TraceSource> inner, std::size_t keep)
        : inner_(std::move(inner)), keep_(keep)
    {
    }

    core::TraceOp next() override
    {
        const std::uint64_t t0 = nowNs();
        const core::TraceOp op = inner_->next();
        span.ns += nowNs() - t0;
        ++span.calls;
        if (recorded.size() < keep_)
            recorded.push_back(op);
        return op;
    }

    void reset() override { inner_->reset(); }

    Span span;
    std::vector<core::TraceOp> recorded;

  private:
    std::unique_ptr<core::TraceSource> inner_;
    std::size_t keep_;
};

/** The run's per-core trace sources, built like sim::runMix builds them. */
struct Sources
{
    std::vector<std::unique_ptr<core::TraceSource>> owned;
    std::vector<core::TraceSource *> raw;
    std::vector<TimedTrace *> timed; ///< traced pass only
};

Sources
makeSources(const RunSpec &run, bool traced, std::size_t keep)
{
    Sources s;
    const std::uint32_t n = run.config.num_cores;
    for (std::uint32_t c = 0; c < n; ++c) {
        std::unique_ptr<core::TraceSource> src;
        if (!run.alone) {
            src = workload::makeTraceSource(run.mix, c,
                                            run.options.mix_seed);
        } else if (c == run.alone_core % n) {
            const workload::Mix dummy(n, run.mix[0]);
            src = workload::makeTraceSource(dummy, c, run.options.mix_seed);
        } else {
            core::TraceOp spin;
            spin.compute_gap = 1000;
            spin.addr = (static_cast<Addr>(c) << 40) | 0x100;
            spin.pc = 0x500000 + c * 16;
            spin.is_load = true;
            src = std::make_unique<core::VectorTrace>(
                std::vector<core::TraceOp>{spin});
        }
        if (traced) {
            auto wrapped = std::make_unique<TimedTrace>(std::move(src), keep);
            s.timed.push_back(wrapped.get());
            src = std::move(wrapped);
        }
        s.raw.push_back(src.get());
        s.owned.push_back(std::move(src));
    }
    return s;
}

// --- standalone replays -----------------------------------------------

/** Host time of the layers a replay exercised. */
struct ReplayTimes
{
    Span core_tick;   ///< Core::tick self time (port calls excluded)
    Span port;        ///< MemoryPort::access as seen by the core
    Span cache;       ///< SetAssocCache::access / fill
    Span mshr;        ///< MshrFile::find / alloc / release
    Span observe;     ///< Prefetcher::observe
    Span core_bound;  ///< Core::nextEventCycle
    Span core_skip;   ///< Core::accountIdleCycles
    std::uint64_t core_instructions = 0;
    std::uint64_t l1_accesses = 0;
    std::uint64_t mshr_full_retries = 0;

    Span ctrl_tick;    ///< MemoryController::tick
    Span ctrl_enqueue; ///< enqueueRead / enqueueWrite / promote
    Span ctrl_bound;   ///< MemoryController::nextEventCycle
    Span ctrl_skip;    ///< MemoryController::skipTo
    Span tracker_tick; ///< AccuracyTracker::tick
    std::uint64_t ctrl_enqueues = 0;

    Span legality; ///< Channel::canActivate/canPrecharge/canColumn
    std::uint64_t illegal = 0; ///< recorded commands the replay refused
};

/**
 * A one-core memory hierarchy for the Core::tick replay: the run's L1,
 * L2, MSHR file and prefetcher configuration, with DRAM replaced by a
 * fixed latency (the run's measured mean read wait).
 */
class ReplayPort : public core::MemoryPort
{
  public:
    ReplayPort(const sim::SystemConfig &config, Cycle mem_latency,
               ReplayTimes &t)
        : config_(config), l1_(config.l1, "l1"), l2_(config.l2, "l2"),
          mshr_(config.mshr_per_l2), mem_latency_(mem_latency), t_(t)
    {
        if (config.prefetch_enabled)
            prefetcher_ = prefetch::makePrefetcher(config.prefetcher);
    }

    void attach(core::Core *core) { core_ = core; }

    core::AccessReply access(CoreId core, Addr addr, Addr pc, bool is_load,
                             std::uint64_t tag, bool runahead,
                             Cycle now) override
    {
        const std::uint64_t t0 = nowNs();
        const core::AccessReply reply =
            doAccess(core, addr, pc, is_load, tag, runahead, now);
        t_.port.ns += nowNs() - t0;
        ++t_.port.calls;
        return reply;
    }

    /** Earliest pending fill, or kNever. */
    Cycle nextFill() const
    {
        return fills_.empty() ? kNever : fills_.front().due;
    }

    void deliver(Cycle now)
    {
        while (!fills_.empty() && fills_.front().due <= now) {
            const Fill fill = fills_.front();
            fills_.pop_front();
            std::vector<cache::LoadToken> waiters;
            timed(t_.mshr, [&] {
                if (cache::MshrEntry *e = mshr_.find(fill.line)) {
                    waiters = e->waiters;
                    mshr_.release(fill.line);
                }
            });
            timed(t_.cache, [&] {
                l2_.fill(fill.line, 0, fill.pc, fill.prefetch, false,
                         static_cast<std::uint32_t>(mem_latency_));
            });
            if (!waiters.empty())
                timed(t_.cache,
                      [&] { l1_.fill(fill.line, 0, fill.pc, false, false, 0); });
            for (const auto &w : waiters)
                core_->completeLoad(w.tag, now);
        }
    }

    static constexpr Cycle kNever = ~Cycle{0};

  private:
    struct Fill
    {
        Cycle due;
        Addr line;
        Addr pc;
        bool prefetch;
    };

    core::AccessReply doAccess(CoreId, Addr addr, Addr pc, bool is_load,
                               std::uint64_t tag, bool runahead, Cycle now)
    {
        ++t_.l1_accesses;
        cache::Line *l1 = timed(t_.cache, [&] { return l1_.access(addr); });
        if (l1 != nullptr) {
            if (!is_load)
                l1->dirty = true;
            return {core::AccessStatus::Complete,
                    now + config_.l1.hit_latency};
        }
        const Addr line = lineAlign(addr);
        cache::Line *l2 = timed(t_.cache, [&] { return l2_.access(addr); });
        const bool miss = l2 == nullptr;
        core::AccessReply reply;
        if (!miss) {
            timed(t_.cache, [&] { l1_.fill(line, 0, pc, false, false, 0); });
            reply = {core::AccessStatus::Complete,
                     now + config_.l1.hit_latency + config_.l2.hit_latency};
        } else if (cache::MshrEntry *e =
                       timed(t_.mshr, [&] { return mshr_.find(line); })) {
            e->waiters.push_back({0, tag});
            reply = {core::AccessStatus::Pending, 0};
        } else if (mshr_.full()) {
            ++t_.mshr_full_retries;
            reply = {core::AccessStatus::Retry, 0};
        } else {
            timed(t_.mshr, [&] {
                cache::MshrEntry &e = mshr_.alloc(line);
                e.pc = pc;
                e.waiters.push_back({0, tag});
            });
            push({now + mem_latency_, line, pc, false});
            reply = {core::AccessStatus::Pending, 0};
        }
        if (prefetcher_ && reply.status != core::AccessStatus::Retry) {
            candidates_.clear();
            timed(t_.observe, [&] {
                prefetcher_->observe(addr, pc, miss, runahead, candidates_);
            });
            for (const Addr c : candidates_) {
                const Addr cl = lineAlign(c);
                if (l2_.probe(cl) || mshr_.full() ||
                    timed(t_.mshr, [&] { return mshr_.find(cl); }) != nullptr)
                    continue;
                timed(t_.mshr, [&] {
                    cache::MshrEntry &e = mshr_.alloc(cl);
                    e.pc = pc;
                    e.cls = RequestClass::Prefetch;
                });
                push({now + mem_latency_, cl, pc, true});
            }
        }
        return reply;
    }

    void push(const Fill &fill)
    {
        // Fixed latency keeps the queue ordered by due cycle.
        fills_.push_back(fill);
    }

    const sim::SystemConfig &config_;
    cache::SetAssocCache l1_;
    cache::SetAssocCache l2_;
    cache::MshrFile mshr_;
    std::unique_ptr<prefetch::Prefetcher> prefetcher_;
    Cycle mem_latency_;
    ReplayTimes &t_;
    core::Core *core_ = nullptr;
    std::deque<Fill> fills_;
    std::vector<Addr> candidates_;
};

/** Replay core 0's recorded ops through a standalone Core + hierarchy. */
void
replayCore(const sim::SystemConfig &config,
           const std::vector<core::TraceOp> &ops, Cycle mem_latency,
           ReplayTimes &t)
{
    if (ops.empty())
        return;
    core::VectorTrace trace(ops);
    ReplayPort port(config, mem_latency, t);
    core::Core core(0, config.core, trace, port);
    port.attach(&core);
    std::uint64_t target = 0;
    for (const auto &op : ops)
        target += op.compute_gap + 1;
    const Cycle cap = target * 400 + 100000;
    Cycle now = 0;
    while (core.stats().instructions < target && now < cap) {
        port.deliver(now);
        const std::uint64_t t0 = nowNs();
        const std::uint64_t port_before = t.port.ns;
        const std::uint64_t port_calls = t.port.calls;
        core.tick(now);
        // Self time only: the port's spans are children of the tick.
        const double port_ns = static_cast<double>(t.port.ns - port_before) +
                               (t.port.calls - port_calls) * g_timer_ns;
        t.core_tick.ns += static_cast<std::uint64_t>(std::max(
            0.0, static_cast<double>(nowNs() - t0) - port_ns));
        ++t.core_tick.calls;
        ++now;
        const Cycle bound = timedRepeat(
            t.core_bound, [&] { return core.nextEventCycle(now); });
        const Cycle next = std::min(bound, port.nextFill());
        if (next != ReplayPort::kNever && next > now) {
            // accountIdleCycles(0) takes the same O(1) path and adds
            // nothing, so the repeats leave the replay unchanged.
            bool first = true;
            timedRepeat(t.core_skip, [&] {
                core.accountIdleCycles(first ? next - now : 0);
                first = false;
                return 0;
            });
            now = next;
        }
    }
    t.core_instructions += core.stats().instructions;
}

/** Response sink of the controller replay. */
class NullHandler : public memctrl::ResponseHandler
{
  public:
    void dramReadComplete(const memctrl::Request &, Cycle) override {}
    void dramPrefetchDropped(const memctrl::Request &, Cycle) override {}
};

/**
 * Replay channel 0's recorded enqueue/promote stream, at the recorded
 * cycles, into a standalone controller over a standalone DRAM, with the
 * same next-event loop System::run uses.
 */
void
replayController(const sim::SystemConfig &config,
                 const std::vector<telemetry::TraceEvent> &events,
                 std::size_t limit, ReplayTimes &t)
{
    using telemetry::EventKind;
    std::vector<const telemetry::TraceEvent *> in;
    for (const auto &e : events) {
        if (e.channel != 0)
            continue;
        if (e.kind == EventKind::Enqueue ||
            e.kind == EventKind::EnqueueWrite ||
            e.kind == EventKind::Promote)
            in.push_back(&e);
        if (in.size() >= limit)
            break;
    }
    if (in.empty())
        return;
    dram::DramSystem dram(config.dram);
    memctrl::AccuracyTracker tracker(config.num_cores,
                                     config.sched.accuracy);
    NullHandler handler;
    memctrl::MemoryController ctrl(config.sched, dram.channel(0), tracker,
                                   handler, config.num_cores);
    std::size_t i = 0;
    Cycle now = in.front()->cycle;
    const Cycle end = in.back()->cycle + 20000;
    while (now < end) {
        timed(t.tracker_tick, [&] { tracker.tick(now); });
        for (; i < in.size() && in[i]->cycle <= now; ++i) {
            const telemetry::TraceEvent &e = *in[i];
            ++t.ctrl_enqueues;
            timed(t.ctrl_enqueue, [&] {
                if (e.kind == EventKind::Enqueue) {
                    ctrl.enqueueRead(dram.map(e.addr), e.addr, e.core, 0,
                                     e.requestClass(), now);
                } else if (e.kind == EventKind::EnqueueWrite) {
                    ctrl.enqueueWrite(dram.map(e.addr), e.addr, e.core, now);
                } else {
                    ctrl.promote(e.addr, now);
                }
            });
        }
        timed(t.ctrl_tick, [&] { ctrl.tick(now); });
        ++now;
        Cycle next = i < in.size() ? in[i]->cycle : end;
        next = std::min(next, tracker.nextBoundary());
        if (next <= now)
            continue;
        next = std::min(next, timedRepeat(t.ctrl_bound, [&] {
                            return ctrl.nextEventCycle(now);
                        }));
        if (next <= now)
            continue;
        timed(t.ctrl_skip, [&] { ctrl.skipTo(now, next); });
        now = next;
    }
}

/**
 * Re-issue channel 0's recorded DRAM commands, at their recorded cycles,
 * on a fresh Channel: each was legal when the run issued it, so each
 * legality check must pass again.
 */
void
replayChannel(const sim::SystemConfig &config,
              const std::vector<telemetry::TraceEvent> &events,
              std::size_t limit, ReplayTimes &t)
{
    using telemetry::EventKind;
    dram::DramSystem dram(config.dram);
    dram::Channel &ch = dram.channel(0);
    std::size_t n = 0;
    for (const auto &e : events) {
        if (e.channel != 0)
            continue;
        bool ok = true;
        switch (e.kind) {
          case EventKind::CmdActivate:
            ok = timedRepeat(t.legality,
                             [&] { return ch.canActivate(e.bank, e.cycle); });
            ch.activate(e.bank, e.row, e.cycle);
            break;
          case EventKind::CmdPrecharge:
            ok = timedRepeat(t.legality, [&] {
                return ch.canPrecharge(e.bank, e.cycle);
            });
            ch.precharge(e.bank, e.cycle);
            break;
          case EventKind::CmdRead:
          case EventKind::CmdWrite: {
            const bool write = e.kind == EventKind::CmdWrite;
            ok = timedRepeat(t.legality, [&] {
                return ch.canColumn(e.bank, write, e.cycle);
            });
            ch.column(e.bank, write, false, e.cycle);
            break;
          }
          case EventKind::Refresh:
            ch.refresh(e.cycle);
            break;
          default:
            continue;
        }
        if (!ok)
            ++t.illegal;
        if (++n >= limit)
            break;
    }
}

// --- one run ------------------------------------------------------------

/** Exact counts and host times of the workload's System::runs. */
struct Totals
{
    std::uint64_t runs = 0;
    std::uint64_t alone_runs = 0;
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t skipped = 0;
    std::uint64_t jumps = 0;
    std::uint64_t run_ns = 0;
    std::uint64_t construct_ns = 0;
    std::uint64_t not_converged = 0;

    // Traced pass only.
    Span workload;
    std::uint64_t load_stall_cycles = 0;
    std::uint64_t issue_retries = 0;
    std::uint64_t mem_ops = 0;
    std::uint64_t l2_accesses = 0;
    std::uint64_t l2_misses = 0;
    std::uint64_t observes = 0;
    std::uint64_t candidates = 0;
    std::uint64_t issued = 0;
    std::uint64_t no_room = 0;
    std::uint64_t useful = 0;
    std::uint64_t mshr_ops = 0;
    std::uint64_t ctrl_ticks = 0;
    std::uint64_t core_cycles_landed = 0; ///< landed cycles x cores
    std::uint64_t core_jumps = 0;         ///< event jumps x cores
    std::uint64_t enqueues = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t occupancy_sum = 0;
    std::uint64_t dram_cycles = 0;
    std::uint64_t dropped = 0;
    std::uint64_t prefetch_enqueues = 0;
    std::uint64_t promotions = 0;
    std::uint64_t rejected_full = 0;
    std::uint64_t commands = 0;
    std::uint64_t activates = 0;
    std::uint64_t row_hits = 0;
    std::uint64_t row_outcomes = 0;
    std::uint64_t bus_busy = 0;
    std::uint64_t bus_cycles = 0;
    std::uint64_t trace_dropped = 0;
    std::vector<std::uint64_t> read_waits;
    ReplayTimes replay;
    std::vector<sim::RunMetrics> point_metrics; ///< by RunSpec index
};

constexpr std::size_t kReplayOps = 20000;
constexpr std::size_t kReplayEvents = 40000;

void
runOne(const RunSpec &run, bool traced, Totals &tot)
{
    std::optional<telemetry::Collector> collector;
    sim::SystemConfig config = run.config;
    if (traced) {
        telemetry::TelemetryConfig tcfg;
        tcfg.trace = true;
        collector.emplace(tcfg);
        config.collector = &*collector;
    }

    const std::uint64_t c0 = nowNs();
    Sources sources = makeSources(run, traced, kReplayOps);
    sim::System system(config, sources.raw);
    tot.construct_ns += nowNs() - c0;

    const auto before = telemetry::WallProfiler::instance().snapshot();
    const std::uint64_t r0 = nowNs();
    const sim::RunStatus status = system.run(
        run.options.instructions, run.options.max_cycles, run.options.warmup);
    tot.run_ns += nowNs() - r0;
    const auto after = telemetry::WallProfiler::instance().snapshot();

    ++tot.runs;
    tot.alone_runs += run.alone ? 1 : 0;
    tot.not_converged += status.converged() ? 0 : 1;
    tot.cycles += system.cycles();
    tot.skipped += after.skipped_cycles - before.skipped_cycles;
    tot.jumps += after.event_jumps - before.event_jumps;
    // Application instructions only: the spinning stand-ins for idle
    // cores of an alone run retire filler, not workload.
    for (CoreId c = 0; c < config.num_cores; ++c) {
        if (!run.alone || c == run.alone_core % config.num_cores)
            tot.instructions += system.coreModel(c).stats().instructions;
    }
    if (!traced)
        return;

    tot.point_metrics.push_back(sim::collectMetrics(system));
    for (const TimedTrace *tt : sources.timed) {
        tot.workload.ns += tt->span.ns;
        tot.workload.calls += tt->span.calls;
    }
    for (CoreId c = 0; c < config.num_cores; ++c) {
        const core::CoreStats &cs = system.coreModel(c).stats();
        const sim::CoreMemStats &ms = system.memStats(c);
        tot.load_stall_cycles += cs.load_stall_cycles;
        tot.issue_retries += cs.issue_retries;
        tot.mem_ops += cs.mem_ops_issued;
        tot.l2_accesses += ms.l2_demand_accesses;
        tot.l2_misses += ms.l2_demand_misses;
        // A bounced access reaches the L2 (and counts there) but skips
        // prefetcher training.
        if (config.prefetch_enabled)
            tot.observes += ms.l2_demand_accesses - cs.issue_retries;
        tot.candidates += ms.prefetch_candidates;
        tot.issued += ms.prefetches_issued;
        tot.no_room += ms.prefetches_no_room;
        tot.useful += ms.useful_prefetch_fills;
    }
    const std::uint64_t landed = system.cycles() -
                                 (after.skipped_cycles - before.skipped_cycles);
    tot.core_cycles_landed += landed * config.num_cores;
    tot.core_jumps +=
        (after.event_jumps - before.event_jumps) * config.num_cores;
    const dram::TimingParams &timing = system.dramSystem().channel(0).timing();
    for (std::uint32_t i = 0; i < system.numControllers(); ++i) {
        const memctrl::ControllerStats &s = system.controller(i).stats();
        tot.ctrl_ticks += landed;
        tot.reads += s.demand_reads + s.prefetch_reads;
        tot.writes += s.writes;
        tot.occupancy_sum += s.read_queue_occupancy_sum;
        tot.dram_cycles += s.dram_cycles;
        tot.dropped += s.prefetches_dropped;
        tot.promotions += s.promotions;
        tot.rejected_full +=
            s.prefetches_rejected_full + s.demands_rejected_full;
        tot.row_hits += s.read_row_hits;
        tot.row_outcomes +=
            s.read_row_hits + s.read_row_closed + s.read_row_conflicts;
        tot.bus_busy += (s.demand_reads + s.prefetch_reads + s.writes) *
                        timing.toCpu(timing.tBURST);
        tot.bus_cycles += system.cycles();
    }
    const StatSet stats = system.exportStats();
    tot.activates += static_cast<std::uint64_t>(stats.get("dram.activates"));
    for (const char *cmd : {"dram.activates", "dram.precharges", "dram.reads",
                            "dram.writes", "dram.refreshes"})
        tot.commands += static_cast<std::uint64_t>(stats.get(cmd));

    using telemetry::EventKind;
    const telemetry::TraceBuffer &buf = *collector->trace();
    tot.trace_dropped += buf.dropped();
    double wait_sum = 0;
    std::uint64_t wait_n = 0;
    for (const auto &e : buf.events()) {
        switch (e.kind) {
          case EventKind::Enqueue:
          case EventKind::EnqueueWrite:
            ++tot.enqueues;
            if (e.requestClass() == RequestClass::Prefetch)
                ++tot.prefetch_enqueues;
            break;
          case EventKind::Complete:
            tot.read_waits.push_back(e.cycle - e.aux);
            wait_sum += static_cast<double>(e.cycle - e.aux);
            ++wait_n;
            break;
          case EventKind::MshrAlloc:
          case EventKind::MshrCoalesce:
          case EventKind::MshrRelease:
            ++tot.mshr_ops;
            break;
          default:
            break;
        }
    }

    const Cycle mem_latency =
        wait_n == 0 ? 200 : static_cast<Cycle>(wait_sum / wait_n);
    const std::size_t app = run.alone ? run.alone_core % config.num_cores : 0;
    replayCore(config, sources.timed[app]->recorded, mem_latency, tot.replay);
    replayController(config, buf.events(), kReplayEvents, tot.replay);
    replayChannel(config, buf.events(), kReplayEvents, tot.replay);
}

// --- harness layers (journal, wire, exp JSON) ------------------------------

struct Harness
{
    Span journal_append;
    double journal_load_ms = 0;
    std::uint64_t journal_replayed = 0;
    Span encode;
    Span decode;
    std::uint64_t frames = 0;
    std::uint64_t bytes = 0;
    double bench_json_ms = 0;
    std::uint64_t bench_bytes = 0;
};

sim::Result<sim::MixEvaluation>
evaluation(const Workload &w, const Totals &tot, std::size_t point)
{
    // Alone IPCs of the point's mix: the alone runs carrying its seed.
    const PointSpec &p = w.points[point];
    sim::Result<sim::MixEvaluation> r;
    r.value.metrics = tot.point_metrics[p.run];
    std::vector<double> alone(p.point.mix.size(), 0.0);
    for (std::size_t i = 0; i < w.runs.size(); ++i) {
        const RunSpec &a = w.runs[i];
        if (a.alone && a.options.mix_seed == p.point.options.mix_seed &&
            a.experiment == w.runs[p.run].experiment &&
            a.config.num_cores == p.point.config.num_cores &&
            a.mix[0] == p.point.mix[a.alone_core]) {
            const auto &cores = tot.point_metrics[i].cores;
            alone[a.alone_core] = cores[a.alone_core % cores.size()].ipc;
        }
    }
    if (p.point.mix.size() > 1)
        r.value.summary = sim::multiCoreMetrics(r.value.metrics, alone);
    return r;
}

Harness
measureHarness(const Workload &w, const Totals &tot,
               const std::string &work_dir, bool pooled)
{
    Harness h;
    std::vector<sim::Result<sim::MixEvaluation>> evals;
    for (std::size_t i = 0; i < w.points.size(); ++i)
        evals.push_back(evaluation(w, tot, i));

    // exp JSON: one BENCH document per experiment of the workload.
    for (const auto &name : w.experiments) {
        exp::ExperimentInfo info;
        info.name = name;
        exp::ExperimentResult result;
        for (std::size_t i = 0; i < w.points.size(); ++i) {
            if (w.runs[w.points[i].run].experiment != name)
                continue;
            exp::PointRecord rec;
            rec.key = sim::sweepPointKey(w.points[i].point);
            rec.label = sim::describePoint(w.points[i].point);
            rec.status = "ok";
            const sim::MixEvaluation &eval = evals[i].value;
            rec.metrics.add("ws", eval.summary.ws);
            rec.metrics.add("hs", eval.summary.hs);
            for (std::size_t c = 0; c < eval.metrics.cores.size(); ++c)
                rec.metrics.add("core" + std::to_string(c) + ".ipc",
                                eval.metrics.cores[c].ipc);
            result.points.push_back(rec);
        }
        const std::uint64_t t0 = nowNs();
        const std::string doc = exp::resultJson(info, result);
        h.bench_json_ms += (nowNs() - t0) / 1e6;
        h.bench_bytes += doc.size();
    }
    if (!pooled)
        return h;

    // Journal: append every point, then reopen and replay it.
    const std::string path = work_dir + "/layers.padcjournal";
    std::filesystem::remove(path);
    {
        sim::SweepJournal journal(path);
        for (std::size_t i = 0; i < w.points.size(); ++i) {
            const std::uint64_t key = sim::sweepPointKey(w.points[i].point);
            timed(h.journal_append, [&] { journal.record(key, evals[i]); });
        }
    }
    {
        const std::uint64_t t0 = nowNs();
        sim::SweepJournal journal(path);
        sim::Result<sim::MixEvaluation> out;
        for (const auto &p : w.points)
            h.journal_replayed +=
                journal.lookup(sim::sweepPointKey(p.point), &out) ? 1 : 0;
        h.journal_load_ms = (nowNs() - t0) / 1e6;
    }
    std::filesystem::remove(path);

    // Wire: the task and result frame of every point, both directions.
    const sim::SystemConfig alone_base = sim::SystemConfig::baseline(2);
    const sim::RunOptions alone_options = exp::defaultOptions(2);
    for (std::size_t i = 0; i < w.points.size(); ++i) {
        sim::wire::WireTask task;
        task.kind = sim::wire::WireTask::Kind::Eval;
        task.index = i;
        task.point = w.points[i].point;
        task.alone_base = alone_base;
        task.alone_options = alone_options;
        sim::wire::WireResult result;
        result.kind = sim::wire::WireTask::Kind::Eval;
        result.index = i;
        result.eval = evals[i];

        const std::string tf =
            timed(h.encode, [&] { return sim::wire::encodeTask(task); });
        const std::string rf =
            timed(h.encode, [&] { return sim::wire::encodeResult(result); });
        sim::wire::WireTask task_back;
        sim::wire::WireResult result_back;
        std::string error;
        const bool ok_task = timed(h.decode, [&] {
            return sim::wire::decodeTask(tf, &task_back, &error);
        });
        const bool ok_result = timed(h.decode, [&] {
            return sim::wire::decodeResult(rf, &result_back, &error);
        });
        if (!ok_task || !ok_result)
            throw std::runtime_error("wire round trip failed: " + error);
        h.frames += 2;
        h.bytes += tf.size() + rf.size() + 8; // two 4-byte length prefixes
    }
    return h;
}

// --- output -------------------------------------------------------------

class JsonOut
{
  public:
    void add(const std::string &name, double value)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        body_ += (body_.empty() ? "" : ",\n") + std::string(" \"") + name +
                 "\": " + buf;
    }

    void print() const { std::printf("{\n%s\n}\n", body_.c_str()); }

  private:
    std::string body_;
};

double
ratio(double num, double den)
{
    return den == 0 ? 0.0 : num / den;
}

/** Nearest rank: the ceil(pct * n / 100)-th smallest of sorted @p v. */
double
nearestRank(const std::vector<std::uint64_t> &v, double pct)
{
    const auto rank = static_cast<std::size_t>(std::ceil(pct * v.size() / 100));
    return static_cast<double>(v[std::max<std::size_t>(rank, 1) - 1]);
}

/**
 * The benchmark's tail rule: the highest whole percentile with at least
 * ten samples beyond it, floor(100 - 1000 / n), capped at 99. Sets
 * @p pct to it (0 when fewer than 20 samples leave no percentile >= 50)
 * and returns the sample at that percentile.
 */
double
tailPercentile(const std::vector<std::uint64_t> &sorted, double *pct)
{
    *pct = 0;
    if (sorted.size() < 20)
        return 0;
    *pct = std::min(99.0, std::floor(100.0 - 1000.0 / sorted.size()));
    return nearestRank(sorted, *pct);
}

int
countMode(const Workload &w)
{
    Totals tot;
    for (const auto &run : w.runs)
        runOne(run, false, tot);
    JsonOut out;
    out.add("runs", tot.runs);
    out.add("alone_runs", tot.alone_runs);
    out.add("points", w.points.size());
    out.add("simulated_cycles", tot.cycles);
    out.add("instructions", tot.instructions);
    out.add("skipped_cycles", tot.skipped);
    out.add("not_converged", tot.not_converged);
    out.print();
    return 0;
}

/** The sweepPointKey of every point, to match against BENCH files. */
int
keysMode(const Workload &w)
{
    for (const auto &p : w.points) {
        std::printf("%s %016llx\n", w.runs[p.run].experiment.c_str(),
                    static_cast<unsigned long long>(
                        sim::sweepPointKey(p.point)));
    }
    return 0;
}

int
traceMode(const std::string &name, const Workload &w,
          const std::string &work_dir)
{
    Totals plain;
    for (const auto &run : w.runs)
        runOne(run, false, plain);
    Totals tot;
    for (const auto &run : w.runs)
        runOne(run, true, tot);
    const bool pooled = name == "sweep_pool_resume";
    const Harness h = measureHarness(w, tot, work_dir, pooled);
    const ReplayTimes &r = tot.replay;

    const double landed = static_cast<double>(tot.cycles - tot.skipped);
    const double l1_accesses =
        static_cast<double>(tot.mem_ops + tot.issue_retries);
    // Estimated self time of each layer inside the untraced
    // System::runs: what the replays spent per unit of work, times the
    // work the runs did. DRAM legality checks run inside controller
    // ticks, so the controller's share excludes them.
    const double dram_ns = r.legality.nsPerCall() * tot.commands;
    const double ctrl_ns =
        ratio(r.ctrl_tick.selfNs() + r.ctrl_enqueue.selfNs() +
                  r.tracker_tick.selfNs(),
              r.ctrl_enqueues) *
        tot.enqueues;
    const std::pair<const char *, double> layer_ns[] = {
        {"workload.self_ms", tot.workload.selfNs()},
        {"core.self_ms", ratio(r.core_tick.selfNs(), r.core_instructions) *
                     tot.instructions},
        {"cache.self_ms", ratio(r.cache.selfNs(), r.l1_accesses) * l1_accesses},
        {"cache.mshr_self_ms", r.mshr.nsPerCall() * tot.mshr_ops},
        {"prefetch.self_ms", r.observe.nsPerCall() * tot.observes},
        {"memctrl.self_ms", std::max(0.0, ctrl_ns - dram_ns)},
        {"dram.self_ms", dram_ns},
        // System::run asks each core that ticked for its next event and,
        // once all cores can wait, each controller: at most one core
        // bound per core-cycle landed, one controller bound per jump.
        {"sim.jump_bound_self_ms", r.core_bound.nsPerCall() * tot.core_cycles_landed +
                           r.ctrl_bound.nsPerCall() * tot.jumps},
        // Each jump replays every controller and every core.
        {"sim.skip_replay_self_ms", r.ctrl_skip.nsPerCall() * tot.jumps +
                            r.core_skip.nsPerCall() * tot.core_jumps},
    };
    double layers = 0;
    for (const auto &[layer, ns] : layer_ns)
        layers += ns;
    const double run_ns = static_cast<double>(plain.run_ns);

    JsonOut out;
    out.add("workload.ops", tot.workload.calls);
    out.add("workload.ns_per_op", tot.workload.nsPerCall());

    out.add("core.ticks", r.core_tick.calls);
    out.add("core.ns_per_tick", r.core_tick.nsPerCall());
    out.add("core.load_stall_cycles", tot.load_stall_cycles);
    out.add("core.issue_retries", tot.issue_retries);

    // Counts include re-tried accesses (each retry is a real L1 and L2
    // lookup); the ratios are over first attempts only.
    const double first_l2 =
        static_cast<double>(tot.l2_accesses - tot.issue_retries);
    out.add("cache.l1_accesses", l1_accesses);
    out.add("cache.l1_hit_ratio", 1.0 - ratio(first_l2, tot.mem_ops));
    out.add("cache.l2_accesses", tot.l2_accesses);
    out.add("cache.l2_miss_ratio", ratio(tot.l2_misses, first_l2));
    out.add("cache.ns_per_access", r.cache.nsPerCall());
    out.add("cache.mshr_ops", tot.mshr_ops);
    out.add("cache.mshr_ns_per_op", r.mshr.nsPerCall());
    out.add("cache.mshr_full_retries", r.mshr_full_retries);

    out.add("prefetch.observes", tot.observes);
    out.add("prefetch.ns_per_observe", r.observe.nsPerCall());
    out.add("prefetch.candidates", tot.candidates);
    out.add("prefetch.issued", tot.issued);
    out.add("prefetch.no_room", tot.no_room);
    out.add("prefetch.accuracy", ratio(tot.useful, tot.issued));

    std::vector<std::uint64_t> waits = tot.read_waits;
    std::sort(waits.begin(), waits.end());
    double wait_pct = 0;
    const double wait_tail = tailPercentile(waits, &wait_pct);
    out.add("memctrl.ticks", tot.ctrl_ticks);
    out.add("memctrl.ns_per_tick", r.ctrl_tick.nsPerCall());
    out.add("memctrl.ns_per_enqueue", r.ctrl_enqueue.nsPerCall());
    out.add("memctrl.reads_serviced", tot.reads);
    out.add("memctrl.writes_serviced", tot.writes);
    out.add("memctrl.read_queue_depth_mean",
            ratio(tot.occupancy_sum, tot.dram_cycles));
    // A percentile is reported only with ten samples beyond it.
    out.add("memctrl.read_wait_cycles_p50",
            wait_pct >= 50 ? nearestRank(waits, 50) : 0);
    out.add("memctrl.read_wait_cycles_p99",
            wait_pct >= 99 ? nearestRank(waits, 99) : 0);
    out.add("memctrl.read_wait_cycles_tail", wait_tail);
    out.add("memctrl.read_wait_cycles_tail_pct", wait_pct);
    out.add("memctrl.read_wait_samples", tot.read_waits.size());
    out.add("memctrl.prefetches_dropped", tot.dropped);
    out.add("memctrl.drop_ratio", ratio(tot.dropped, tot.prefetch_enqueues));
    out.add("memctrl.promotions", tot.promotions);
    out.add("memctrl.rejected_full", tot.rejected_full);

    out.add("dram.commands", tot.commands);
    out.add("dram.activates", tot.activates);
    out.add("dram.row_hit_ratio", ratio(tot.row_hits, tot.row_outcomes));
    out.add("dram.bus_util", ratio(tot.bus_busy, tot.bus_cycles));
    out.add("dram.ns_per_legality_check", r.legality.nsPerCall());
    out.add("dram.replay_illegal", r.illegal);

    out.add("sim.runs", tot.runs);
    out.add("sim.alone_runs", tot.alone_runs);
    out.add("sim.simulated_cycles", tot.cycles);
    out.add("sim.landed_cycles", landed);
    out.add("sim.skipped_cycles", tot.skipped);
    out.add("sim.skip_ratio", ratio(tot.skipped, tot.cycles));
    out.add("sim.event_jumps", tot.jumps);
    out.add("sim.instructions", tot.instructions);
    out.add("sim.run_ns_per_landed_cycle", ratio(run_ns, landed));
    out.add("sim.jump_bound_ns_per_landed_cycle",
            ratio(layer_ns[7].second, landed));
    out.add("sim.skip_replay_ns_per_jump",
            ratio(layer_ns[8].second, tot.jumps));
    for (const auto &[layer, ns] : layer_ns)
        out.add(layer, ns / 1e6);
    out.add("sim.layers_ns", layers);
    out.add("sim.run_ns", run_ns);
    out.add("sim.glue_ns_per_landed_cycle", ratio(run_ns - layers, landed));
    out.add("sim.construct_ms", tot.construct_ns / 1e6 / tot.runs);
    out.add("sim.not_converged", tot.not_converged);
    out.add("sim.trace_events_dropped", tot.trace_dropped);
    out.add("trace.timer_ns", g_timer_ns);
    out.add("trace.traced_run_ns", tot.run_ns);
    out.add("trace.overhead_ratio",
            ratio(static_cast<double>(tot.run_ns) - plain.run_ns,
                  plain.run_ns));
    out.add("trace.cycles_match", plain.cycles == tot.cycles &&
                                          plain.instructions ==
                                              tot.instructions
                                      ? 1
                                      : 0);

    out.add("journal.appends", h.journal_append.calls);
    out.add("journal.ns_per_append", h.journal_append.nsPerCall());
    out.add("journal.replayed", h.journal_replayed);
    out.add("journal.load_ms", h.journal_load_ms);
    out.add("wire.frames", h.frames);
    out.add("wire.bytes", h.bytes);
    out.add("wire.ns_per_encode", h.encode.nsPerCall());
    out.add("wire.ns_per_decode", h.decode.nsPerCall());
    out.add("exp.bench_json_ms", h.bench_json_ms);
    out.add("exp.bench_bytes", h.bench_bytes);
    out.print();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3 || (std::string(argv[1]) == "trace" && argc < 4)) {
        std::fprintf(stderr,
                     "usage: perfbench_layers count <workload>\n"
                     "       perfbench_layers keys <workload>\n"
                     "       perfbench_layers trace <workload> <dir>\n");
        return 2;
    }
    try {
        const std::string mode = argv[1];
        calibrateTimer();
        const Workload w = buildWorkload(argv[2]);
        if (mode == "count")
            return countMode(w);
        if (mode == "keys")
            return keysMode(w);
        if (mode == "trace")
            return traceMode(argv[2], w, argv[3]);
        std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_layers: %s\n", e.what());
        return 1;
    }
}
