/**
 * @file
 * FleetMonitor: the single observer the sweep executors notify
 * (DESIGN.md section 14). It fans each notification out to the two
 * observability surfaces — the events.jsonl structured log, and the
 * periodically atomic-renamed status.json + stderr --progress line.
 *
 * Wiring follows the notePointCompleted() precedent (sim/interrupt.hh):
 * a process-global nullable pointer, installed by the driver when
 * --progress is given and left null otherwise, so the sim layer needs
 * no dependency injection and default runs pay one predicted-null
 * branch per event. All methods take plain types (indices, pids,
 * strings) — the sim layer does not leak into obs.
 *
 * Thread-safety: every public method locks an internal mutex (the
 * in-thread sweep calls from worker threads; the pool supervisor is
 * single-threaded but shares the same code path).
 */

#ifndef PADC_OBS_MONITOR_HH
#define PADC_OBS_MONITOR_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "obs/events.hh"
#include "obs/status.hh"

namespace padc::obs
{

struct MonitorConfig
{
    std::string events_path; ///< empty = no event log
    std::string status_path; ///< empty = no status.json
    bool progress = false;   ///< stderr progress line
    std::uint64_t status_interval_ms = 200;
    std::uint64_t progress_interval_ms = 250;
};

class FleetMonitor
{
  public:
    explicit FleetMonitor(MonitorConfig config);

    FleetMonitor(const FleetMonitor &) = delete;
    FleetMonitor &operator=(const FleetMonitor &) = delete;

    ~FleetMonitor();

    /**
     * A sweep of @p total points begins for @p experiment; @p journaled
     * is the number of entries loaded from a resume journal (> 0 emits
     * "sweep_resume" instead of "sweep_start").
     */
    void sweepStarted(const std::string &experiment, std::uint64_t total,
                      std::uint64_t journaled);

    /** The sweep returned (cleanly or after an interrupt drain). */
    void sweepFinished(bool interrupted);

    /** Point @p index handed to a worker (pool path only). */
    void pointDispatched(std::uint64_t index, std::size_t slot,
                         std::int64_t pid);

    /**
     * Point @p index reached a final outcome. @p attempts == 0 means it
     * was satisfied from the resume journal (replayed) — or, when
     * @p detail is "interrupted", never ran; both are excluded from the
     * rate estimator so resumes do not inflate the ETA. @p slot >= 0
     * credits the pool worker slot that produced the result.
     */
    void pointFinished(std::uint64_t index, const std::string &status,
                       std::uint32_t attempts, const std::string &detail,
                       std::int64_t slot = -1, std::int64_t pid = -1);

    /** Point @p index will be retried after a worker death. */
    void pointRetried(std::uint64_t index, std::uint32_t attempt,
                      std::int64_t pid, const std::string &fate);

    /** Point @p index exhausted its attempts and is quarantined. */
    void pointQuarantined(std::uint64_t index, std::int64_t pid,
                          const std::string &fate);

    /** Worker lifecycle (pool path). */
    void workerSpawned(std::size_t slot, std::int64_t pid);
    void workerExited(std::size_t slot, std::int64_t pid,
                      const std::string &fate);
    void workerTimedOut(std::size_t slot, std::int64_t pid,
                        std::int64_t index);

    /** SIGINT/SIGTERM received; the pool is draining in-flight work. */
    void interruptDrain();

    /** Current status snapshot (what status.json would contain). */
    SweepStatus snapshot() const;

    const MonitorConfig &config() const { return config_; }

  private:
    void emitEvent(const std::string &type, std::int64_t point,
                   std::int64_t worker, std::uint64_t attempt,
                   const std::string &detail);
    SweepStatus buildStatus(std::uint64_t now_ms) const;
    /** Refresh status.json + progress line; callers hold mutex_. */
    void publish(bool force);
    WorkerStatus &slotRef(std::size_t slot);

    MonitorConfig config_;
    std::unique_ptr<EventLog> events_;

    mutable std::mutex mutex_;
    SweepStatus live_; ///< counters; workers grows as slots appear
    RateEstimator rate_;
    std::uint64_t sweep_start_ms_ = 0;
    std::uint64_t last_status_ms_ = 0;
    std::uint64_t last_progress_ms_ = 0;
    bool stderr_tty_ = false;
    bool progress_line_open_ = false; ///< tty: \r-rewritten line active
};

/** The installed monitor, or nullptr when observability is off. */
FleetMonitor *activeMonitor();

/** Install (or clear with nullptr) the process-global monitor. */
void setActiveMonitor(FleetMonitor *monitor);

} // namespace padc::obs

#endif // PADC_OBS_MONITOR_HH
