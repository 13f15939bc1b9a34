#include "memctrl/controller.hh"

#include <algorithm>
#include <cassert>

namespace padc::memctrl
{

MemoryController::MemoryController(const SchedulerConfig &config,
                                   dram::Channel &channel,
                                   AccuracyTracker &tracker,
                                   ResponseHandler &handler,
                                   std::uint32_t num_cores)
    : config_(config), channel_(channel), tracker_(tracker),
      handler_(handler), num_cores_(num_cores),
      context_(config_, tracker_), apd_(config_, tracker_),
      pool_(config_.request_buffer_size),
      read_index_(config_.request_buffer_size + 1)
{
    assert(num_cores_ <= kMaxCores);
    assert(channel_.numBanks() <= 64); // occupied_banks_ is one word
    shards_.resize(channel_.numBanks());
    for (auto &shard : shards_)
        shard.pref_by_core.assign(num_cores_, 0);
}

// --- incremental bookkeeping ------------------------------------------

void
MemoryController::trackEnqueued(std::uint32_t slot)
{
    Request &req = pool_.at(slot);
    assert(req.core < num_cores_);
    BankShard &shard = shards_[req.coord.bank];
    ShardSummary &summary = shard.summary;
    const bool was_preferred =
        !summary.dirty && shardHasPreferred(shard, summary.accurate_mask);
    req.bank_slot = static_cast<std::uint32_t>(shard.queued.size());
    shard.queued.push_back(slot);
    switch (req.cls) {
      case RequestClass::Prefetch:
        if (shard.pref_by_core[req.core]++ == 0)
            shard.pref_core_mask |= 1ULL << req.core;
        ++prefs_per_core_[req.core];
        break;
      case RequestClass::DemandRead:
        ++shard.queued_demands;
        ++demands_per_core_[req.core];
        break;
      case RequestClass::Writeback:
      case RequestClass::PtwRead:
      case RequestClass::DramCacheFill:
        // Reserved classes have no read-path producer yet; when one
        // lands it must pick (or add) shard counters here.
        assert(false && "unsupported class in the read buffer");
        break;
    }
    // A clean summary absorbs the arrival in O(1) unless the arrival
    // flips the bank's has-preferred state, which re-decides whether
    // every other queued read is class-blocked.
    if (!summary.dirty) {
        const bool has_preferred =
            shardHasPreferred(shard, summary.accurate_mask);
        if (has_preferred == was_preferred)
            foldIntoSummary(summary, slot, has_preferred);
        else
            summary.dirty = true;
    }
    shard.wake = 0; // new arrival: rescan this bank
    occupied_banks_ |= 1ULL << req.coord.bank;
}

void
MemoryController::untrackQueued(Request &req)
{
    assert(req.state == RequestState::Queued);
    BankShard &shard = shards_[req.coord.bank];
    const std::uint32_t moved = shard.queued.back();
    shard.queued[req.bank_slot] = moved;
    pool_.at(moved).bank_slot = req.bank_slot;
    shard.queued.pop_back();
    shard.summary.dirty = true;
    if (shard.queued.empty())
        occupied_banks_ &= ~(1ULL << req.coord.bank);
    switch (req.cls) {
      case RequestClass::Prefetch:
        if (--shard.pref_by_core[req.core] == 0)
            shard.pref_core_mask &= ~(1ULL << req.core);
        break;
      case RequestClass::DemandRead:
        --shard.queued_demands;
        break;
      case RequestClass::Writeback:
      case RequestClass::PtwRead:
      case RequestClass::DramCacheFill:
        assert(false && "unsupported class in the read buffer");
        break;
    }
}

void
MemoryController::trackPromoted(Request &req)
{
    assert(req.isPrefetch());
    --prefs_per_core_[req.core];
    ++demands_per_core_[req.core];
    if (req.state == RequestState::Queued) {
        BankShard &shard = shards_[req.coord.bank];
        if (--shard.pref_by_core[req.core] == 0)
            shard.pref_core_mask &= ~(1ULL << req.core);
        ++shard.queued_demands;
        shard.summary.dirty = true; // the read's class and key changed
    }
}

std::uint64_t
MemoryController::accurateCoreMask() const
{
    // Without an accuracy-dependent lattice or ranking no scheduling
    // input reads the mask; a constant 0 keeps shard summaries valid
    // across accuracy updates.
    if (!context_.latticeAccuracyDependent() && !config_.ranking_enabled)
        return 0;
    std::uint64_t mask = 0;
    for (std::uint32_t c = 0; c < num_cores_; ++c) {
        if (context_.coreAccurate(c))
            mask |= 1ULL << c;
    }
    return mask;
}

bool
MemoryController::shardHasPreferred(const BankShard &shard,
                                    std::uint64_t accurate_mask) const
{
    return context_.shardHasPreferred(shard.queued_demands,
                                      shard.pref_core_mask, accurate_mask);
}

void
MemoryController::foldIntoSummary(ShardSummary &summary,
                                  std::uint32_t slot,
                                  bool has_preferred) const
{
    const bool hit = pool_.rowOf(slot) == summary.row;
    (hit ? summary.any_hit : summary.any_miss) = true;
    const RequestClass cls = pool_.classOf(slot);
    const CoreId core = pool_.coreOf(slot);
    const bool accurate = ((summary.accurate_mask >> core) & 1) != 0;
    if (has_preferred && context_.latticeLevelAt(cls, accurate) == 0)
        return; // class-blocked: wants a command but is no candidate
    const std::uint64_t key = context_.priorityKeyAt(
        cls, core, pool_.seqOf(slot), hit, accurate);
    std::uint32_t &best_slot = hit ? summary.hit_slot : summary.miss_slot;
    std::uint64_t &best_key = hit ? summary.hit_key : summary.miss_key;
    if (best_slot == RequestPool::kNone || key > best_key) {
        best_slot = slot;
        best_key = key;
    }
}

const MemoryController::ShardSummary &
MemoryController::summaryOf(const BankShard &shard, std::uint64_t open,
                            std::uint64_t accurate_mask) const
{
    ShardSummary &summary = shard.summary;
    // Refresh and closed-row auto-precharge close banks without touching
    // the shard; comparing the open row catches them (and every PRE/ACT)
    // with no hook of their own.
    if (!summary.dirty && summary.row == open &&
        summary.accurate_mask == accurate_mask)
        return summary;
    summary = ShardSummary{};
    summary.dirty = false;
    summary.row = open;
    summary.accurate_mask = accurate_mask;
    const bool has_preferred = shardHasPreferred(shard, accurate_mask);
    for (const std::uint32_t slot : shard.queued)
        foldIntoSummary(summary, slot, has_preferred);
    return summary;
}

const MemoryController::WriteSummary &
MemoryController::writeSummaryOf(const BankShard &shard,
                                 std::uint64_t open) const
{
    WriteSummary &summary = shard.write_summary;
    if (!summary.dirty && summary.row == open)
        return summary;
    summary = WriteSummary{};
    summary.dirty = false;
    summary.row = open;
    for (const std::uint32_t slot : shard.writes)
        foldWrite(summary, slot);
    return summary;
}

void
MemoryController::foldWrite(WriteSummary &summary, std::uint32_t slot) const
{
    const Request &w = write_arena_[slot];
    const bool hit = w.coord.row == summary.row;
    std::uint32_t &best_slot = hit ? summary.hit_slot : summary.miss_slot;
    std::uint64_t &best_seq = hit ? summary.hit_seq : summary.miss_seq;
    if (best_slot == RequestPool::kNone || w.seq < best_seq) {
        best_slot = slot;
        best_seq = w.seq;
    }
}

Cycle
MemoryController::bankLocalReady(std::uint32_t bank, NextCmd cmd) const
{
    switch (cmd) {
      case NextCmd::Precharge:
        return channel_.bankReadyPrecharge(bank);
      case NextCmd::Activate:
        return channel_.bankReadyActivate(bank);
      case NextCmd::Column:
        return channel_.bankReadyColumn(bank);
      case NextCmd::None:
        break;
    }
    return kNeverCycle;
}

// --- queue admission --------------------------------------------------

bool
MemoryController::enqueueRead(const dram::DramCoord &coord, Addr line_addr,
                              CoreId core, Addr pc, RequestClass cls,
                              Cycle now)
{
    assert(cls == RequestClass::DemandRead ||
           cls == RequestClass::Prefetch);
    const bool is_prefetch = cls == RequestClass::Prefetch;
    // Duplicate of an outstanding read: coalesce with it instead of
    // corrupting read_index_ (formerly an assert, i.e. silent corruption
    // in NDEBUG builds). A demand duplicate promotes the in-flight
    // prefetch, mirroring what the L2 does on a demand match. The
    // speculative tryEmplace doubles as the admission insert, so the
    // hot paths (coalesce, fresh enqueue) pay a single probe; the rare
    // forward/reject exits below undo it.
    const auto [index_value, inserted] = read_index_.tryEmplace(line_addr, 0);
    if (!inserted) {
        const Request &existing = pool_.at(*index_value);
        ++stats_.duplicate_reads;
        traceRequest(telemetry::EventKind::Coalesce, existing, now);
        if (cls == RequestClass::DemandRead && existing.isPrefetch())
            promote(line_addr, now);
        return true;
    }

    // Forward from the write queue: the newest data for this line is
    // sitting in the controller, so no DRAM access is needed. The common
    // empty-queue case skips the probe.
    if (!write_index_.empty() && write_index_.contains(line_addr)) {
        read_index_.erase(line_addr);
        Request req;
        req.line_addr = line_addr;
        req.coord = coord;
        req.core = core;
        req.pc = pc;
        req.cls = cls;
        req.was_prefetch = is_prefetch;
        req.arrival = now;
        req.seq = next_seq_++;
        req.state = RequestState::Done;
        req.row_outcome = Request::RowOutcome::Hit;
        const Cycle ready =
            now + channel_.timing().toCpu(channel_.timing().tCL);
        forwards_.push_back({req, ready});
        ++stats_.forwarded_reads;
        traceRequest(telemetry::EventKind::Forward, req, now);
        if (is_prefetch)
            tracker_.onPrefetchSent(core);
        return true;
    }

    if (readBufferFull()) {
        read_index_.erase(line_addr);
        if (is_prefetch)
            ++stats_.prefetches_rejected_full;
        else
            ++stats_.demands_rejected_full;
        if (trace_ != nullptr) {
            Request rejected;
            rejected.line_addr = line_addr;
            rejected.coord = coord;
            rejected.core = core;
            rejected.cls = cls;
            rejected.was_prefetch = is_prefetch;
            traceRequest(telemetry::EventKind::RejectFull, rejected, now);
        }
        return false;
    }

    Request req;
    req.line_addr = line_addr;
    req.coord = coord;
    req.core = core;
    req.pc = pc;
    req.cls = cls;
    req.was_prefetch = is_prefetch;
    req.arrival = now;
    req.seq = next_seq_++;
    const std::uint32_t slot = pool_.allocate();
    pool_.at(slot) = req; // full overwrite: recycled slots hold stale data
    pool_.syncHot(slot);
    *index_value = slot; // no index insert or erase since tryEmplace
    trackEnqueued(slot);
    traceRequest(telemetry::EventKind::Enqueue, pool_.at(slot), now);
    if (is_prefetch)
        tracker_.onPrefetchSent(core);
    return true;
}

void
MemoryController::enqueueWrite(const dram::DramCoord &coord, Addr line_addr,
                               CoreId core, Cycle now)
{
    const auto [index_value, inserted] =
        write_index_.tryEmplace(line_addr, 0);
    if (!inserted)
        return; // coalesce with the pending write of the same line

    std::uint32_t slot;
    if (!write_free_.empty()) {
        slot = write_free_.back();
        write_free_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(write_arena_.size());
        write_arena_.emplace_back();
    }
    *index_value = slot;

    BankShard &shard = shards_[coord.bank];
    Request &req = write_arena_[slot];
    req = Request{}; // full overwrite: recycled slots hold stale data
    req.line_addr = line_addr;
    req.coord = coord;
    req.core = core;
    req.cls = RequestClass::Writeback;
    req.arrival = now;
    req.seq = next_seq_++;
    req.bank_slot = static_cast<std::uint32_t>(shard.writes.size());
    shard.writes.push_back(slot);
    write_banks_ |= 1ULL << coord.bank;
    // A clean summary absorbs the arrival in O(1): the newcomer has the
    // largest seq of all, so it becomes the best write of its kind (row
    // hit or miss against the row the summary was built under) only
    // when the bank had none of that kind.
    if (!shard.write_summary.dirty)
        foldWrite(shard.write_summary, slot);
    traceRequest(telemetry::EventKind::EnqueueWrite, req, now);
}

bool
MemoryController::promote(Addr line_addr, Cycle now)
{
    const std::uint32_t slot = read_index_.find(line_addr);
    if (slot == FlatAddrMap::kMissing)
        return false;
    Request &req = pool_.at(slot);
    if (!req.isPrefetch())
        return false;
    trackPromoted(req);
    req.cls = RequestClass::DemandRead;
    pool_.syncHot(slot); // the class column feeds the scheduler
    ++stats_.promotions;
    traceRequest(telemetry::EventKind::Promote, req, now);
    return true;
}

// --- command selection ------------------------------------------------

MemoryController::NextCmd
MemoryController::nextCommand(const Request &req, bool *row_hit) const
{
    const std::uint64_t open = channel_.openRow(req.coord.bank);
    if (open == req.coord.row) {
        *row_hit = true;
        return NextCmd::Column;
    }
    *row_hit = false;
    return open == dram::kNoOpenRow ? NextCmd::Activate : NextCmd::Precharge;
}

bool
MemoryController::commandIssuable(const Request &req, NextCmd cmd,
                                  Cycle now) const
{
    switch (cmd) {
      case NextCmd::Precharge:
        return channel_.canPrecharge(req.coord.bank, now);
      case NextCmd::Activate:
        return channel_.canActivate(req.coord.bank, now);
      case NextCmd::Column:
        return channel_.canColumn(req.coord.bank, req.isWrite(), now);
      case NextCmd::None:
        break;
    }
    return false;
}

bool
MemoryController::pendingSameRow(const Request &req) const
{
    const auto same_row = [&req](const Request &other) {
        return &other != &req && other.coord.bank == req.coord.bank &&
               other.coord.row == req.coord.row;
    };
    if (config_.reference_scheduler) {
        // Golden model: naive walks of the read queue and the whole
        // write arena, independent of the shards.
        for (std::uint32_t slot = pool_.head(); slot != RequestPool::kNone;
             slot = pool_.next(slot)) {
            const Request &other = pool_.at(slot);
            if (other.state == RequestState::Queued && same_row(other))
                return true;
        }
        return std::any_of(write_arena_.begin(), write_arena_.end(),
                           [&same_row](const Request &other) {
                               return other.state == RequestState::Queued &&
                                      same_row(other);
                           });
    }
    // The bank's shard holds exactly its queued reads and writes (req
    // too).
    const BankShard &shard = shards_[req.coord.bank];
    for (const std::uint32_t slot : shard.queued) {
        if (same_row(pool_.at(slot)))
            return true;
    }
    for (const std::uint32_t slot : shard.writes) {
        if (same_row(write_arena_[slot]))
            return true;
    }
    return false;
}

void
MemoryController::issueCommand(std::uint32_t slot, bool is_write,
                               NextCmd cmd, bool row_hit, Cycle now)
{
    Request &req = is_write ? write_arena_[slot] : pool_.at(slot);
    if (issue_log_ != nullptr) {
        issue_log_->push_back({now, static_cast<std::uint8_t>(cmd),
                               req.isWrite(), req.coord.bank, req.coord.row,
                               req.seq});
    }
    switch (cmd) {
      case NextCmd::Precharge:
        channel_.precharge(req.coord.bank, now);
        req.row_outcome = Request::RowOutcome::Conflict;
        break;
      case NextCmd::Activate:
        channel_.activate(req.coord.bank, req.coord.row, now);
        if (req.row_outcome == Request::RowOutcome::Unknown)
            req.row_outcome = Request::RowOutcome::Closed;
        break;
      case NextCmd::Column: {
        const bool auto_pre = config_.row_policy == RowPolicy::Closed &&
                              !pendingSameRow(req);
        req.data_ready =
            channel_.column(req.coord.bank, is_write, auto_pre, now);
        if (req.row_outcome == Request::RowOutcome::Unknown) {
            req.row_outcome = row_hit ? Request::RowOutcome::Hit
                                      : Request::RowOutcome::Conflict;
        }
        if (!is_write) {
            // Queued -> Servicing: the read leaves its bank shard and
            // joins the (seq-sorted) in-flight set.
            untrackQueued(req);
            servicing_.insert(
                std::lower_bound(servicing_.begin(), servicing_.end(), slot,
                                 [this](std::uint32_t a, std::uint32_t b) {
                                     return pool_.seqOf(a) < pool_.seqOf(b);
                                 }),
                slot);
            servicing_min_ready_ =
                std::min(servicing_min_ready_, req.data_ready);
        }
        req.state = RequestState::Servicing;
        break;
      }
      case NextCmd::None:
        break;
    }
    if (trace_ != nullptr && cmd != NextCmd::None) {
        telemetry::EventKind kind = req.isWrite()
                                        ? telemetry::EventKind::CmdWrite
                                        : telemetry::EventKind::CmdRead;
        switch (cmd) {
          case NextCmd::Precharge:
            kind = telemetry::EventKind::CmdPrecharge;
            break;
          case NextCmd::Activate:
            kind = telemetry::EventKind::CmdActivate;
            break;
          case NextCmd::Column:
          case NextCmd::None:
            break;
        }
        traceRequest(kind, req, now);
    }
    // The command changed this bank's state (open row and/or readiness),
    // so its cached wake-up hint is stale.
    shards_[req.coord.bank].wake = 0;
}

void
MemoryController::finishRead(std::uint32_t slot, Cycle now)
{
    Request &req = pool_.at(slot);
    req.state = RequestState::Done;

    ++stats_.serviced_by_class[static_cast<std::size_t>(req.cls)];
    if (req.isDemand()) {
        ++stats_.demand_reads;
        if (req.row_outcome == Request::RowOutcome::Hit)
            ++stats_.demand_row_hits;
    } else {
        ++stats_.prefetch_reads;
    }
    switch (req.row_outcome) {
      case Request::RowOutcome::Hit: ++stats_.read_row_hits; break;
      case Request::RowOutcome::Closed: ++stats_.read_row_closed; break;
      case Request::RowOutcome::Conflict:
        ++stats_.read_row_conflicts;
        break;
      case Request::RowOutcome::Unknown: break;
    }
    stats_.read_service_cycles_sum += now - req.arrival;
    traceRequest(telemetry::EventKind::Complete, req, now, req.arrival);

    if (req.isPrefetch())
        --prefs_per_core_[req.core];
    else
        --demands_per_core_[req.core];

    handler_.dramReadComplete(req, now);
    read_index_.erase(req.line_addr);
    pool_.release(slot);
}

void
MemoryController::completeFinished(Cycle now)
{
    bool removed = false;
    if (config_.reference_scheduler) {
        // Golden model: front-to-back (enqueue-order) walk.
        for (std::uint32_t slot = pool_.head();
             slot != RequestPool::kNone;) {
            const std::uint32_t next = pool_.next(slot);
            const Request &req = pool_.at(slot);
            if (req.state == RequestState::Servicing &&
                req.data_ready <= now) {
                servicing_.erase(std::find(servicing_.begin(),
                                           servicing_.end(), slot));
                finishRead(slot, now);
                removed = true;
            }
            slot = next;
        }
    } else if (servicing_min_ready_ <= now) {
        // servicing_ is seq-sorted, so same-cycle completions are
        // reported in queue (seq) order, exactly like the queue walk.
        for (std::size_t i = 0; i < servicing_.size();) {
            const std::uint32_t slot = servicing_[i];
            if (pool_.at(slot).data_ready <= now) {
                servicing_.erase(servicing_.begin() +
                                 static_cast<std::ptrdiff_t>(i));
                finishRead(slot, now);
                removed = true;
            } else {
                ++i;
            }
        }
    }
    if (removed) {
        servicing_min_ready_ = kNeverCycle;
        for (const std::uint32_t slot : servicing_) {
            servicing_min_ready_ =
                std::min(servicing_min_ready_, pool_.at(slot).data_ready);
        }
    }
    for (auto it = forwards_.begin(); it != forwards_.end();) {
        if (it->ready <= now) {
            traceRequest(telemetry::EventKind::Complete, it->req, now,
                         it->req.arrival);
            handler_.dramReadComplete(it->req, now);
            it = forwards_.erase(it);
        } else {
            ++it;
        }
    }
}

void
MemoryController::runApd(Cycle now)
{
    for (std::uint32_t slot = pool_.head(); slot != RequestPool::kNone;) {
        const std::uint32_t next = pool_.next(slot);
        Request &req = pool_.at(slot);
        if (apd_.shouldDrop(req, now)) {
            untrackQueued(req); // only Queued prefetches are droppable
            --prefs_per_core_[req.core];
            req.state = RequestState::Dropped;
            ++stats_.prefetches_dropped;
            traceRequest(telemetry::EventKind::Drop, req, now, req.arrival);
            tracker_.onPrefetchDropped(req.core);
            handler_.dramPrefetchDropped(req, now);
            read_index_.erase(req.line_addr);
            pool_.release(slot);
        }
        slot = next;
    }
}

// --- scheduling -------------------------------------------------------

bool
MemoryController::scheduleRead(Cycle now)
{
    if (config_.reference_scheduler)
        return scheduleReadReference(now);

    const std::uint64_t accurate_mask = accurateCoreMask();

    if (config_.ranking_enabled) {
        std::array<std::uint32_t, kMaxCores> counts{};
        for (std::uint32_t c = 0; c < num_cores_; ++c) {
            counts[c] = demands_per_core_[c];
            if ((accurate_mask >> c) & 1)
                counts[c] += prefs_per_core_[c];
        }
        if (context_.updateRanks(counts, num_cores_)) {
            // Cached keys embed their core's old rank.
            for (BankShard &shard : shards_)
                shard.summary.dirty = true;
        }
    }

    std::uint32_t best_slot = RequestPool::kNone;
    std::uint64_t best_key = 0;
    NextCmd best_cmd = NextCmd::None;

    const Cycle retry = now + channel_.timing().cpu_per_dram_cycle;
    for (std::uint64_t mask = occupied_banks_; mask != 0; mask &= mask - 1) {
        const auto b = static_cast<std::uint32_t>(__builtin_ctzll(mask));
        BankShard &shard = shards_[b];
        if (now < shard.wake)
            continue;

        // Every queued read to this bank wants its row-hit command
        // (Column) or its row-miss command (Precharge, or Activate when
        // the bank is closed), and legality does not depend on which
        // read wants it. With the best unblocked read per command cached
        // in the summary, a bank costs at most two legality checks and
        // two key compares.
        const std::uint64_t open = channel_.openRow(b);
        const ShardSummary &summary = summaryOf(shard, open, accurate_mask);
        const NextCmd miss_cmd = open == dram::kNoOpenRow
                                     ? NextCmd::Activate
                                     : NextCmd::Precharge;
        const bool hit_ok = summary.hit_slot != RequestPool::kNone &&
                            channel_.canColumn(b, false, now);
        const bool miss_ok =
            summary.miss_slot != RequestPool::kNone &&
            (miss_cmd == NextCmd::Activate ? channel_.canActivate(b, now)
                                           : channel_.canPrecharge(b, now));
        if (hit_ok && (best_slot == RequestPool::kNone ||
                       summary.hit_key > best_key)) {
            best_slot = summary.hit_slot;
            best_key = summary.hit_key;
            best_cmd = NextCmd::Column;
        }
        if (miss_ok && (best_slot == RequestPool::kNone ||
                        summary.miss_key > best_key)) {
            best_slot = summary.miss_slot;
            best_key = summary.miss_key;
            best_cmd = miss_cmd;
        }
        if (hit_ok || miss_ok) {
            // An issuable-but-not-chosen read must be reconsidered next
            // cycle.
            shard.wake = now;
            continue;
        }
        // Nothing issuable: sleep until the earliest bank-local readiness
        // of a command some queued read wants. A read that is bank-ready
        // but held back (class blocking or a channel-global constraint)
        // forces a retry next DRAM cycle, since that blocking state can
        // change with any issued command.
        Cycle wake = kNeverCycle;
        const auto fold_wake = [&](NextCmd cmd) {
            const Cycle local = bankLocalReady(b, cmd);
            wake = std::min(wake, local <= now ? retry : local);
        };
        if (summary.any_hit)
            fold_wake(NextCmd::Column);
        if (summary.any_miss)
            fold_wake(miss_cmd);
        shard.wake = wake;
    }
    if (best_slot == RequestPool::kNone)
        return false;
    issueCommand(best_slot, false, best_cmd, best_cmd == NextCmd::Column,
                 now);
    return true;
}

bool
MemoryController::scheduleReadReference(Cycle now)
{
    if (config_.ranking_enabled) {
        std::array<std::uint32_t, kMaxCores> counts{};
        for (std::uint32_t slot = pool_.head(); slot != RequestPool::kNone;
             slot = pool_.next(slot)) {
            const Request &req = pool_.at(slot);
            if (req.core < kMaxCores && context_.isCritical(req))
                ++counts[req.core];
        }
        context_.updateRanks(counts, num_cores_);
    }

    // Strict per-bank class blocking (paper Section 1): a deprioritized
    // request (e.g. a prefetch under demand-first, or a non-critical
    // prefetch under APS) may not be scheduled to a bank while a
    // preferred-class request to the same bank is outstanding -- even if
    // the preferred request is not timing-ready this cycle.
    std::vector<std::uint8_t> bank_has_preferred(channel_.numBanks(), 0);
    for (std::uint32_t slot = pool_.head(); slot != RequestPool::kNone;
         slot = pool_.next(slot)) {
        const Request &req = pool_.at(slot);
        if (req.state == RequestState::Queued &&
            context_.latticeLevel(req.cls, req.core) != 0) {
            bank_has_preferred[req.coord.bank] = 1;
        }
    }

    std::uint32_t best = RequestPool::kNone;
    std::uint64_t best_key = 0;
    NextCmd best_cmd = NextCmd::None;
    bool best_hit = false;

    for (std::uint32_t slot = pool_.head(); slot != RequestPool::kNone;
         slot = pool_.next(slot)) {
        Request &req = pool_.at(slot);
        if (req.state != RequestState::Queued)
            continue;
        if (context_.latticeLevel(req.cls, req.core) == 0 &&
            bank_has_preferred[req.coord.bank]) {
            continue;
        }
        bool row_hit = false;
        const NextCmd cmd = nextCommand(req, &row_hit);
        if (!commandIssuable(req, cmd, now))
            continue;
        const std::uint64_t key = context_.priorityKey(req, row_hit);
        if (best == RequestPool::kNone || key > best_key) {
            best = slot;
            best_key = key;
            best_cmd = cmd;
            best_hit = row_hit;
        }
    }
    if (best == RequestPool::kNone)
        return false;
    issueCommand(best, false, best_cmd, best_hit, now);
    return true;
}

namespace
{

/** FR-FCFS write priority: row hits first, then the oldest. */
std::uint64_t
writeKey(bool row_hit, std::uint64_t seq)
{
    return ((row_hit ? 1ULL : 0ULL) << 63) | (~seq & 0x7FFFFFFFFFFFFFFF);
}

} // namespace

bool
MemoryController::scheduleWrite(Cycle now)
{
    // Writes are scheduled FR-FCFS among themselves (row-hit first,
    // then oldest); prefetch-awareness does not apply to writebacks.
    if (config_.reference_scheduler)
        return scheduleWriteReference(now);

    // A bank's only candidates are the two its summary caches, and its
    // row-hit write outranks its row-miss write (and every row miss
    // elsewhere), so the miss command needs checking only when the
    // column command is not issuable.
    std::uint32_t best_slot = RequestPool::kNone;
    std::uint64_t best_key = 0;
    NextCmd best_cmd = NextCmd::None;
    for (std::uint64_t mask = write_banks_; mask != 0; mask &= mask - 1) {
        const auto b = static_cast<std::uint32_t>(__builtin_ctzll(mask));
        const std::uint64_t open = channel_.openRow(b);
        const WriteSummary &summary = writeSummaryOf(shards_[b], open);
        std::uint32_t slot = RequestPool::kNone;
        std::uint64_t key = 0;
        NextCmd cmd = NextCmd::None;
        if (summary.hit_slot != RequestPool::kNone &&
            channel_.canColumn(b, true, now)) {
            slot = summary.hit_slot;
            key = writeKey(true, summary.hit_seq);
            cmd = NextCmd::Column;
        } else if (summary.miss_slot != RequestPool::kNone &&
                   (open == dram::kNoOpenRow
                        ? channel_.canActivate(b, now)
                        : channel_.canPrecharge(b, now))) {
            slot = summary.miss_slot;
            key = writeKey(false, summary.miss_seq);
            cmd = open == dram::kNoOpenRow ? NextCmd::Activate
                                           : NextCmd::Precharge;
        }
        if (slot != RequestPool::kNone &&
            (best_slot == RequestPool::kNone || key > best_key)) {
            best_slot = slot;
            best_key = key;
            best_cmd = cmd;
        }
    }
    if (best_slot == RequestPool::kNone)
        return false;
    issueWrite(best_slot, best_cmd, now);
    return true;
}

bool
MemoryController::scheduleWriteReference(Cycle now)
{
    // Golden model: every queued write's next command, checked one by
    // one, independent of the bank shards and their summaries.
    std::uint32_t best = RequestPool::kNone;
    std::uint64_t best_key = 0;
    NextCmd best_cmd = NextCmd::None;
    for (std::uint32_t slot = 0; slot < write_arena_.size(); ++slot) {
        const Request &w = write_arena_[slot];
        if (w.state != RequestState::Queued)
            continue;
        bool row_hit = false;
        const NextCmd cmd = nextCommand(w, &row_hit);
        if (!commandIssuable(w, cmd, now))
            continue;
        const std::uint64_t key = writeKey(row_hit, w.seq);
        if (best == RequestPool::kNone || key > best_key) {
            best = slot;
            best_key = key;
            best_cmd = cmd;
        }
    }
    if (best == RequestPool::kNone)
        return false;
    issueWrite(best, best_cmd, now);
    return true;
}

void
MemoryController::issueWrite(std::uint32_t slot, NextCmd cmd, Cycle now)
{
    issueCommand(slot, true, cmd, cmd == NextCmd::Column, now);
    Request &req = write_arena_[slot];
    if (req.state != RequestState::Servicing)
        return;
    // Nothing waits on a writeback; retire it at column issue.
    ++stats_.writes;
    ++stats_.serviced_by_class[static_cast<std::size_t>(
        RequestClass::Writeback)];
    traceRequest(telemetry::EventKind::WriteRetire, req, now, req.arrival);
    write_index_.erase(req.line_addr);
    BankShard &shard = shards_[req.coord.bank];
    const std::uint32_t moved = shard.writes.back();
    shard.writes[req.bank_slot] = moved;
    write_arena_[moved].bank_slot = req.bank_slot;
    shard.writes.pop_back();
    shard.write_summary.dirty = true;
    if (shard.writes.empty())
        write_banks_ &= ~(1ULL << req.coord.bank);
    req.state = RequestState::Done;
    write_free_.push_back(slot);
}

bool
MemoryController::nextDrainMode() const
{
    if (write_index_.size() >= config_.write_drain_high)
        return true;
    if (write_index_.size() <= config_.write_drain_low)
        return false;
    return write_drain_mode_;
}

void
MemoryController::tick(Cycle now)
{
    const Cycle period = channel_.timing().cpu_per_dram_cycle;
    if (now != next_dram_tick_) {
        if (now < next_dram_tick_)
            return; // between DRAM clock edges
        // Called past the expected edge without a skipTo(): re-align.
        next_dram_tick_ = (now + period - 1) / period * period;
        if (now != next_dram_tick_)
            return;
    }
    next_dram_tick_ = now + period;

    ++stats_.dram_cycles;
    stats_.read_queue_occupancy_sum += pool_.size();

    completeFinished(now);

    if (config_.apd_enabled && now >= next_apd_scan_) {
        runApd(now);
        next_apd_scan_ = now + config_.age_quantum;
    }

    if (channel_.refreshDue(now)) {
        if (channel_.commandBusFree(now))
            channel_.refresh(now);
        return;
    }

    write_drain_mode_ = nextDrainMode();
    if (write_drain_mode_) {
        if (!scheduleWrite(now))
            scheduleRead(now);
    } else {
        if (!scheduleRead(now) && pool_.empty())
            scheduleWrite(now);
    }
}

// --- event-driven skipping --------------------------------------------

Cycle
MemoryController::nextEventCycle(Cycle from) const
{
    const Cycle period = channel_.timing().cpu_per_dram_cycle;
    const Cycle next_tick = (from + period - 1) / period * period;
    // Memo for the skipTo() that follows a successful jump computation.
    nec_from_ = from;
    nec_next_tick_ = next_tick;
    // Track the earliest *raw* event cycle and align once at the end:
    // alignUp is monotonic, so it commutes with min and a single
    // division suffices (this function runs once per jump attempt).
    // raw <= next_tick is exactly alignUp(raw) == next_tick.
    Cycle raw = kNeverCycle;
    const auto fold = [&](Cycle c) {
        raw = std::min(raw, std::max(c, from));
    };

    // (c) In-flight data first -- O(1) and the most common bound on a
    // latency-bound workload: read completions and write forwards.
    if (!servicing_.empty())
        fold(servicing_min_ready_);
    for (const PendingForward &fwd : forwards_)
        fold(fwd.ready);
    if (raw <= next_tick)
        return next_tick;

    // (a) Queued reads: with the channel frozen inside a gap, the first
    // cycle a queued read can issue is exactly max(bank-local ready,
    // channel-global ready) for the one command class its bank's open-row
    // state dictates. The scheduler's cached wake hints are deliberately
    // conservative (they assume an issued command can unblock a bank one
    // DRAM cycle later) and would fragment a gap where nothing issues.
    // Class-blocked requests are excluded: accuracy estimates and ranks
    // only move on controller or core events, so a request blocked at
    // `from` stays blocked for the whole gap.
    if (occupied_banks_ != 0) {
        const std::uint64_t accurate_mask = accurateCoreMask();
        const Cycle col_global = channel_.readColumnGlobalReadyAt();
        const Cycle act_global = channel_.activateGlobalReadyAt();
        const Cycle pre_global = channel_.commandBusFreeAt();
        for (std::uint64_t mask = occupied_banks_; mask != 0;
             mask &= mask - 1) {
            const auto b = static_cast<std::uint32_t>(__builtin_ctzll(mask));
            // The summary holds a candidate for exactly the commands
            // some unblocked read wants.
            const std::uint64_t open = channel_.openRow(b);
            const ShardSummary &summary =
                summaryOf(shards_[b], open, accurate_mask);
            if (summary.hit_slot != RequestPool::kNone)
                fold(std::max(channel_.bankReadyColumn(b), col_global));
            if (summary.miss_slot != RequestPool::kNone) {
                fold(open == dram::kNoOpenRow
                         ? std::max(channel_.bankReadyActivate(b), act_global)
                         : std::max(channel_.bankReadyPrecharge(b),
                                    pre_global));
            }
            if (raw <= next_tick)
                return next_tick;
        }
    }

    // (b) Writes: a tick attempts the write path iff drain mode is on
    // (projected here with the gap-constant queue size, mirroring the
    // hysteresis update in tick()) or the read buffer is empty. A failed
    // scheduleWrite mutates nothing, so the event is not the attempt but
    // the first cycle some pending write's next command becomes legal --
    // and with the channel frozen inside the gap, that cycle is exactly
    // max(bank-local ready, channel-global ready) for each command some
    // write wants, which the write summaries name per bank.
    if (write_banks_ != 0 && (nextDrainMode() || pool_.empty())) {
        const Cycle col_global = channel_.writeColumnGlobalReadyAt();
        const Cycle act_global = channel_.activateGlobalReadyAt();
        const Cycle pre_global = channel_.commandBusFreeAt();
        for (std::uint64_t mask = write_banks_; mask != 0; mask &= mask - 1) {
            const auto b = static_cast<std::uint32_t>(__builtin_ctzll(mask));
            const std::uint64_t open = channel_.openRow(b);
            const WriteSummary &summary = writeSummaryOf(shards_[b], open);
            if (summary.hit_slot != RequestPool::kNone)
                fold(std::max(channel_.bankReadyColumn(b), col_global));
            if (summary.miss_slot != RequestPool::kNone) {
                fold(open == dram::kNoOpenRow
                         ? std::max(channel_.bankReadyActivate(b), act_global)
                         : std::max(channel_.bankReadyPrecharge(b),
                                    pre_global));
            }
            if (raw <= next_tick)
                return next_tick;
        }
    }

    // (d) Refresh fires at the first DRAM cycle at/after its deadline
    // with a free command bus; due-but-bus-busy ticks do nothing (they
    // return before the scheduling stage). The command bus state cannot
    // change inside a gap (no commands issue), so this bound is exact.
    if (channel_.refreshEnabled()) {
        fold(std::max(channel_.nextRefreshDue(),
                      channel_.commandBusFreeAt()));
        if (raw <= next_tick)
            return next_tick;
    }

    // (e) APD: a drop needs an APD scan at/after the request's drop
    // deadline. Any aligned scan cycle earlier than
    // alignUp(max(next_apd_scan_, min_deadline)) is earlier than the
    // minimum deadline, so no drop can precede the folded cycle. The
    // O(queue) deadline refinement only runs when the bare scan
    // schedule would otherwise bound the jump.
    if (config_.apd_enabled) {
        bool any_pref = false;
        for (std::uint64_t mask = occupied_banks_; mask != 0;
             mask &= mask - 1) {
            const auto b = static_cast<std::uint32_t>(__builtin_ctzll(mask));
            if (shards_[b].pref_core_mask != 0) {
                any_pref = true;
                break;
            }
        }
        if (any_pref) {
            const Cycle scan_base = std::max(next_apd_scan_, from);
            const Cycle bare_scan =
                (scan_base + period - 1) / period * period;
            if (bare_scan < raw) {
                Cycle min_deadline = kNeverCycle;
                for (std::uint32_t slot = pool_.head();
                     slot != RequestPool::kNone; slot = pool_.next(slot)) {
                    const Request &req = pool_.at(slot);
                    if (req.isPrefetch() &&
                        req.state == RequestState::Queued) {
                        min_deadline =
                            std::min(min_deadline, apd_.dropDeadline(req));
                    }
                }
                if (min_deadline != kNeverCycle)
                    fold(std::max(next_apd_scan_, min_deadline));
            }
        }
    }

    if (raw == kNeverCycle)
        return kNeverCycle;
    return (raw + period - 1) / period * period;
}

void
MemoryController::skipTo(Cycle from, Cycle to)
{
    const Cycle period = channel_.timing().cpu_per_dram_cycle;
    // The jump path always calls nextEventCycle(from) immediately before
    // skipTo(from, to); reuse its alignUp(from) memo when it matches.
    const Cycle first = from == nec_from_
                            ? nec_next_tick_
                            : (from + period - 1) / period * period;
    if (first >= to) {
        next_dram_tick_ = first;
        return; // the gap contains no DRAM cycle
    }
    const std::uint64_t ticks = (to - 1 - first) / period + 1;
    next_dram_tick_ = first + ticks * period;
    // Each skipped tick that gets past the refresh check re-applies the
    // drain hysteresis. The write queue is constant across the gap, so
    // one application stands for all of them; a refresh due at the
    // first tick stays due (and blocks every tick) until the gap ends.
    if (!channel_.refreshDue(first))
        write_drain_mode_ = nextDrainMode();
    stats_.dram_cycles += ticks;
    stats_.read_queue_occupancy_sum +=
        ticks * static_cast<std::uint64_t>(pool_.size());
    if (config_.apd_enabled) {
        // Replay the APD scan schedule across the gap: a scan advances
        // next_apd_scan_ even when it drops nothing, and the schedule
        // (the age quantum is not a multiple of the DRAM clock) must
        // stay bit-identical with the cycle-by-cycle loop. No scan in
        // the gap can drop anything -- nextEventCycle() bounded the gap
        // by the earliest possible drop.
        while (true) {
            Cycle scan = std::max(next_apd_scan_, first);
            scan = (scan + period - 1) / period * period;
            if (scan >= to)
                break;
            next_apd_scan_ = scan + config_.age_quantum;
        }
    }
}

} // namespace padc::memctrl
