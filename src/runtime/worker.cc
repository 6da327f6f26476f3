#include "runtime/worker.h"

#include <algorithm>
#include <thread>

#include "common/check.h"
#include "common/cycles.h"
#include "conc/cacheline.h"
#include "fault/fault.h"
#include "probe/probe.h"

namespace tq::runtime {

static_assert(kMaxQuantumClasses == telemetry::kMaxTrackedClasses,
              "quantum-table slots and per-class telemetry slots must "
              "stay in one-to-one correspondence");

Worker::Worker(int id, const RuntimeConfig &cfg, Handler handler,
               telemetry::WorkerTelemetry *telem, const LifecycleControl *lc,
               const ClassQuantumTable *quanta)
    : id_(id),
      cfg_(cfg),
      handler_(std::move(handler)),
      telem_(telem),
      lc_(lc),
      quantum_cycles_(ns_to_cycles(cfg.quantum_us * 1e3)),
      // FCFS never arms probes, so per-class budgets cannot apply: the
      // table is dropped and the fixed path runs (DESIGN.md §4i).
      quanta_table_(cfg.work == WorkPolicy::Fcfs ? nullptr : quanta),
      per_class_(quanta_table_ != nullptr),
      dispatch_ring_(cfg.ring_capacity),
      tx_ring_(cfg.ring_capacity),
      queue_(cfg.work,
             per_class_ ? ns_to_cycles(cfg.deficit_clamp_us * 1e3) : 0,
             per_class_ ? cfg.starvation_promote_after : 0)
{
    TQ_CHECK(cfg_.tasks_per_worker > 0);
    TQ_CHECK(handler_);
    TQ_CHECK(lc_ != nullptr);
    for (int t = 0; t < cfg_.tasks_per_worker; ++t) {
        auto task = std::make_unique<Task>();
        Task *raw = task.get();
        // Persistent coroutine body: serve jobs forever, yielding back to
        // the scheduler after each one (paper section 4: task coroutines
        // are created once and recycled between idle and busy states).
        task->coro = std::make_unique<Coroutine>([this, raw](Coroutine &self) {
            for (;;) {
                if (!raw->has_job) {
                    self.yield();
                    continue;
                }
                raw->result = handler_(raw->req);
                raw->has_job = false;
                raw->job_done = true;
                self.yield();
            }
        });
        idle_.push_back(raw);
        tasks_.push_back(std::move(task));
    }
}

void
Worker::poll_admissions()
{
    // Batched admission: pop as many requests as there are idle task
    // slots with one shared-index round trip, instead of one pop (and
    // one acquire of the producer index) per request.
    Request pending[kAdmitBatch];
    while (!idle_.empty()) {
        const size_t want = std::min(idle_.size(), kAdmitBatch);
        const size_t got = dispatch_ring_.pop_n(pending, want);
        for (size_t i = 0; i < got; ++i) {
            Task *task = idle_.back();
            idle_.pop_back();
            task->req = pending[i];
            task->service_cycles = 0;
            task->started = false;
            task->job_done = false;
            task->has_job = true;
            if (per_class_) {
                // Quantum resolution point (DESIGN.md §4i): one relaxed
                // table load per job, here at admission. Every later
                // probe/yield decision compares against the budget the
                // queue holds for the job — a controller update never
                // reaches a job mid-service.
                const int slot =
                    ClassQuantumTable::slot_of(pending[i].job_class);
                queue_.admit(task, slot, quanta_table_->load(slot));
            } else {
                queue_.admit(task, 0, quantum_cycles_);
            }
#if defined(TQ_TELEMETRY_ENABLED)
            single_writer_add(telem_->counters.admitted, 1);
#endif
        }
        if (got < want)
            return; // ring drained
    }
}

void
Worker::run_one_slice()
{
    TQ_FAULT_SITE(WorkerSlice);
    const Queue::Grant grant = queue_.pick();
    Task *task = grant.item;
    if (grant.promoted) // cold: fires at most once per promote_after grants
        starvation_promotions_.fetch_add(1, std::memory_order_relaxed);

    // The paper's call_the_yield binding: before resuming, point the
    // thread-local yield hook at this task's coroutine so probes in the
    // handler switch back here.
    bind_yield(
        [](void *coro) { static_cast<Coroutine *>(coro)->yield(); },
        task->coro.get());
    // The admission-resolved quantum, deficit-adjusted in per-class
    // mode; exactly quantum_cycles_ on the fixed path.
    const Cycles budget = grant.budget;
    // One cycle-counter read per slice boundary. The start stamp feeds
    // the armed deadline, the queue-stage sample and the QuantumStart
    // event; the end stamp feeds the slice length (telemetry and
    // deficit settlement), the response's done_cycles and the
    // JobFinished event.
    const Cycles slice_start = rdcycles();
#if defined(TQ_TELEMETRY_ENABLED)
    bind_telemetry(telem_, task->req.id);
#endif
    if (cfg_.work == WorkPolicy::Fcfs)
        disarm_quantum(); // FCFS: probes never fire
    else
        arm_quantum_at(slice_start, budget);
    task->coro->resume();
    disarm_quantum();
    // Only a preempted slice on the fixed path of a telemetry-off build
    // has no use for the end stamp; skip the read there.
    const bool stamp_end =
        telemetry::kEnabled || per_class_ || task->job_done;
    const Cycles slice_end = stamp_end ? rdcycles() : slice_start;
    const Cycles slice = slice_end - slice_start;
#if defined(TQ_TELEMETRY_ENABLED)
    // The slice-start records are written now, not before the resume:
    // the deadline counts from slice_start, so recording work there
    // would eat into the armed budget. The stamp keeps them exact, and
    // drain_trace() orders events by stamp, not by ring position.
    if (!task->started) {
        task->started = true;
        // Queueing stage: dispatcher handoff -> first quantum start.
        telem_->queue_cycles.add(slice_start - task->req.dispatch_cycles);
    }
    single_writer_add(telem_->counters.quanta, 1);
    telem_->trace.record_at(slice_start, telemetry::EventKind::QuantumStart,
                            task->req.id, grant.quanta);
    if (per_class_) {
        single_writer_add(telem_->class_grants[grant.cls], 1);
        single_writer_add(telem_->class_granted_cycles[grant.cls], budget);
    }
    task->service_cycles += slice;
    if (!task->job_done && cfg_.work != WorkPolicy::Fcfs) {
        // Preemption overhead: how far the slice ran past the armed
        // deadline before a probe fired and the switch-out completed.
        telem_->preempt_cycles.add(slice > budget ? slice - budget : 0);
    }
#endif
    // Deficit settlement (a class whose probes overran the deadline
    // pays the overshoot back), then requeue unless the job finished.
    queue_.settle(task, slice, task->job_done);
#if defined(TQ_TELEMETRY_ENABLED)
    if (per_class_)
        telem_->class_deficit[grant.cls].store(
            queue_.account(grant.cls).deficit, std::memory_order_relaxed);
#endif

    if (task->job_done) {
        complete(grant, slice_end);
    } else {
        single_writer_add(stats_.current_quanta, 1);
        single_writer_add(stats_.total_quanta, 1);
    }
}

bool
Worker::push_response(const Response &resp)
{
    // Response leaves directly from the worker (paper section 3.2). If
    // the TX ring is full the collector is behind: bounded backpressure —
    // spin with a stop check, then a counted drop — so a collector that
    // stopped draining can never wedge this thread (or shutdown) forever.
    TQ_FAULT_SITE(WorkerComplete);
    const size_t limit = cfg_.push_spin_limit;
    size_t spins = 0;
    while (!tx_ring_.push(resp)) {
        if (lc_->force_stop() || (limit != 0 && spins >= limit)) {
            // cold: overflow drop
            dropped_responses_.fetch_add(1, std::memory_order_relaxed);
            return false;
        }
        ++spins;
        // cold: TX ring full
        tx_full_spins_.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::yield();
    }
    return true;
}

void
Worker::complete(const Queue::Grant &grant, Cycles done_at)
{
    Task *task = grant.item;
    Response resp;
    resp.id = task->req.id;
    resp.gen_cycles = task->req.gen_cycles;
    resp.arrival_cycles = task->req.arrival_cycles;
    resp.done_cycles = done_at;
    resp.job_class = task->req.job_class;
    resp.worker = id_;
    resp.result = task->result;
    resp.fanout = task->req.fanout;
    resp.shard = task->req.shard;
    push_response(resp);

    // Publish to the dispatcher's cache line even when the response was
    // dropped: the job *did* finish, and the JSQ view must not leak
    // queue length. The worker is the line's only writer, so plain
    // stores suffice (conc/cacheline.h single_writer_add).
    single_writer_add(stats_.finished, 1);
    single_writer_sub(stats_.current_quanta, grant.quanta);
#if defined(TQ_TELEMETRY_ENABLED)
    single_writer_add(telem_->counters.finished, 1);
    telem_->service_cycles.add(task->service_cycles);
    telem_->trace.record_at(done_at, telemetry::EventKind::JobFinished,
                            task->req.id);
    if (per_class_) {
        // Per-class controller feed (DESIGN.md §4i): attained service
        // and sojourn keyed by the quantum-table slot.
        single_writer_add(telem_->class_finished[grant.cls], 1);
        telem_->class_service[grant.cls].add(task->service_cycles);
        telem_->class_sojourn[grant.cls].add(done_at -
                                             task->req.arrival_cycles);
    }
#endif
    idle_.push_back(task);
}

void
Worker::abandon_remaining()
{
    // Clear the run queue so a second sweep only sees what arrived
    // since — the tasks' coroutines are suspended mid-job and are never
    // resumed again; tasks_ still owns them for destruction.
    uint64_t abandoned = queue_.clear();
    while (dispatch_ring_.pop())
        ++abandoned;
    // The worker's own final sweep and the runtime's post-join sweep
    // from the drain()/stop() caller both land here.
    if (abandoned != 0) // multi-writer: worker exit + post-join sweep
        abandoned_jobs_.fetch_add(abandoned, std::memory_order_relaxed);
}

void
Worker::run()
{
    int empty_polls = 0;
    for (;;) {
        TQ_FAULT_SITE(WorkerPoll);
        const Lifecycle phase = lc_->phase();
        if (phase >= Lifecycle::Stopping)
            break;
        poll_admissions();
        if (!queue_.empty()) {
            empty_polls = 0;
            run_one_slice();
            continue;
        }
        // Idle. Fully drained once the dispatcher has forwarded its last
        // request (acquire pairs with its release store) and nothing is
        // left in the ring.
        if (phase == Lifecycle::Draining &&
            lc_->dispatcher_done.load(std::memory_order_acquire) &&
            dispatch_ring_.empty())
            break;
        // On dedicated cores this would busy-poll; on shared hosts
        // let other threads (dispatcher, client) make progress.
        if (++empty_polls >= 8) {
            empty_polls = 0;
            std::this_thread::yield();
        } else {
            cpu_relax();
        }
    }
    abandon_remaining();
}

} // namespace tq::runtime
