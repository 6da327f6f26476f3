/**
 * @file
 * The per-class quantum table shared between the dispatcher-tier
 * controller and the worker schedulers (DESIGN.md §4i).
 *
 * `RuntimeConfig::class_quantum_us` keys quanta by `Request::job_class`.
 * The resolved cycle budgets live in one ClassQuantumTable owned by the
 * Runtime: the adaptive controller (runtime/quantum_controller.h) is the
 * only writer after construction, and each worker loads exactly one
 * entry per admitted job — the *resolution point* is admission, so a
 * controller update applies to jobs admitted after the store, never to
 * a job mid-service (its Task carries the budget it was admitted with).
 *
 * Layout note: the eight entries share cache lines deliberately. The
 * writer ticks at snapshot rate (hertz), the readers load once per
 * admission; there is no per-quantum or per-probe access, so sharing
 * costs nothing and keeps the table a single line in the common case
 * (docs/cache_line_analysis.md covers the contrast with the per-quantum
 * WorkerStatsLine traffic).
 */
#ifndef TQ_RUNTIME_QUANTUM_H
#define TQ_RUNTIME_QUANTUM_H

#include <atomic>

#include "common/core_queue.h"
#include "common/cycles.h"

namespace tq::runtime {

/** Job classes with distinct quanta. `job_class` values at or beyond
 *  the limit clamp into the last slot (they still schedule; they just
 *  share a quantum), matching telemetry's per-class instrument bound. */
inline constexpr int kMaxQuantumClasses = sched::kMaxClasses;

/** Atomic per-class quantum cycle budgets (single writer after
 *  construction: the adaptive controller; readers: workers, one
 *  relaxed load per admission). */
class ClassQuantumTable
{
  public:
    /** Every slot starts at @p default_cycles (the fixed quantum). */
    explicit ClassQuantumTable(Cycles default_cycles)
    {
        for (auto &c : cycles_)
            c.store(default_cycles, std::memory_order_relaxed);
    }

    /** Table slot for a request's job_class (clamped, never negative). */
    static int
    slot_of(int job_class)
    {
        if (job_class < 0)
            return 0;
        return job_class < kMaxQuantumClasses ? job_class
                                              : kMaxQuantumClasses - 1;
    }

    /** The quantum budget for @p slot (relaxed; admission-time load). */
    Cycles
    load(int slot) const
    {
        return cycles_[static_cast<size_t>(slot)].load(
            std::memory_order_relaxed);
    }

    /** Install a new budget for @p slot (controller only). */
    void
    store(int slot, Cycles cycles)
    {
        cycles_[static_cast<size_t>(slot)].store(cycles,
                                                 std::memory_order_relaxed);
    }

  private:
    std::atomic<Cycles> cycles_[kMaxQuantumClasses];
};

} // namespace tq::runtime

#endif // TQ_RUNTIME_QUANTUM_H
