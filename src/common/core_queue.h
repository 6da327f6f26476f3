/**
 * @file
 * The per-core quantum scheduler, shared by the real runtime worker
 * (Tick = Cycles) and the simulator (Tick = SimNanos): paper sections
 * 3.2 and 4, DESIGN.md §4i.
 *
 * A CoreQueue holds the items admitted to one core and decides which
 * runs next and for how long. The caller admits items with a base
 * budget, asks pick() for the next grant, runs that item for at most
 * the granted budget, and reports the time it actually used with
 * settle(). One item is granted at a time. A preempted item goes back
 * into the queue; a finished one leaves it.
 *
 * - Order. PS: a ring (pop front, push back). FCFS: the same ring,
 *   never preempted. LAS: an O(log n) binary min-heap keyed on
 *   (attained, push order), where attained is the sum of the budgets
 *   the item was granted in its preempted slices. With one quantum for
 *   all items that is quanta x quantum, so LAS is FIFO among equal
 *   quanta; with per-class quanta it is the service the item received.
 *   Push order is the order of the item's last admission or requeue,
 *   i.e. its position in the ring had the policy been PS.
 * - Budget. max(base/4 + 1, base + deficit[class]) with the class's
 *   deficit, or exactly base when the clamp is 0. The floor keeps a
 *   class in debt making progress.
 * - Settlement. deficit += granted - used, clamped to +-clamp: a class
 *   that finishes early banks credit, one that overruns pays it back.
 * - Starvation guard. A class passed over for promote_after
 *   consecutive grants while it has runnable items gets its first item
 *   in pick order (LAS minimum, or first in the ring) forced ahead.
 *   0 disables the guard.
 *
 * A 0 clamp and a 0 guard are no-ops, and FCFS forces both to 0: it
 * never slices, so per-class budgets cannot apply. Every field is
 * plain and has one writer, the thread that owns the core.
 */
#ifndef TQ_COMMON_CORE_QUEUE_H
#define TQ_COMMON_CORE_QUEUE_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <type_traits>
#include <vector>

#include "common/check.h"

namespace tq::sched {

/** Per-core quantum scheduling policy. */
enum class Policy {
    ProcessorSharing, ///< round-robin quanta over admitted items
    Fcfs,             ///< run to completion in admission order
    Las,              ///< least-attained-service first (the dynamic-
                      ///< quantum policy class TQ's probes support,
                      ///< paper section 3.1)
};

/** Classes with their own account. Callers clamp larger class ids. */
inline constexpr int kMaxClasses = 8;

/** One core's run queue and per-class accounts. */
template <class Item, class Tick>
class CoreQueue
{
  public:
    /** Signed counterpart of Tick (deficits go negative). */
    using Signed = typename std::conditional_t<std::is_integral_v<Tick>,
                                               std::make_signed<Tick>,
                                               std::type_identity<Tick>>::type;

    /** One class's scheduling account on this core. */
    struct Account
    {
        Signed deficit = 0;    ///< banked granted - used, within +-clamp
        uint32_t skipped = 0;  ///< consecutive grants to other classes
                               ///< while this one was runnable
        uint32_t runnable = 0; ///< admitted, unfinished items
        uint64_t grants = 0;   ///< slices granted
        Tick granted = 0;      ///< sum of granted budgets
    };

    /** What pick() hands the caller. */
    struct Grant
    {
        Item item{};
        Tick budget = 0;       ///< effective budget to run for
        uint32_t quanta = 0;   ///< preempted slices the item had before
        uint8_t cls = 0;       ///< class the item was admitted with
        bool promoted = false; ///< forced ahead by the starvation guard
    };

    /**
     * @param policy pick order.
     * @param deficit_clamp bound on each class's deficit; 0 = none.
     * @param promote_after starvation guard threshold; 0 = off.
     */
    CoreQueue(Policy policy, Tick deficit_clamp, uint64_t promote_after)
        : policy_(policy),
          clamp_(policy == Policy::Fcfs ? 0
                                        : static_cast<Signed>(deficit_clamp)),
          promote_after_(policy == Policy::Fcfs ? 0 : promote_after)
    {
    }

    /** No admitted item waits (the granted one is not counted). */
    bool
    empty() const
    {
        return policy_ == Policy::Las ? heap_.empty() : ring_.empty();
    }

    /** Queue @p item of class @p cls in [0, kMaxClasses) with budget
     *  @p base before deficit adjustment. */
    void
    admit(Item item, int cls, Tick base)
    {
        TQ_DCHECK(cls >= 0 && cls < kMaxClasses);
        ++accounts_[cls].runnable;
        push(Entry{item, base, 0, 0, 0, static_cast<uint8_t>(cls)});
    }

    /** Take the next item and its budget. Requires !empty() and no
     *  grant outstanding. */
    Grant
    pick()
    {
        TQ_DCHECK(!empty());
        const bool promoted = promote_after_ != 0 && take_starved();
        if (!promoted)
            running_ = take_next();
        Account &acct = accounts_[running_.cls];
        budget_ = running_.base;
        if (clamp_ != 0) {
            const Signed budget = static_cast<Signed>(running_.base) +
                                  acct.deficit;
            const Signed floor = static_cast<Signed>(running_.base / 4) + 1;
            budget_ = static_cast<Tick>(budget > floor ? budget : floor);
        }
        ++acct.grants;
        acct.granted += budget_;
        if (promote_after_ != 0) {
            // One grant elapsed: the served class's starvation clock
            // resets, every other runnable class ages one step.
            for (Account &other : accounts_) {
                if (&other == &acct)
                    other.skipped = 0;
                else if (other.runnable != 0)
                    ++other.skipped;
            }
        }
        return Grant{running_.item, budget_, running_.quanta, running_.cls,
                     promoted};
    }

    /** Close the outstanding grant: @p item ran for @p used and either
     *  @p finished or goes back into the queue. */
    void
    settle(Item item, Tick used, bool finished)
    {
        TQ_DCHECK(item == running_.item);
        (void)item;
        Account &acct = accounts_[running_.cls];
        if (clamp_ != 0)
            acct.deficit = std::clamp(acct.deficit +
                                          static_cast<Signed>(budget_) -
                                          static_cast<Signed>(used),
                                      -clamp_, clamp_);
        if (finished) {
            --acct.runnable;
            return;
        }
        ++running_.quanta;
        running_.attained += budget_;
        push(running_);
    }

    /** Drop every queued item (shutdown); returns how many. */
    size_t
    clear()
    {
        for (const Entry &e : ring_)
            --accounts_[e.cls].runnable;
        for (const Entry &e : heap_)
            --accounts_[e.cls].runnable;
        const size_t n = ring_.size() + heap_.size();
        ring_.clear();
        heap_.clear();
        return n;
    }

    /** Class @p cls's account. */
    const Account &account(int cls) const { return accounts_[cls]; }

    /** Grants the starvation guard forced ahead of the order. */
    uint64_t promotions() const { return promotions_; }

  private:
    struct Entry
    {
        Item item;
        Tick base;       ///< budget before deficit adjustment
        Tick attained;   ///< budgets granted in preempted slices
        uint64_t seq;    ///< push order (LAS ties)
        uint32_t quanta; ///< preempted slices so far
        uint8_t cls;
    };

    /** Reversed LAS order for the std heap functions (a max-heap). */
    struct After
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.attained != b.attained)
                return a.attained > b.attained;
            return a.seq > b.seq;
        }
    };

    void
    push(Entry e)
    {
        e.seq = next_seq_++;
        if (policy_ == Policy::Las) {
            heap_.push_back(e);
            std::push_heap(heap_.begin(), heap_.end(), After{});
        } else {
            ring_.push_back(e);
        }
    }

    Entry
    take_next()
    {
        Entry e;
        if (policy_ == Policy::Las) {
            std::pop_heap(heap_.begin(), heap_.end(), After{});
            e = heap_.back();
            heap_.pop_back();
        } else {
            e = ring_.front();
            ring_.pop_front();
        }
        return e;
    }

    /** Starvation guard: move the most-starved class's best item into
     *  running_. Cold: fires at most once per promote_after grants. */
    bool
    take_starved()
    {
        int starved = -1;
        uint64_t worst = 0;
        for (int c = 0; c < kMaxClasses; ++c) {
            const Account &acct = accounts_[c];
            if (acct.runnable != 0 && acct.skipped >= promote_after_ &&
                acct.skipped > worst) {
                worst = acct.skipped;
                starved = c;
            }
        }
        if (starved < 0)
            return false;
        if (policy_ == Policy::Las) {
            // The class's LAS minimum, by scan + re-heapify.
            auto best = heap_.end();
            for (auto it = heap_.begin(); it != heap_.end(); ++it)
                if (it->cls == starved &&
                    (best == heap_.end() || After{}(*best, *it)))
                    best = it;
            TQ_CHECK(best != heap_.end()); // runnable[starved] != 0
            running_ = *best;
            heap_.erase(best);
            std::make_heap(heap_.begin(), heap_.end(), After{});
        } else {
            auto it = std::find_if(
                ring_.begin(), ring_.end(),
                [&](const Entry &e) { return e.cls == starved; });
            TQ_CHECK(it != ring_.end()); // runnable[starved] != 0
            running_ = *it;
            ring_.erase(it);
        }
        ++promotions_;
        return true;
    }

    Policy policy_;
    Signed clamp_;
    uint64_t promote_after_;
    std::deque<Entry> ring_;  ///< PS / FCFS order
    std::vector<Entry> heap_; ///< LAS order
    uint64_t next_seq_ = 0;
    Entry running_{};         ///< the outstanding grant's item
    Tick budget_ = 0;         ///< the outstanding grant's budget
    Account accounts_[kMaxClasses] = {};
    uint64_t promotions_ = 0;
};

} // namespace tq::sched

#endif // TQ_COMMON_CORE_QUEUE_H
