/**
 * @file
 * Discrete-event engine for the EXIST node simulation.
 *
 * The queue orders events by (time, insertion sequence), so events
 * scheduled for the same cycle fire in FIFO order, which keeps the
 * simulation deterministic.
 *
 * Every pending event is one trivially copyable record in a flat 4-ary
 * heap: a plain handler function plus the context pointer and argument
 * it is called with. The hot per-slice events (the kernel's core runs)
 * schedule such typed records directly. A generic std::function
 * callback parks in a slot table and is scheduled as a typed record
 * whose handler runs the slot, so there is one queue and one order.
 */
#ifndef EXIST_SIM_EVENT_QUEUE_H
#define EXIST_SIM_EVENT_QUEUE_H

#include <cstdint>
#include <functional>
#include <vector>

#include "util/logging.h"
#include "util/types.h"

namespace exist {

/** Handle used to cancel a scheduled event. */
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

/**
 * Time-ordered queue of events. A thin core that higher layers (the
 * OS kernel, load generators, the cluster master) schedule against.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;
    /** Typed handler: called with the `ctx` and `arg` it was scheduled
     *  with. A captureless lambda converts to it. */
    using Handler = void (*)(void *ctx, std::uint64_t arg);

    /** Current virtual time. */
    Cycles now() const { return now_; }

    /** Schedule `fn(ctx, arg)` at absolute time `when` (>= now). */
    EventId schedule(Cycles when, Handler fn, void *ctx,
                     std::uint64_t arg);

    /** Schedule a callback at absolute time `when` (>= now). */
    EventId schedule(Cycles when, Callback cb);

    /** Schedule a callback `delay` cycles from now. */
    EventId
    scheduleAfter(Cycles delay, Callback cb)
    {
        return schedule(now_ + delay, std::move(cb));
    }

    /** Cancel a pending event; a no-op for a fired or unknown id. */
    void cancel(EventId id);

    /** True when no events are pending. */
    bool empty() const { return heap_.empty(); }

    /** Time of the next pending event (kMaxTime when empty). */
    Cycles nextTime() const
    {
        return heap_.empty() ? kMaxTime : heap_.front().when;
    }

    /** Fire a single event; returns false if the queue is empty. */
    bool step();

    /** Run until the queue drains or time reaches `until`. */
    void runUntil(Cycles until);

    /** Run until the queue drains. */
    void run();

    static constexpr Cycles kMaxTime = ~Cycles{0};

  private:
    struct Event {
        Cycles when;
        EventId id;
        Handler fn;
        void *ctx;
        std::uint64_t arg;
    };

    static bool
    before(const Event &a, const Event &b)
    {
        return a.when != b.when ? a.when < b.when : a.id < b.id;
    }

    /** Handler of a slot-table event: runs and frees slot `arg`. */
    static void runSlot(void *queue, std::uint64_t slot);
    void releaseSlot(std::uint64_t slot);
    /** Remove heap_[i], keeping the heap ordered. */
    void removeAt(std::size_t i);
    void siftUp(std::size_t i, Event e);
    void siftDown(std::size_t i, Event e);

    std::vector<Event> heap_;
    std::vector<Callback> slots_;
    std::vector<std::uint64_t> free_slots_;
    Cycles now_ = 0;
    EventId next_id_ = kInvalidEvent;

    friend class EventQueueTestPeer;
};

}  // namespace exist

#endif  // EXIST_SIM_EVENT_QUEUE_H
