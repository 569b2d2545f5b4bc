#include "sim/event_queue.h"

#include <algorithm>

namespace exist {

namespace {

/** Children of heap slot i are 4i+1 .. 4i+4. */
constexpr std::size_t kArity = 4;

}  // namespace

EventId
EventQueue::schedule(Cycles when, Handler fn, void *ctx, std::uint64_t arg)
{
    EXIST_ASSERT(when >= now_, "scheduling into the past: %llu < %llu",
                 (unsigned long long)when, (unsigned long long)now_);
    const EventId id = ++next_id_;
    heap_.push_back(Event{});
    siftUp(heap_.size() - 1, Event{when, id, fn, ctx, arg});
    return id;
}

EventId
EventQueue::schedule(Cycles when, Callback cb)
{
    std::uint64_t slot;
    if (free_slots_.empty()) {
        slot = slots_.size();
        slots_.push_back(std::move(cb));
    } else {
        slot = free_slots_.back();
        free_slots_.pop_back();
        slots_[slot] = std::move(cb);
    }
    return schedule(when, &EventQueue::runSlot, this, slot);
}

void
EventQueue::runSlot(void *queue, std::uint64_t slot)
{
    auto *q = static_cast<EventQueue *>(queue);
    // Move the callback out first: it may schedule more callbacks,
    // which can grow (and so move) the slot table under it.
    Callback cb = std::move(q->slots_[slot]);
    q->releaseSlot(slot);
    cb();
}

void
EventQueue::releaseSlot(std::uint64_t slot)
{
    slots_[slot] = nullptr;
    free_slots_.push_back(slot);
}

void
EventQueue::cancel(EventId id)
{
    // Ids are never reused, so a fired or unknown id matches nothing
    // and leaves no trace. Cancels are rare (agent timers); a scan of
    // the pending records is cheaper than indexing every schedule.
    for (std::size_t i = 0; i < heap_.size(); ++i) {
        if (heap_[i].id != id)
            continue;
        if (heap_[i].fn == &EventQueue::runSlot)
            releaseSlot(heap_[i].arg);
        removeAt(i);
        return;
    }
}

void
EventQueue::removeAt(std::size_t i)
{
    const Event last = heap_.back();
    heap_.pop_back();
    if (i == heap_.size())
        return;
    if (i > 0 && before(last, heap_[(i - 1) / kArity]))
        siftUp(i, last);
    else
        siftDown(i, last);
}

void
EventQueue::siftUp(std::size_t i, Event e)
{
    while (i > 0) {
        const std::size_t parent = (i - 1) / kArity;
        if (!before(e, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = e;
}

void
EventQueue::siftDown(std::size_t i, Event e)
{
    const std::size_t n = heap_.size();
    while (true) {
        const std::size_t first = kArity * i + 1;
        if (first >= n)
            break;
        const std::size_t last = std::min(first + kArity, n);
        std::size_t best = first;
        for (std::size_t c = first + 1; c < last; ++c)
            if (before(heap_[c], heap_[best]))
                best = c;
        if (!before(heap_[best], e))
            break;
        heap_[i] = heap_[best];
        i = best;
    }
    heap_[i] = e;
}

bool
EventQueue::step()
{
    if (heap_.empty())
        return false;
    const Event e = heap_.front();
    removeAt(0);
    EXIST_ASSERT(e.when >= now_, "event queue time went backwards");
    now_ = e.when;
    e.fn(e.ctx, e.arg);
    return true;
}

void
EventQueue::runUntil(Cycles until)
{
    while (true) {
        Cycles next = nextTime();
        if (next == kMaxTime || next > until)
            break;
        step();
    }
    if (now_ < until)
        now_ = until;
}

void
EventQueue::run()
{
    while (step()) {
    }
}

}  // namespace exist
