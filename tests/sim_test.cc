/**
 * @file
 * Unit tests for the discrete-event engine: ordering, cancellation,
 * and time advance semantics, plus a randomized model test against a
 * reference ordered map.
 */
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "util/rng.h"

namespace exist {

/** Reads the queue's storage: what a cancel leaves behind. */
class EventQueueTestPeer
{
  public:
    static std::size_t pending(const EventQueue &q)
    {
        return q.heap_.size();
    }
    /** Callbacks held in the slot table. */
    static std::size_t liveCallbacks(const EventQueue &q)
    {
        return q.slots_.size() - q.free_slots_.size();
    }
};

namespace {

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTimeIsFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(10, [&order, i] { order.push_back(i); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelPreventsFiring)
{
    EventQueue q;
    int fired = 0;
    EventId id = q.schedule(10, [&] { ++fired; });
    q.schedule(20, [&] { ++fired; });
    q.cancel(id);
    q.run();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelAfterFireIsNoop)
{
    EventQueue q;
    int fired = 0;
    EventId id = q.schedule(5, [&] { ++fired; });
    q.run();
    q.cancel(id);  // already fired; must not affect later events
    q.cancel(id + 100);  // never scheduled
    EXPECT_EQ(EventQueueTestPeer::pending(q), 0u);
    EXPECT_EQ(EventQueueTestPeer::liveCallbacks(q), 0u);
    q.schedule(q.now() + 1, [&] { ++fired; });
    EXPECT_EQ(EventQueueTestPeer::pending(q), 1u);
    q.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(EventQueueTestPeer::pending(q), 0u);
    EXPECT_EQ(EventQueueTestPeer::liveCallbacks(q), 0u);
}

TEST(EventQueue, RunUntilAdvancesTime)
{
    EventQueue q;
    int fired = 0;
    q.schedule(100, [&] { ++fired; });
    q.runUntil(50);
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(q.now(), 50u);
    q.runUntil(150);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.now(), 150u);
}

TEST(EventQueue, EventsMayScheduleEvents)
{
    EventQueue q;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 10)
            q.scheduleAfter(5, chain);
    };
    q.schedule(0, chain);
    q.run();
    EXPECT_EQ(depth, 10);
    EXPECT_EQ(q.now(), 45u);
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime)
{
    EventQueue q;
    Cycles seen = 0;
    q.schedule(10, [&] {
        q.scheduleAfter(7, [&] { seen = q.now(); });
    });
    q.run();
    EXPECT_EQ(seen, 17u);
}

TEST(EventQueue, NextTimeSkipsCancelled)
{
    EventQueue q;
    EventId id = q.schedule(10, [] {});
    q.schedule(25, [] {});
    q.cancel(id);
    EXPECT_EQ(q.nextTime(), 25u);
}

TEST(EventQueue, EmptyAfterDrain)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    q.schedule(1, [] {});
    EXPECT_FALSE(q.empty());
    q.run();
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.step());
}

/**
 * Seeded model test: random mixes of typed and callback schedules,
 * cancels of pending, fired and unknown ids, and handlers that
 * schedule at now() must fire in the order of a reference multimap
 * keyed (when, schedule sequence), at the reference's times.
 */
class QueueModel
{
  public:
    explicit QueueModel(std::uint64_t seed) : rng_(seed) {}

    void
    run(int ops)
    {
        for (int i = 0; i < ops; ++i) {
            const std::uint64_t pick = rng_.uniformInt(10);
            if (pick < 4) {
                scheduleOne(q_.now() + rng_.uniformInt(50));
            } else if (pick < 5) {
                cancelPending();
            } else if (pick < 6) {
                // A fired id, an unknown id, or the invalid id.
                if (!fired_ids_.empty() && rng_.bernoulli(0.5))
                    q_.cancel(fired_ids_[rng_.uniformInt(
                        fired_ids_.size())]);
                else
                    q_.cancel(rng_.bernoulli(0.5) ? kInvalidEvent
                                                  : last_id_ + 1000);
            } else {
                stepOne();
            }
            checkShape();
            if (HasFatalFailure())
                return;
        }
        while (!ref_.empty()) {
            stepOne();
            if (HasFatalFailure())
                return;
        }
        EXPECT_FALSE(q_.step());
        EXPECT_EQ(EventQueueTestPeer::liveCallbacks(q_), 0u);
    }

    int fired() const { return static_cast<int>(fired_ids_.size()); }

  private:
    struct Pending {
        EventId id;
        std::uint64_t label;
    };
    using Key = std::pair<Cycles, std::uint64_t>;  // (when, sequence)

    void
    scheduleOne(Cycles when)
    {
        const std::uint64_t label = next_label_++;
        EventId id;
        if (rng_.bernoulli(0.5)) {
            id = q_.schedule(
                when,
                [](void *model, std::uint64_t arg) {
                    static_cast<QueueModel *>(model)->onFire(arg);
                },
                this, label);
        } else {
            id = q_.schedule(when, [this, label] { onFire(label); });
        }
        EXPECT_GT(id, last_id_);
        last_id_ = id;
        ref_.emplace(Key{when, label}, Pending{id, label});
    }

    void
    cancelPending()
    {
        if (ref_.empty())
            return;
        auto it = ref_.begin();
        std::advance(it, static_cast<long>(rng_.uniformInt(ref_.size())));
        q_.cancel(it->second.id);
        ref_.erase(it);
    }

    void
    stepOne()
    {
        if (ref_.empty()) {
            EXPECT_FALSE(q_.step());
            return;
        }
        const auto head = ref_.begin();
        const Cycles when = head->first.first;
        const Pending want = head->second;
        ref_.erase(head);
        fired_labels_.clear();
        ASSERT_TRUE(q_.step());
        ASSERT_EQ(fired_labels_.size(), 1u);
        ASSERT_EQ(fired_labels_[0], want.label);
        ASSERT_EQ(q_.now(), when);
        fired_ids_.push_back(want.id);
    }

    void
    onFire(std::uint64_t label)
    {
        fired_labels_.push_back(label);
        // Handlers schedule at now() (and just after) a third of the
        // time: same-cycle events must still fire in sequence order.
        if (rng_.bernoulli(0.35))
            scheduleOne(q_.now());
        if (rng_.bernoulli(0.15))
            scheduleOne(q_.now() + 1);
    }

    void
    checkShape()
    {
        ASSERT_EQ(q_.empty(), ref_.empty());
        ASSERT_EQ(EventQueueTestPeer::pending(q_), ref_.size());
        ASSERT_EQ(q_.nextTime(), ref_.empty() ? EventQueue::kMaxTime
                                              : ref_.begin()->first.first);
    }

    static bool HasFatalFailure()
    {
        return ::testing::Test::HasFatalFailure();
    }

    Rng rng_;
    EventQueue q_;
    std::multimap<Key, Pending> ref_;
    std::vector<EventId> fired_ids_;
    std::vector<std::uint64_t> fired_labels_;
    std::uint64_t next_label_ = 0;
    EventId last_id_ = kInvalidEvent;
};

TEST(EventQueue, MatchesReferenceModel)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(seed);
        QueueModel m(seed);
        m.run(20000);
        if (HasFatalFailure())
            return;
        EXPECT_GT(m.fired(), 10000);
    }
}

}  // namespace
}  // namespace exist
