/**
 * @file
 * Deterministic discrete-event loop for the live-signal server.
 *
 * Simulated time is a bare integer tick counter; events are
 * callbacks scheduled at a tick and executed in (tick, insertion
 * order) order, so two events at the same tick run FIFO. The loop is
 * single-threaded by design — determinism comes from the total event
 * order being a pure function of what was scheduled, never of wall
 * clock or thread timing. Parallelism lives *inside* event handlers
 * (the server's period-close handler fans out over shards through
 * fairco2::parallel), which keeps the bit-identity contract intact.
 *
 * Handlers may schedule further events, including at the current
 * tick (they run after every already-queued event of that tick).
 * Scheduling an event in the past is rejected — replaying history
 * would silently break the monotone-time invariant every handler
 * relies on.
 */

#ifndef FAIRCO2_SERVER_EVENTLOOP_HH
#define FAIRCO2_SERVER_EVENTLOOP_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace fairco2::server
{

/** Single-threaded deterministic event loop on integer ticks. */
class EventLoop
{
  public:
    using Callback = std::function<void()>;

    /** Current simulated tick (the tick of the running event, or of
     *  the next event once run() returns). */
    std::uint64_t now() const { return now_; }

    /**
     * Schedule @p fn at tick @p tick. Throws std::logic_error when
     * @p tick is in the past (tick < now()).
     */
    void at(std::uint64_t tick, Callback fn);

    /**
     * Run events in (tick, insertion) order until the queue is empty
     * or stop() is called. Returns the number of events executed.
     */
    std::uint64_t run();

    /** Ask the loop to return after the current event completes. */
    void stop() { stopped_ = true; }

    /** Events scheduled but not yet executed. */
    std::size_t pending() const { return queue_.size(); }

    /** Events executed so far. */
    std::uint64_t executed() const { return executed_; }

  private:
    struct Event
    {
        std::uint64_t tick;
        std::uint64_t seq; //!< insertion order; breaks tick ties
        Callback fn;
    };

    /** Min-heap order: earliest tick first, FIFO within a tick. */
    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.tick != b.tick)
                return a.tick > b.tick;
            return a.seq > b.seq;
        }
    };

    std::priority_queue<Event, std::vector<Event>, Later> queue_;
    std::uint64_t now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    bool stopped_ = false;
};

} // namespace fairco2::server

#endif // FAIRCO2_SERVER_EVENTLOOP_HH
