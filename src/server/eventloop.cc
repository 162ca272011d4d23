#include "eventloop.hh"

#include <stdexcept>
#include <utility>

namespace fairco2::server
{

void
EventLoop::at(std::uint64_t tick, Callback fn)
{
    if (tick < now_)
        throw std::logic_error(
            "EventLoop::at: cannot schedule in the past");
    queue_.push(Event{tick, nextSeq_++, std::move(fn)});
}

std::uint64_t
EventLoop::run()
{
    stopped_ = false;
    std::uint64_t ran = 0;
    while (!queue_.empty() && !stopped_) {
        // priority_queue::top is const; the callback is moved out via
        // const_cast, which is safe because pop() follows immediately
        // and nothing reads the moved-from event.
        Event &top = const_cast<Event &>(queue_.top());
        now_ = top.tick;
        Callback fn = std::move(top.fn);
        queue_.pop();
        fn();
        ++ran;
        ++executed_;
    }
    return ran;
}

} // namespace fairco2::server
