// Open-loop client for the serve_mixed workload: one process, two threads
// (the caller sends on schedule, one receiver thread reads), a fixed
// number of Unix-socket connections.  Requests carry global numeric ids;
// every response is kept, stragglers from an earlier phase included, so
// each request's outcome can be checked after the run.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "support/net.hpp"

namespace perfbench {

class ServeClient {
public:
    /// Connects `connections` sockets to `path` and starts the receiver.
    /// `capacity` bounds the ids one client can issue.
    ServeClient(const std::string& path, std::size_t connections, std::size_t capacity);
    ~ServeClient();

    ServeClient(const ServeClient&) = delete;
    ServeClient& operator=(const ServeClient&) = delete;

    /// Next unused request id.
    std::uint64_t next_id() const noexcept { return next_id_.load(); }

    /// Send one request line (whose id is next_id()) and wait for its
    /// response; "" after `timeout_s`.
    std::string call(const std::string& line, double timeout_s = 60.0);

    /// Open loop: send `lines` (ids next_id() … next_id()+N−1) at `rate`
    /// requests per second from a schedule starting now, round-robin over
    /// the connections, then wait up to `timeout_s` past the last due time
    /// for the answers.  Returns the phase's due/sent/received log, each
    /// answer stamped with the time the receiver read it, however late.
    OpenLoopLog run(const std::vector<std::string>& lines, double rate, double timeout_s);

    /// Wait until every request sent so far is answered (false on timeout).
    bool wait_all(double timeout_s);

    /// The response line of request `id` ("" if unanswered).
    std::string response(std::uint64_t id) const;
    /// Lines that named no issued request id (corrupted or unexpected).
    std::uint64_t unmatched() const noexcept { return unmatched_.load(); }

private:
    struct Slot {
        Clock::time_point received{};
        std::string line;
        bool answered = false;
    };

    void send(std::uint64_t id, const std::string& line);
    void receive_loop();
    void deliver(const std::string& line, Clock::time_point when);

    std::vector<ld::support::net::Socket> conns_;
    /// Ids are reserved before the line is sent, so a fast response
    /// always finds its slot.
    std::atomic<std::uint64_t> next_id_{0};
    std::atomic<std::uint64_t> unmatched_{0};
    std::atomic<bool> stop_{false};

    mutable std::mutex mutex_;
    std::condition_variable answered_cv_;
    std::vector<Slot> slots_;  ///< guarded by mutex_
    std::uint64_t answered_ = 0;  ///< guarded by mutex_

    std::thread receiver_;  ///< last: uses everything above
};

}  // namespace perfbench
