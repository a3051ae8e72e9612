#include "serve_client.hpp"

#include <poll.h>

#include <optional>
#include <stdexcept>

#include "support/json.hpp"

namespace perfbench {

namespace json = ld::support::json;
namespace net = ld::support::net;

namespace {

/// The sender sleeps until this long before a request is due, then spins
/// to the due time: a sleeping thread can wake late on a busy machine, and
/// its lateness would count against the request's latency.
constexpr auto kSpinAhead = std::chrono::microseconds(500);

}  // namespace

ServeClient::ServeClient(const std::string& path, std::size_t connections,
                         std::size_t capacity)
    : slots_(capacity) {
    for (std::size_t c = 0; c < connections; ++c) conns_.push_back(net::connect_unix(path));
    receiver_ = std::thread([this] { receive_loop(); });
}

ServeClient::~ServeClient() {
    stop_ = true;
    receiver_.join();
    for (auto& conn : conns_) conn.close();
}

void ServeClient::send(std::uint64_t id, const std::string& line) {
    if (id >= slots_.size()) throw std::runtime_error("serve client: id capacity exhausted");
    conns_[id % conns_.size()].write_all(line + "\n");
}

std::string ServeClient::call(const std::string& line, double timeout_s) {
    const std::uint64_t id = next_id_++;
    send(id, line);
    std::unique_lock<std::mutex> lock(mutex_);
    answered_cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                          [&] { return slots_[id].answered; });
    return slots_[id].line;
}

OpenLoopLog ServeClient::run(const std::vector<std::string>& lines, double rate,
                             double timeout_s) {
    const std::uint64_t first = next_id_;
    OpenLoopLog log(Clock::now(), rate, lines.size());
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const auto due = log.due(i);
        std::this_thread::sleep_until(due - kSpinAhead);
        while (Clock::now() < due) {
        }
        send(next_id_++, lines[i]);
        log.mark_sent(i, Clock::now());
    }
    const auto deadline = log.due(lines.size()) + std::chrono::duration_cast<Clock::duration>(
                                                      std::chrono::duration<double>(timeout_s));
    std::unique_lock<std::mutex> lock(mutex_);
    answered_cv_.wait_until(lock, deadline, [&] {
        for (std::uint64_t id = first; id < first + lines.size(); ++id) {
            if (!slots_[id].answered) return false;
        }
        return true;
    });
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (slots_[first + i].answered) log.mark_received(i, slots_[first + i].received);
    }
    return log;
}

bool ServeClient::wait_all(double timeout_s) {
    std::unique_lock<std::mutex> lock(mutex_);
    return answered_cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                                 [&] { return answered_ >= next_id_; });
}

std::string ServeClient::response(std::uint64_t id) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return id < slots_.size() ? slots_[id].line : std::string();
}

void ServeClient::deliver(const std::string& line, Clock::time_point when) {
    // The server's handshake is the only line without an id.
    std::uint64_t id = 0;
    try {
        const json::Value value = json::parse(line);
        const json::Value* v = value.find("id");
        if (!v) {
            if (value.find("schema")) return;
            throw std::runtime_error("no id");
        }
        id = static_cast<std::uint64_t>(v->as_number());
    } catch (const std::exception&) {
        ++unmatched_;
        return;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (id >= next_id_ || slots_[id].answered) {
        ++unmatched_;
        return;
    }
    slots_[id].received = when;
    slots_[id].line = line;
    slots_[id].answered = true;
    ++answered_;
    answered_cv_.notify_all();
}

void ServeClient::receive_loop() {
    std::vector<pollfd> fds;
    for (const auto& conn : conns_) fds.push_back({conn.fd(), POLLIN, 0});
    std::vector<std::string> buffers(conns_.size());
    char chunk[1 << 16];
    while (!stop_) {
        if (::poll(fds.data(), fds.size(), 20) <= 0) continue;
        for (std::size_t c = 0; c < fds.size(); ++c) {
            if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
            std::optional<std::size_t> got;
            try {
                got = conns_[c].read_nonblocking(chunk, sizeof chunk);
            } catch (const net::NetError&) {
                got = 0;  // a reset connection: its unanswered requests stay unanswered
            }
            if (!got) continue;
            if (*got == 0) {
                fds[c].fd = -1;  // peer closed; poll ignores negative fds
                continue;
            }
            const auto when = Clock::now();
            buffers[c].append(chunk, *got);
            std::size_t begin = 0;
            for (std::size_t nl; (nl = buffers[c].find('\n', begin)) != std::string::npos;
                 begin = nl + 1) {
                deliver(buffers[c].substr(begin, nl - begin), when);
            }
            buffers[c].erase(0, begin);
        }
    }
}

}  // namespace perfbench
