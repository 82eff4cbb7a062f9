#include "exec/remote_transport.h"

#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <stdexcept>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "common/logging.h"
#include "exec/wire_io.h"
#include "exec/worker_daemon.h"

namespace h2o::exec {

namespace {

/** Handshake replies time out so a silent endpoint can't wedge the
 *  coordinator (matches the daemon's handshake timeout). */
constexpr long kHandshakeTimeoutMs = 5000;

void
setRecvTimeout(int fd, long ms)
{
    struct timeval tv;
    tv.tv_sec = ms / 1000;
    tv.tv_usec = (ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

/** Blocking TCP connect; -1 on failure (caller owns retries). */
int
connectTcp(const std::string &host, uint16_t port)
{
    struct addrinfo hints;
    std::memset(&hints, 0, sizeof(hints));
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    struct addrinfo *res = nullptr;
    if (::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                      &res) != 0)
        return -1;
    int fd = -1;
    for (struct addrinfo *ai = res; ai != nullptr; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0)
            continue;
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0)
            break;
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(res);
    return fd;
}

enum class HandshakeResult
{
    Ok,
    TransportFailed, ///< endpoint vanished mid-handshake: retryable
    Mismatch,        ///< wrong protocol/version/tasks: fatal, never retry
};

/**
 * Client side of the one-frame-each handshake (server side in
 * worker_daemon.cc::serverHandshake). On Ok, `sessionPid` holds the
 * daemon session pid now serving this connection; on Mismatch, `error`
 * explains the rejection.
 */
HandshakeResult
clientHandshake(int fd, const std::vector<std::string> &requiredTasks,
                pid_t *sessionPid, std::string *error)
{
    WireWriter hello;
    hello.putU32(wire::kHandshakeMagic);
    hello.putU32(wire::kProtocolVersion);
    hello.putU64(wire::taskSetDigest(requiredTasks));
    hello.putU32(static_cast<uint32_t>(requiredTasks.size()));
    for (const auto &name : requiredTasks)
        hello.putBytes(name);
    if (!wire::writeFrame(fd, hello.bytes()))
        return HandshakeResult::TransportFailed;

    std::string frame;
    setRecvTimeout(fd, kHandshakeTimeoutMs);
    bool got = wire::readFrame(fd, frame);
    setRecvTimeout(fd, 0);
    if (!got)
        return HandshakeResult::TransportFailed;

    try {
        WireReader r(frame);
        uint32_t magic = r.getU32();
        uint32_t version = r.getU32();
        if (magic != wire::kHandshakeMagic) {
            *error = "endpoint is not an h2o worker daemon (bad magic)";
            return HandshakeResult::Mismatch;
        }
        uint32_t status = r.getU32();
        std::string message = r.getBytes();
        uint64_t pid = r.getU64();
        r.getU64(); // daemon's full-registry digest (informational)
        if (version != wire::kProtocolVersion) {
            *error = "protocol version mismatch: daemon speaks v" +
                     std::to_string(version) + ", coordinator speaks v" +
                     std::to_string(wire::kProtocolVersion);
            return HandshakeResult::Mismatch;
        }
        if (status != wire::kStatusOk) {
            *error = message;
            return HandshakeResult::Mismatch;
        }
        *sessionPid = static_cast<pid_t>(pid);
    } catch (const std::exception &e) {
        *error = std::string("malformed handshake reply: ") + e.what();
        return HandshakeResult::Mismatch;
    }
    return HandshakeResult::Ok;
}

} // namespace

// ------------------------------------------------------- RemoteEndpoint

std::string
RemoteEndpoint::str() const
{
    if (forkLocal)
        return "local";
    return host + ":" + std::to_string(port);
}

std::vector<RemoteEndpoint>
parseWorkerList(const std::string &csv, const char *origin)
{
    std::vector<RemoteEndpoint> out;
    if (csv.empty())
        return out;

    auto bad = [&](const std::string &entry, const char *why) {
        h2o_fatal("malformed ", origin, " entry '", entry, "' in '", csv,
                  "': ", why,
                  " (expected comma-separated host:port or 'local')");
    };

    size_t start = 0;
    while (start <= csv.size()) {
        size_t comma = csv.find(',', start);
        std::string entry = csv.substr(
            start, comma == std::string::npos ? std::string::npos
                                              : comma - start);
        if (entry.empty())
            bad(entry, "empty entry");
        if (entry == "local") {
            RemoteEndpoint ep;
            ep.forkLocal = true;
            out.push_back(std::move(ep));
        } else {
            size_t colon = entry.rfind(':');
            if (colon == std::string::npos)
                bad(entry, "missing ':port'");
            if (colon == 0)
                bad(entry, "empty host");
            std::string portStr = entry.substr(colon + 1);
            if (portStr.empty())
                bad(entry, "empty port");
            for (char c : portStr) {
                if (!std::isdigit(static_cast<unsigned char>(c)))
                    bad(entry, "port is not a number");
            }
            unsigned long port = 0;
            try {
                port = std::stoul(portStr);
            } catch (const std::exception &) {
                bad(entry, "port is not a number");
            }
            if (port < 1 || port > 65535)
                bad(entry, "port out of range [1, 65535]");
            RemoteEndpoint ep;
            ep.host = entry.substr(0, colon);
            ep.port = static_cast<uint16_t>(port);
            out.push_back(std::move(ep));
        }
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

// ----------------------------------------------------------- RemotePool

RemotePool::RemotePool(RemotePoolConfig config) : _config(std::move(config))
{
    h2o_assert(!_config.endpoints.empty(), "remote pool with zero endpoints");
    _slots.resize(_config.endpoints.size());
    for (size_t i = 0; i < _slots.size(); ++i)
        _slots[i].endpoint = _config.endpoints[i];

    // Fork every local daemon BEFORE opening any TCP connection, so a
    // daemon never inherits another slot's connection fd (holding it
    // would mask that connection's EOF, like the sibling-fd discipline
    // in ProcPool::spawn).
    for (auto &slot : _slots) {
        if (slot.endpoint.forkLocal) {
            LocalDaemon daemon = spawnLocalWorkerDaemon();
            slot.daemonPid = daemon.pid;
            slot.port = daemon.port;
        }
    }
    for (size_t i = 0; i < _slots.size(); ++i)
        connectSlot(i, /*initial=*/true);
}

RemotePool::~RemotePool()
{
    for (auto &slot : _slots) {
        if (slot.fd >= 0)
            ::close(slot.fd);
    }
    for (auto &slot : _slots) {
        if (!slot.endpoint.forkLocal)
            continue;
        // Sessions are the daemon's children, not ours: SIGKILL by pid
        // (reaped by init), then kill + reap the daemon itself.
        if (slot.sessionPid > 0)
            ::kill(slot.sessionPid, SIGKILL);
        if (slot.daemonPid > 0) {
            ::kill(slot.daemonPid, SIGKILL);
            ::waitpid(slot.daemonPid, nullptr, 0);
        }
    }
}

bool
RemotePool::localDaemonAlive(Slot &slot)
{
    if (slot.daemonPid <= 0)
        return false;
    // Reap first: a zombie daemon still "exists" for kill(pid, 0).
    pid_t reaped = ::waitpid(slot.daemonPid, nullptr, WNOHANG);
    if (reaped == slot.daemonPid || (reaped < 0 && errno == ECHILD)) {
        slot.daemonPid = 0;
        return false;
    }
    return true;
}

void
RemotePool::reforkLocalDaemon(Slot &slot)
{
    if (slot.daemonPid > 0) {
        ::kill(slot.daemonPid, SIGKILL);
        ::waitpid(slot.daemonPid, nullptr, 0);
    }
    LocalDaemon daemon = spawnLocalWorkerDaemon();
    slot.daemonPid = daemon.pid;
    slot.port = daemon.port;
}

bool
RemotePool::connectSlot(size_t index, bool initial)
{
    Slot &slot = _slots[index];
    h2o_assert(slot.fd < 0, "reconnecting a live remote slot");
    const std::string host =
        slot.endpoint.forkLocal ? "127.0.0.1" : slot.endpoint.host;
    const uint16_t port =
        slot.endpoint.forkLocal ? slot.port : slot.endpoint.port;
    const std::string label = slot.endpoint.forkLocal
                                  ? "local/" + host + ":" +
                                        std::to_string(port)
                                  : slot.endpoint.str();

    const size_t attempts = std::max<size_t>(1, _config.connectAttempts);
    for (size_t attempt = 0; attempt < attempts; ++attempt) {
        if (attempt > 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(
                _config.connectBackoffMs * static_cast<long>(attempt)));
        int fd = connectTcp(host, port);
        if (fd < 0)
            continue;
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

        pid_t sessionPid = 0;
        std::string error;
        HandshakeResult hs =
            clientHandshake(fd, _config.requiredTasks, &sessionPid, &error);
        if (hs == HandshakeResult::Mismatch) {
            ::close(fd);
            h2o_fatal("worker daemon ", label,
                      " rejected the handshake: ", error);
        }
        if (hs == HandshakeResult::TransportFailed) {
            ::close(fd);
            continue;
        }
        if (_config.callTimeoutMs > 0)
            setRecvTimeout(fd, _config.callTimeoutMs);
        slot.fd = fd;
        slot.sessionPid = sessionPid;
        slot.stats.pid = static_cast<uint64_t>(sessionPid);
        slot.stats.alive = true;
        slot.stats.endpoint = label;
        return true;
    }
    if (initial)
        h2o_fatal("cannot reach worker daemon ", label, " after ", attempts,
                  " connection attempts");
    return false;
}

std::optional<std::string>
RemotePool::call(size_t worker, const std::string &task, uint64_t step,
                 uint64_t shard, const std::string &request)
{
    h2o_assert(worker < _slots.size(), "remote worker out of range");
    Slot &slot = _slots[worker];
    if (slot.fd < 0)
        return std::nullopt; // already known dead; await respawnDead()

    auto reply = wire::callOverFd(slot.fd, task, step, shard, request,
                                  slot.stats.bytesSent,
                                  slot.stats.bytesReceived);
    if (!reply) {
        markDead(worker);
        return std::nullopt;
    }
    ++slot.stats.tasksServed;
    return reply;
}

void
RemotePool::markDead(size_t index)
{
    Slot &slot = _slots[index];
    if (slot.fd >= 0) {
        ::close(slot.fd);
        slot.fd = -1;
    }
    slot.sessionPid = 0;
    slot.stats.alive = false;
    slot.stats.pid = 0;
}

bool
RemotePool::alive(size_t worker) const
{
    h2o_assert(worker < _slots.size(), "remote worker out of range");
    return _slots[worker].fd >= 0;
}

void
RemotePool::respawnDead()
{
    for (size_t i = 0; i < _slots.size(); ++i) {
        Slot &slot = _slots[i];
        if (slot.fd >= 0)
            continue;
        // A fork-local slot whose daemon died needs a whole new daemon
        // (fresh listener, fresh port) before reconnecting.
        if (slot.endpoint.forkLocal && !localDaemonAlive(slot))
            reforkLocalDaemon(slot);
        bool connected = connectSlot(i, /*initial=*/false);
        if (!connected && slot.endpoint.forkLocal) {
            // The daemon looked alive but refused: it may have died
            // after the liveness check. Replace it and try once more.
            reforkLocalDaemon(slot);
            connected = connectSlot(i, /*initial=*/false);
        }
        if (connected)
            ++slot.stats.respawns;
        // else: endpoint still unreachable; the slot stays dead and its
        // shards keep retrying (degrading on attempt exhaustion).
    }
}

void
RemotePool::killWorker(size_t worker)
{
    h2o_assert(worker < _slots.size(), "remote worker out of range");
    pid_t pid = _slots[worker].sessionPid;
    if (pid > 0)
        ::kill(pid, SIGKILL);
}

pid_t
RemotePool::workerPid(size_t worker) const
{
    h2o_assert(worker < _slots.size(), "remote worker out of range");
    return _slots[worker].sessionPid > 0 ? _slots[worker].sessionPid : 0;
}

void
RemotePool::killDaemon(size_t worker)
{
    h2o_assert(worker < _slots.size(), "remote worker out of range");
    Slot &slot = _slots[worker];
    if (slot.daemonPid > 0) {
        // Reap synchronously: once this returns the daemon is gone, so
        // respawnDead() re-forks it instead of retrying its listener.
        ::kill(slot.daemonPid, SIGKILL);
        ::waitpid(slot.daemonPid, nullptr, 0);
        slot.daemonPid = 0;
    }
}

pid_t
RemotePool::daemonPid(size_t worker) const
{
    h2o_assert(worker < _slots.size(), "remote worker out of range");
    return _slots[worker].daemonPid > 0 ? _slots[worker].daemonPid : 0;
}

ProcPoolStats
RemotePool::stats() const
{
    ProcPoolStats s;
    s.workers.reserve(_slots.size());
    for (const auto &slot : _slots)
        s.workers.push_back(slot.stats);
    return s;
}

} // namespace h2o::exec
