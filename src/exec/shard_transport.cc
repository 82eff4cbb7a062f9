#include "exec/shard_transport.h"

#include <stdexcept>
#include <unistd.h>

#include "common/logging.h"

namespace h2o::exec {

// -------------------------------------------------------- ProcPoolStats

uint64_t
ProcPoolStats::totalTasksServed() const
{
    uint64_t n = 0;
    for (const auto &w : workers)
        n += w.tasksServed;
    return n;
}

uint64_t
ProcPoolStats::totalRespawns() const
{
    uint64_t n = 0;
    for (const auto &w : workers)
        n += w.respawns;
    return n;
}

uint64_t
ProcPoolStats::totalBytes() const
{
    uint64_t n = 0;
    for (const auto &w : workers)
        n += w.bytesSent + w.bytesReceived;
    return n;
}

// --------------------------------------------------- InProcessTransport

InProcessTransport::InProcessTransport(size_t slots, std::string task,
                                       ProcTaskFn fn)
    : _slots(slots), _task(std::move(task)), _fn(std::move(fn))
{
    h2o_assert(_slots > 0, "in-process transport with zero slots");
}

std::optional<std::string>
InProcessTransport::call(size_t worker, const std::string &task,
                         uint64_t step, uint64_t shard,
                         const std::string &request)
{
    h2o_assert(worker < _slots, "in-process slot out of range");
    if (!_fn || task != _task)
        throw std::runtime_error("task '" + task +
                                 "' is not served in-process");
    return _fn(step, shard, request);
}

void
InProcessTransport::killWorker(size_t)
{
    h2o_fatal("an in-process slot has no worker process to kill");
}

pid_t
InProcessTransport::workerPid(size_t worker) const
{
    h2o_assert(worker < _slots, "in-process slot out of range");
    return ::getpid();
}

// ------------------------------------------------------- MixedTransport

MixedTransport::MixedTransport(
    std::vector<std::unique_ptr<ShardTransport>> parts)
    : _parts(std::move(parts))
{
    h2o_assert(!_parts.empty(), "mixed transport with no parts");
    for (const auto &part : _parts) {
        h2o_assert(part != nullptr, "null transport part");
        _size += part->size();
    }
    h2o_assert(_size > 0, "mixed transport with zero worker slots");
}

std::pair<ShardTransport *, size_t>
MixedTransport::route(size_t slot) const
{
    h2o_assert(slot < _size, "mixed transport slot out of range");
    for (const auto &part : _parts) {
        if (slot < part->size())
            return {part.get(), slot};
        slot -= part->size();
    }
    h2o_panic("unreachable: mixed transport routing");
}

std::optional<std::string>
MixedTransport::call(size_t worker, const std::string &task, uint64_t step,
                     uint64_t shard, const std::string &request)
{
    auto [part, local] = route(worker);
    return part->call(local, task, step, shard, request);
}

bool
MixedTransport::alive(size_t worker) const
{
    auto [part, local] = route(worker);
    return part->alive(local);
}

void
MixedTransport::respawnDead()
{
    for (auto &part : _parts)
        part->respawnDead();
}

void
MixedTransport::killWorker(size_t worker)
{
    auto [part, local] = route(worker);
    part->killWorker(local);
}

pid_t
MixedTransport::workerPid(size_t worker) const
{
    auto [part, local] = route(worker);
    return part->workerPid(local);
}

ProcPoolStats
MixedTransport::stats() const
{
    ProcPoolStats s;
    s.workers.reserve(_size);
    for (const auto &part : _parts) {
        ProcPoolStats ps = part->stats();
        for (auto &w : ps.workers)
            s.workers.push_back(std::move(w));
    }
    return s;
}

} // namespace h2o::exec
