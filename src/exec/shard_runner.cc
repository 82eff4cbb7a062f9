#include "exec/shard_runner.h"

#include <chrono>
#include <thread>

#include "common/logging.h"

namespace h2o::exec {

std::vector<size_t>
StepReport::survivors() const
{
    std::vector<size_t> ok;
    ok.reserve(shards.size());
    for (size_t s = 0; s < shards.size(); ++s)
        if (shards[s].state != ShardState::Degraded)
            ok.push_back(s);
    return ok;
}

ShardRunner::ShardRunner(ShardTransport &transport, ShardRunnerConfig config,
                         FaultInjector *injector)
    : _transport(transport), _config(config), _injector(injector)
{
    h2o_assert(_config.numShards > 0, "runner with zero shards");
    h2o_assert(_config.maxAttempts > 0, "runner with zero attempts");
    h2o_assert(_config.backoffBaseMs >= 0.0, "negative backoff");
    if (_transport.size() > 1)
        _io = std::make_unique<ThreadPool>(_transport.size());
}

bool
ShardRunner::runShardAttempts(size_t step, size_t shard, size_t slot,
                              const ShardTask &task, ShardAttempt &st)
{
    while (st.attemptsUsed < _config.maxAttempts) {
        const size_t attempt = st.attemptsUsed++;
        st.result.attempts = attempt + 1;

        // Injected faults strike before encode: a preempted or failed
        // attempt never draws its sample.
        FaultKind fault = _injector
                              ? _injector->decide(step, shard, attempt)
                              : FaultKind::None;
        if (fault == FaultKind::Preempt) {
            _injector->record(fault);
            st.result.state = ShardState::Degraded;
            st.settled = true;
            return true;
        }
        if (fault == FaultKind::Fail) {
            _injector->record(fault);
            if (attempt + 1 < _config.maxAttempts &&
                _config.backoffBaseMs > 0.0) {
                auto delay = std::chrono::duration<double, std::milli>(
                    _config.backoffBaseMs *
                    static_cast<double>(1ULL << attempt));
                std::this_thread::sleep_for(delay);
            }
            continue;
        }
        if (fault == FaultKind::Straggle) {
            _injector->record(fault);
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(
                    _injector->config().stragglerDelayMs));
        }

        try {
            // Encode at most once per step: a transport retry must
            // resend the SAME bytes so the shard's RNG stream advances
            // exactly once, like an unkilled run.
            if (!st.request)
                st.request = task.encode(shard);
        } catch (const std::exception &e) {
            common::warn("shard ", shard, " attempt ", attempt,
                         " failed encoding: ", e.what());
            st.request.reset();
            continue;
        }

        std::optional<std::string> reply;
        if (task.name.empty()) {
            reply = std::move(st.request);
        } else {
            try {
                reply = _transport.call(slot, task.name, step, shard,
                                        *st.request);
            } catch (const std::exception &e) {
                // The task threw: warn, consume the attempt, re-run
                // from the draw.
                common::warn("shard ", shard, " attempt ", attempt,
                             " failed: ", e.what());
                st.request.reset();
                continue;
            }
        }
        if (!reply) {
            // Worker death mid-call. The attempt is spent, the encoded
            // request is kept, and the shard (plus everything queued
            // behind it on this slot) waits for the respawn round.
            return false;
        }
        st.response = std::move(reply);
        st.result.state =
            attempt == 0 ? ShardState::Ok : ShardState::Retried;
        st.settled = true;
        return true;
    }
    st.result.state = ShardState::Degraded;
    st.settled = true;
    return true;
}

StepReport
ShardRunner::runStep(size_t step, const ShardTask &task)
{
    h2o_assert(task.encode && task.decode, "malformed shard task");
    const size_t n = _config.numShards;
    const size_t slots = _transport.size();
    std::vector<ShardAttempt> shards(n);

    // Rounds: run every unsettled shard on its slot; a worker death ends
    // that slot's round early, and the next round begins by re-forking
    // (or reconnecting) every corpse from current coordinator state.
    // Each round with a dead worker consumes at least one attempt of its
    // first pending shard, so the loop terminates.
    bool pending = true;
    while (pending) {
        if (!task.name.empty())
            _transport.respawnDead();

        // Ascending shard lists per slot (shard s -> slot s % slots).
        std::vector<std::vector<size_t>> assigned(slots);
        for (size_t s = 0; s < n; ++s)
            if (!shards[s].settled)
                assigned[s % slots].push_back(s);

        auto runLane = [&](size_t w) {
            for (size_t s : assigned[w]) {
                if (!runShardAttempts(step, s, w, task, shards[s])) {
                    ++_transportFailures;
                    break; // corpse: defer the rest of this lane
                }
            }
        };

        if (!_io) {
            runLane(0);
        } else {
            std::vector<std::future<void>> lanes;
            lanes.reserve(slots);
            for (size_t w = 0; w < slots; ++w) {
                if (!assigned[w].empty())
                    lanes.push_back(_io->submit([&, w] { runLane(w); }));
            }
            // The cross-shard barrier for this round.
            for (auto &f : lanes)
                f.get();
        }

        pending = false;
        for (const auto &st : shards)
            if (!st.settled) {
                pending = true;
                break;
            }
    }

    // Apply responses in ascending shard order on this thread, so
    // decoders that touch shared state see the serial schedule.
    StepReport report;
    report.shards.reserve(n);
    for (size_t s = 0; s < n; ++s) {
        if (shards[s].response)
            task.decode(s, *shards[s].response);
        if (shards[s].result.state == ShardState::Degraded)
            ++_degradedShardSteps;
        report.shards.push_back(shards[s].result);
    }
    return report;
}

} // namespace h2o::exec
