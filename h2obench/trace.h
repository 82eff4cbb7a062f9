/**
 * @file
 * The traced run's span recorder. Spans are recorded by the benchmark's
 * own code around its calls into each layer (the program under test is
 * not instrumented), kept in memory, and written once at exit as Chrome
 * trace-event JSON, which chrome://tracing and Perfetto open offline.
 *
 * A span has a name, start, end, the span that caused it (0 = none) and
 * the job it belongs to (0 = none): every span of one served job shares
 * that job's id, and a search step's parent is the scheduling round that
 * ran it.
 */

#ifndef H2OBENCH_TRACE_H
#define H2OBENCH_TRACE_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "harness.h"

namespace h2obench {

struct Span
{
    const char *name = "";
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t job = 0;
    /** Seconds since the tracer's origin. */
    double start = 0.0;
    double end = 0.0;
    /** Small per-thread index for the trace viewer's rows. */
    uint32_t thread = 0;

    double duration() const { return end - start; }
};

class Tracer
{
  public:
    Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    uint64_t newId() { return _nextId.fetch_add(1) + 1; }

    /** Record a finished span; returns its id (newly drawn when 0). */
    uint64_t record(const char *name, Clock::time_point start,
                    Clock::time_point end, uint64_t parent = 0,
                    uint64_t job = 0, uint64_t id = 0);

    /** Every span recorded so far, in record order. */
    std::vector<Span> spans() const;

    /** Durations (seconds) of every span with this name. */
    std::vector<double> durations(const std::string &name) const;

    /** Self time of every `parent_name` span: its duration minus the
     *  union of its direct children's intervals, seconds. */
    std::vector<double> selfTimes(const std::string &parent_name) const;

    /** Write the Chrome trace-event JSON file. False on I/O failure. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    Clock::time_point _origin;
    std::atomic<uint64_t> _nextId{0};
    mutable std::mutex _mu;
    std::vector<Span> _spans; ///< guarded by _mu
};

/** RAII span: records [construction, destruction) on `tracer` when it
 *  is non-null, and costs one branch when it is null. */
class SpanScope
{
  public:
    SpanScope(Tracer *tracer, const char *name, uint64_t parent = 0,
              uint64_t job = 0)
        : _tracer(tracer), _name(name), _parent(parent), _job(job)
    {
        if (_tracer) {
            _id = _tracer->newId();
            _start = Clock::now();
        }
    }
    ~SpanScope()
    {
        if (_tracer)
            _tracer->record(_name, _start, Clock::now(), _parent, _job,
                            _id);
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    uint64_t id() const { return _id; }

  private:
    Tracer *_tracer;
    const char *_name;
    uint64_t _parent;
    uint64_t _job;
    uint64_t _id = 0;
    Clock::time_point _start;
};

} // namespace h2obench

#endif // H2OBENCH_TRACE_H
