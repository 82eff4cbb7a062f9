#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace h2obench {

namespace {

uint32_t
threadIndex()
{
    static std::atomic<uint32_t> next{0};
    thread_local uint32_t index = next.fetch_add(1);
    return index;
}

/** Length of the union of [start, end) intervals clipped to [lo, hi). */
double
coveredLength(std::vector<std::pair<double, double>> iv, double lo,
              double hi)
{
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur_lo = lo, cur_hi = lo;
    for (auto [a, b] : iv) {
        a = std::max(a, lo);
        b = std::min(b, hi);
        if (b <= a)
            continue;
        if (a > cur_hi) {
            covered += cur_hi - cur_lo;
            cur_lo = a;
            cur_hi = b;
        } else {
            cur_hi = std::max(cur_hi, b);
        }
    }
    return covered + (cur_hi - cur_lo);
}

} // namespace

Tracer::Tracer() : _origin(Clock::now())
{
    _spans.reserve(1 << 16);
}

uint64_t
Tracer::record(const char *name, Clock::time_point start,
               Clock::time_point end, uint64_t parent, uint64_t job,
               uint64_t id)
{
    Span s;
    s.name = name;
    s.id = id ? id : newId();
    s.parent = parent;
    s.job = job;
    s.start = secondsBetween(_origin, start);
    s.end = secondsBetween(_origin, end);
    s.thread = threadIndex();
    std::lock_guard<std::mutex> lock(_mu);
    _spans.push_back(s);
    return s.id;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(_mu);
    return _spans;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans())
        if (name == s.name)
            out.push_back(s.duration());
    return out;
}

std::vector<double>
Tracer::selfTimes(const std::string &parent_name) const
{
    std::vector<Span> all = spans();
    std::unordered_map<uint64_t, std::vector<std::pair<double, double>>>
        children;
    for (const Span &s : all)
        if (s.parent)
            children[s.parent].push_back({s.start, s.end});
    std::vector<double> out;
    for (const Span &s : all) {
        if (parent_name != s.name)
            continue;
        auto it = children.find(s.id);
        double covered =
            it == children.end()
                ? 0.0
                : coveredLength(it->second, s.start, s.end);
        out.push_back(s.duration() - covered);
    }
    return out;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    std::vector<Span> all = spans();
    std::sort(all.begin(), all.end(),
              [](const Span &a, const Span &b) { return a.start < b.start; });
    for (size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        // Complete events ("ph":"X"), microsecond timestamps.
        std::fprintf(f,
                     "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                     "\"parent\":%llu,\"job\":%llu}}%s\n",
                     s.name, s.thread, s.start * 1e6,
                     s.duration() * 1e6,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.job),
                     i + 1 < all.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

} // namespace h2obench
