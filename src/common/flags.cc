#include "common/flags.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "common/logging.h"

namespace h2o::common {

void
Flags::defineInt(const std::string &name, int64_t def, const std::string &help)
{
    _specs[name] = Spec{Type::Int, std::to_string(def), help};
}

void
Flags::defineDouble(const std::string &name, double def,
                    const std::string &help)
{
    _specs[name] = Spec{Type::Double, std::to_string(def), help};
}

void
Flags::defineString(const std::string &name, const std::string &def,
                    const std::string &help)
{
    _specs[name] = Spec{Type::String, def, help};
}

void
Flags::defineBool(const std::string &name, bool def, const std::string &help)
{
    _specs[name] = Spec{Type::Bool, def ? "true" : "false", help};
}

void
Flags::printUsage(const char *argv0) const
{
    std::fprintf(stderr, "usage: %s [--flag=value ...]\n", argv0);
    for (const auto &[name, spec] : _specs) {
        std::fprintf(stderr, "  --%-24s %s (default: %s)\n", name.c_str(),
                     spec.help.c_str(), spec.value.c_str());
    }
}

void
Flags::parse(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printUsage(argv[0]);
            std::exit(0);
        }
        if (arg.rfind("--", 0) != 0)
            h2o_fatal("unexpected positional argument '", arg, "'");
        arg = arg.substr(2);
        std::string name, value;
        auto eq = arg.find('=');
        if (eq != std::string::npos) {
            name = arg.substr(0, eq);
            value = arg.substr(eq + 1);
        } else {
            name = arg;
            auto it = _specs.find(name);
            if (it != _specs.end() && it->second.type == Type::Bool) {
                value = "true";
            } else if (i + 1 < argc) {
                value = argv[++i];
            } else {
                h2o_fatal("flag --", name, " is missing a value");
            }
        }
        auto it = _specs.find(name);
        if (it == _specs.end())
            h2o_fatal("unknown flag --", name);
        // Validate numeric flags eagerly so typos fail at parse time.
        if (it->second.type == Type::Int) {
            char *end = nullptr;
            errno = 0;
            (void)std::strtoll(value.c_str(), &end, 10);
            if (end == value.c_str() || *end != '\0' || errno == ERANGE)
                h2o_fatal("flag --", name, " expects an integer, got '",
                          value, "'");
        } else if (it->second.type == Type::Double) {
            char *end = nullptr;
            (void)std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0')
                h2o_fatal("flag --", name, " expects a number, got '", value,
                          "'");
        } else if (it->second.type == Type::Bool) {
            if (value != "true" && value != "false")
                h2o_fatal("flag --", name, " expects true/false, got '",
                          value, "'");
        }
        it->second.value = value;
    }
}

const Flags::Spec &
Flags::lookup(const std::string &name, Type type) const
{
    auto it = _specs.find(name);
    h2o_assert(it != _specs.end(), "flag --", name, " was never defined");
    h2o_assert(it->second.type == type, "flag --", name,
               " fetched with wrong type");
    return it->second;
}

int64_t
Flags::getInt(const std::string &name) const
{
    return std::strtoll(lookup(name, Type::Int).value.c_str(), nullptr, 10);
}

size_t
Flags::getSize(const std::string &name) const
{
    const int64_t v = getInt(name);
    if (v < 0)
        h2o_fatal("flag --", name, " expects a non-negative integer, got ",
                  v);
    return static_cast<size_t>(v);
}

double
Flags::getDouble(const std::string &name) const
{
    return std::strtod(lookup(name, Type::Double).value.c_str(), nullptr);
}

std::string
Flags::getString(const std::string &name) const
{
    return lookup(name, Type::String).value;
}

bool
Flags::getBool(const std::string &name) const
{
    return lookup(name, Type::Bool).value == "true";
}

std::optional<int64_t>
parseEnvCount(const char *text)
{
    if (*text == '\0')
        return std::nullopt;
    int64_t v = 0;
    for (const char *c = text; *c != '\0'; ++c) {
        if (*c < '0' || *c > '9')
            return std::nullopt;
        const int digit = *c - '0';
        if (v > (INT64_MAX - digit) / 10)
            return std::nullopt;
        v = v * 10 + digit;
    }
    return v;
}

int64_t
threadsFlagDefault()
{
    const char *env = std::getenv("H2O_THREADS");
    if (!env || *env == '\0')
        return 0;
    const std::optional<int64_t> v = parseEnvCount(env);
    if (!v) {
        warn("ignoring malformed H2O_THREADS='", env, "'");
        return 0;
    }
    return *v;
}

void
defineThreadsFlag(Flags &flags)
{
    flags.defineInt("threads", threadsFlagDefault(),
                    "worker threads for shard evaluation (0 = one per "
                    "hardware thread; default from H2O_THREADS)");
}

} // namespace h2o::common
