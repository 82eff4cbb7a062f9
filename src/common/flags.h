/**
 * @file
 * A minimal command-line flag parser for the bench and example binaries.
 *
 * Flags take the form --name=value or --name value. Unknown flags are a
 * fatal error (user mistake), so typos are caught instead of silently
 * running the default configuration.
 */

#ifndef H2O_COMMON_FLAGS_H
#define H2O_COMMON_FLAGS_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace h2o::common {

/**
 * Parses argv against a set of registered flags with defaults.
 */
class Flags
{
  public:
    /** Register an integer flag with its default and help string. */
    void defineInt(const std::string &name, int64_t def,
                   const std::string &help);

    /** Register a floating-point flag. */
    void defineDouble(const std::string &name, double def,
                      const std::string &help);

    /** Register a string flag. */
    void defineString(const std::string &name, const std::string &def,
                      const std::string &help);

    /** Register a boolean flag (--name or --name=true/false). */
    void defineBool(const std::string &name, bool def,
                    const std::string &help);

    /**
     * Parse argv. Recognizes --help (prints usage, exits 0). Fatal on
     * unknown flags or malformed values.
     */
    void parse(int argc, char **argv);

    /** Fetch a parsed (or default) integer flag. */
    int64_t getInt(const std::string &name) const;

    /** Fetch an integer flag that counts something (threads, workers):
     *  fatal when it is negative. */
    size_t getSize(const std::string &name) const;

    /** Fetch a parsed (or default) double flag. */
    double getDouble(const std::string &name) const;

    /** Fetch a parsed (or default) string flag. */
    std::string getString(const std::string &name) const;

    /** Fetch a parsed (or default) boolean flag. */
    bool getBool(const std::string &name) const;

  private:
    enum class Type { Int, Double, String, Bool };

    struct Spec
    {
        Type type;
        std::string value;
        std::string help;
    };

    const Spec &lookup(const std::string &name, Type type) const;
    void printUsage(const char *argv0) const;

    std::map<std::string, Spec> _specs;
};

/**
 * Default value for a --threads flag: the H2O_THREADS environment
 * variable when set (and a valid non-negative integer), otherwise 0,
 * which the execution runtime resolves to one worker per hardware
 * thread. The command line always wins over the environment.
 */
int64_t threadsFlagDefault();

/** Register the standard --threads flag with the shared help text. */
void defineThreadsFlag(Flags &flags);

/** Parse an environment count: decimal digits only, within int64_t.
 *  nullopt for anything else (signs, spaces, overflow, empty). */
std::optional<int64_t> parseEnvCount(const char *text);

} // namespace h2o::common

#endif // H2O_COMMON_FLAGS_H
