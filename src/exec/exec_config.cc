#include "exec/exec_config.h"

#include <cstdlib>

#include "common/logging.h"
#include "exec/remote_transport.h"

namespace h2o::exec {

namespace {

/** H2O_PROCS, else 0; fatal unless it is a decimal count. */
int64_t
procsFlagDefault()
{
    const char *env = std::getenv("H2O_PROCS");
    if (!env || *env == '\0')
        return 0;
    const std::optional<int64_t> v = common::parseEnvCount(env);
    if (!v)
        h2o_fatal("malformed H2O_PROCS='", env,
                  "': expected a non-negative integer (0 = in-process, "
                  "N = N worker processes)");
    return *v;
}

/** H2O_WORKERS, else ""; fatal unless parseWorkerList accepts it (only
 *  the syntax — reachability is checked when the remote pool
 *  connects). */
std::string
workersFlagDefault()
{
    const char *env = std::getenv("H2O_WORKERS");
    if (!env || *env == '\0')
        return "";
    (void)parseWorkerList(env, "H2O_WORKERS");
    return env;
}

} // namespace

void
defineExecFlags(common::Flags &flags)
{
    common::defineThreadsFlag(flags);
    flags.defineInt("procs", procsFlagDefault(),
                    "worker processes for shard evaluation (0 = "
                    "in-process threads; default from H2O_PROCS)");
    flags.defineString("workers", workersFlagDefault(),
                       "comma-separated remote worker daemons for shard "
                       "evaluation ('host:port', or 'local' to fork a "
                       "loopback daemon); empty = none (default from "
                       "H2O_WORKERS)");
}

ExecConfig
execConfigFromFlags(const common::Flags &flags)
{
    ExecConfig config;
    config.threads = flags.getSize("threads");
    config.procs = flags.getSize("procs");
    config.workers = flags.getString("workers");
    return config;
}

} // namespace h2o::exec
