/**
 * @file
 * h2o_workerd — a standalone remote worker daemon.
 *
 * Serves the ShardTask wire protocol over TCP (see worker_daemon.h)
 * for coordinators started with --workers host:port. This generic shell
 * registers only the built-in "h2o/echo" task (wire-level smoke tests
 * and connectivity probes); real deployments embed exec::WorkerDaemon
 * in the APPLICATION binary after registering the application's tasks —
 * the same binary on every host, which is exactly what the handshake's
 * task-registry digest enforces.
 */

#include <string>

#include "common/flags.h"
#include "common/logging.h"
#include "exec/proc_transport.h"
#include "exec/wire_io.h"
#include "exec/worker_daemon.h"

int
main(int argc, char **argv)
{
    h2o::common::Flags flags;
    flags.defineString("host", "127.0.0.1",
                       "bind address (0.0.0.0 to accept from other hosts)");
    flags.defineInt("port", 9123, "TCP port to listen on (0 = ephemeral)");
    flags.defineInt("max_sessions", 0,
                    "exit after serving this many connections (0 = forever)");
    flags.parse(argc, argv);

    // The built-in connectivity-probe task: replies with its request.
    h2o::exec::ProcTaskRegistration echo(
        "h2o/echo", [](uint64_t, uint64_t, const std::string &request) {
            return request;
        });

    h2o::exec::WorkerDaemonConfig config;
    config.host = flags.getString("host");
    config.port = static_cast<uint16_t>(flags.getInt("port"));
    config.maxSessions = static_cast<size_t>(flags.getInt("max_sessions"));

    h2o::exec::WorkerDaemon daemon(config);
    auto tasks = h2o::exec::registeredTaskNames();
    h2o::common::inform("h2o_workerd listening on ", config.host, ":",
                        daemon.port(), " serving ", tasks.size(),
                        " task(s), registry digest ",
                        h2o::exec::wire::taskSetDigest(tasks));
    daemon.serve();
    return 0;
}
