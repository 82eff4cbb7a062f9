/**
 * @file
 * Shared frame I/O for the shard transports.
 *
 * One u32-length-prefixed frame format, one request encoding, one
 * request/response round-trip helper and one worker-side serve loop —
 * used by BOTH the fork transport (proc_transport.cc, socketpair) and
 * the TCP transport (remote_transport.cc / worker_daemon.cc). Sharing
 * the code is the byte-identity argument: a ShardTask frame is the
 * same bytes whether it crosses a UNIX socketpair or a TCP connection,
 * because both paths run through these functions.
 *
 * Also home of the remote-worker handshake constants: a connecting
 * coordinator and a worker daemon exchange one frame each (magic,
 * protocol version, task-registry digest) before any task traffic, so
 * mismatched binaries fail fast instead of corrupting a search.
 */

#ifndef H2O_EXEC_WIRE_IO_H
#define H2O_EXEC_WIRE_IO_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "exec/proc_transport.h"

namespace h2o::exec::wire {

/** Frames above this are a protocol bug, not a payload. */
inline constexpr uint32_t kMaxFrameBytes = 1u << 30;

/** Response status codes. */
inline constexpr uint32_t kStatusOk = 0;
inline constexpr uint32_t kStatusError = 1;

/** Handshake magic ("H2OW") and protocol version. Bump the version on
 *  ANY change to the frame format, request encoding or handshake. */
inline constexpr uint32_t kHandshakeMagic = 0x48324F57u;
inline constexpr uint32_t kProtocolVersion = 1;

/** Loop a full send over partial writes; MSG_NOSIGNAL so a dead peer
 *  surfaces as EPIPE instead of killing the process. */
bool sendAll(int fd, const void *data, size_t len);

/** Loop a full recv; false on EOF, error or recv timeout (peer death). */
bool recvAll(int fd, void *data, size_t len);

/** Write one length-prefixed frame. */
bool writeFrame(int fd, const std::string &payload);

/** Read one length-prefixed frame; false on EOF/error/corrupt length. */
bool readFrame(int fd, std::string &payload);

/** Encode one task request frame payload:
 *  [bytes task][u64 step][u64 shard][bytes request]. */
std::string encodeRequest(const std::string &task, uint64_t step,
                          uint64_t shard, const std::string &request);

/**
 * One request/response round trip over an already-established framed
 * channel (socketpair or TCP — identical bytes either way). Returns the
 * response payload on success; std::nullopt on transport failure (the
 * caller marks the slot dead); throws std::runtime_error when the
 * worker reported a task error. Byte counters are advanced for each
 * direction that completed, matching the coordinator-side telemetry
 * contract.
 */
std::optional<std::string> callOverFd(int fd, const std::string &task,
                                      uint64_t step, uint64_t shard,
                                      const std::string &request,
                                      uint64_t &bytesSent,
                                      uint64_t &bytesReceived);

/**
 * Worker-side serve loop: read request frames from `fd`, execute them
 * against `tasks`, reply status+payload, until the peer hangs up (or a
 * reply fails). Task exceptions are marshalled as kStatusError replies;
 * the loop keeps serving. Shared by ProcPool fork workers and daemon
 * session processes.
 */
void serveRequestLoop(int fd, const std::map<std::string, ProcTaskFn> &tasks);

/**
 * Order-independent digest of a task-name set (FNV-1a over the sorted
 * names). The handshake compares coordinator and daemon digests so a
 * coordinator never drives a daemon built from different task code.
 */
uint64_t taskSetDigest(std::vector<std::string> names);

} // namespace h2o::exec::wire

#endif // H2O_EXEC_WIRE_IO_H
