/**
 * @file
 * The tlcd explorer daemon: a long-lived server that accepts sweep
 * requests over a Unix-domain socket and streams results back, so
 * many clients can share one trace pool and one persistent result
 * store instead of each paying the cold-start cost.
 *
 * Wire protocol (docs/service.md): length-prefixed CRC-32 frames —
 * the exact codec the fault-isolation supervisor speaks on its
 * result pipes (util/supervisor.hh FrameReader/writeFrame). The
 * client sends ONE frame per request, holding a canonical
 * "tlc-sweep-request-v1" document (service/sweep_codec.hh); the
 * server answers with a stream of JSON event frames discriminated by
 * their "event" member:
 *
 *   progress  {"event":"progress","done":..,"total":..,"failed":..,
 *              "elapsed_seconds":..,"eta_seconds":..}
 *   response  {"event":"response","chunk":"..","last":bool} —
 *             consecutive chunks concatenate to the canonical
 *             response document (chunking keeps every frame under
 *             the 1 MiB cap)
 *   stats     {"event":"stats","chunk":".."} — the accounting
 *             document, always the LAST event of a served request
 *   error     {"event":"error","code":"..","message":".."} — the
 *             request could not be decoded (connection stays open)
 *             or the byte stream violated the frame protocol
 *             (connection closes)
 *
 * A connection may submit any number of requests sequentially; EOF
 * at a frame boundary is a clean goodbye. Concurrency: each
 * connection is served by its own thread, while sweep EXECUTION is
 * serialized inside SweepService — overlapping clients are accepted
 * concurrently, run in arrival order, and the later one's repeated
 * points resolve from the shared store (warm, near-free).
 *
 * Lifecycle: start() binds, listens and spawns the accept loop,
 * which joins each connection thread whose client has gone (so a
 * long-lived daemon holds threads for live connections only);
 * stop() (idempotent, also run by the destructor) finishes in-flight
 * requests, joins every connection thread and unlinks the socket.
 * tlcd (tools/tlcd.cc) wires SIGTERM/SIGINT to stop() for clean
 * shutdown; check.sh drills it.
 */

#ifndef TLC_SERVICE_DAEMON_HH
#define TLC_SERVICE_DAEMON_HH

#include <atomic>
#include <list>
#include <mutex>
#include <string>
#include <thread>

#include "service/sweep_service.hh"
#include "util/status.hh"

namespace tlc::service {

class SweepDaemon
{
  public:
    /** Serve @p service (not owned; must outlive the daemon) on
     *  @p socket_path. */
    SweepDaemon(SweepService &service, std::string socket_path);
    ~SweepDaemon();

    SweepDaemon(const SweepDaemon &) = delete;
    SweepDaemon &operator=(const SweepDaemon &) = delete;

    /** Bind + listen + spawn the accept loop. IoError/InvalidConfig
     *  Status when the socket cannot be set up. */
    Status start();

    /** Drain: no new connections, finish in-flight requests, join
     *  every thread, unlink the socket. Idempotent. */
    void stop();

    bool running() const { return started_; }
    const std::string &socketPath() const { return socketPath_; }

  private:
    /** One connection's thread; done flips as the thread exits. */
    struct Connection
    {
        std::thread thread;
        std::atomic<bool> done{false};
    };

    void acceptLoop();
    void reapFinished();
    void serveConnection(int fd);
    void handleRequest(int fd, std::mutex &write_mu, bool &dead,
                       const std::string &text);

    SweepService &service_;
    std::string socketPath_;
    int listenFd_ = -1;
    std::atomic<bool> stop_{false};
    bool started_ = false;
    std::thread acceptThread_;
    std::mutex connsMu_;
    std::list<Connection> conns_; ///< list: nodes never move
};

} // namespace tlc::service

#endif // TLC_SERVICE_DAEMON_HH
