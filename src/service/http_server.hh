/**
 * @file
 * Dependency-free HTTP/1.1 server for the campaign service daemon.
 *
 * A single poll(2)-driven event loop (in the pazpar2 style: one
 * non-blocking listen socket plus per-connection input/output
 * buffers) parses requests, hands each to a caller-supplied handler,
 * and streams the response back, tolerating partial reads and writes.
 * Keep-alive and pipelining are supported; the loop itself is
 * single-threaded, so handlers must be fast -- the campaign service
 * keeps them to queue operations and store reads, with all simulation
 * on the scheduler's worker threads.
 *
 * The loop wakes at least every `pollTimeoutMs` to re-check its stop
 * conditions, so both stop() from another thread and a SIGINT/SIGTERM
 * via support/shutdown.hh shut the server down promptly; poll() being
 * interrupted by a signal (EINTR) is handled as an early wake-up.
 *
 * Protocol limits (64 KiB of headers, 8 MiB of body) turn oversized
 * or malformed traffic into 4xx responses, never unbounded buffering.
 *
 * etc_http_requests_total counts each response under the label its
 * handler stamped on it (HttpResponse::endpoint). The campaign router
 * stamps its route's label; parse errors, unmatched paths and a plain
 * handler's responses count as "other", so a path-scanning client
 * cannot mint new series.
 */

#ifndef ETC_SERVICE_HTTP_SERVER_HH
#define ETC_SERVICE_HTTP_SERVER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace etc::service {

/** One parsed HTTP request. */
struct HttpRequest
{
    std::string method;  //!< "GET", "POST", ...
    std::string target;  //!< raw request target ("/v1/jobs?x=1")
    std::string version; //!< "HTTP/1.1"
    std::vector<std::pair<std::string, std::string>> headers;
    std::string body;

    /** @return the value of @p name (case-insensitive), or nullptr. */
    const std::string *header(const std::string &name) const;

    /** @return the target's path (the part before any '?'). */
    std::string path() const;

    /** @return the first value of query parameter @p key, if any
     *  (raw, no percent-decoding -- values here are plain names). */
    std::optional<std::string> queryParam(const std::string &key) const;

    /** @return every value of the repeatable parameter @p key, in
     *  target order. */
    std::vector<std::string> queryParams(const std::string &key) const;
};

/** One HTTP response (the handler's return value). */
struct HttpResponse
{
    int status = 200;
    std::string contentType = "application/json";
    std::string body;
    std::string endpoint = "other"; //!< the route label it counts under

    static HttpResponse json(int status, std::string body);
    static HttpResponse text(int status, std::string body);
};

/** @return the standard reason phrase for @p status. */
const char *statusReason(int status);

using HttpHandler = std::function<HttpResponse(const HttpRequest &)>;

class HttpServer
{
  public:
    /**
     * Bind and listen on 127.0.0.1:@p port (0 picks an ephemeral
     * port; read it back with port()). Throws FatalError when the
     * address is unavailable.
     */
    HttpServer(uint16_t port, HttpHandler handler);

    ~HttpServer();

    HttpServer(const HttpServer &) = delete;
    HttpServer &operator=(const HttpServer &) = delete;

    /** @return the actually bound TCP port. */
    uint16_t port() const { return port_; }

    /**
     * Run one poll iteration: accept new connections, read/parse
     * requests, dispatch complete ones, flush pending output. Returns
     * after at most @p timeoutMs of idle waiting.
     */
    void pollOnce(int timeoutMs);

    /**
     * Serve until stop() is called or a process-wide stop is
     * requested (support/shutdown.hh).
     */
    void run(int pollTimeoutMs = 200);

    /** Make run() return after its current iteration (thread-safe). */
    void stop();

    /** Log one inform() access line per request (method, path,
     *  status, bytes, latency). Off by default; `--verbose` turns it
     *  on so 4xx/5xx responses stop being invisible. */
    void setAccessLog(bool enabled) { accessLog_ = enabled; }

  private:
    struct Connection
    {
        int fd = -1;
        std::string in;      //!< bytes read, not yet parsed
        std::string out;     //!< bytes to write
        bool closeAfterWrite = false;
        uint64_t served = 0; //!< requests answered on this connection
    };

    void acceptReady();
    bool readReady(Connection &conn);   //!< false = close connection
    bool writeReady(Connection &conn);  //!< false = close connection
    void closeConnection(size_t index);

    /** Parse + dispatch every complete request in conn.in. */
    bool dispatchBuffered(Connection &conn);

    /** Record the request's latency and, with setAccessLog(true),
     *  emit one inform() line for it. */
    void logAccess(const std::string &method, const std::string &path,
                   int status, size_t bytes,
                   std::chrono::steady_clock::time_point started);

    HttpHandler handler_;
    int listenFd_ = -1;
    uint16_t port_ = 0;
    bool accessLog_ = false;
    unsigned muteAcceptRounds_ = 0; //!< fd-exhaustion accept backoff
    std::vector<Connection> connections_;
    std::atomic<bool> stopped_{false};
};

} // namespace etc::service

#endif // ETC_SERVICE_HTTP_SERVER_HH
