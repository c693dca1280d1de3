#include "service/http_server.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "support/logging.hh"
#include "support/shutdown.hh"
#include "telemetry/metrics.hh"

namespace etc::service {

namespace {

// Oversized traffic becomes a 4xx, never unbounded buffering.
constexpr size_t MAX_HEADER_BYTES = 64 * 1024;
constexpr size_t MAX_BODY_BYTES = 8 * 1024 * 1024;

/** HTTP-layer metrics (the per-endpoint x status request counters
 *  register lazily; see requestCounter below). */
struct HttpMetrics
{
    telemetry::Histogram &requestSeconds = telemetry::histogram(
        "etc_http_request_seconds",
        "Handler latency per request (parse to serialized response)",
        {0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5,
         30});
    telemetry::Counter &bytesIn = telemetry::counter(
        "etc_http_bytes_in_total",
        "Request bytes consumed (request line, headers, body)");
    telemetry::Counter &bytesOut = telemetry::counter(
        "etc_http_bytes_out_total",
        "Response bytes queued (status line, headers, body)");
    telemetry::Counter &keepAliveReuse = telemetry::counter(
        "etc_http_keepalive_reuse_total",
        "Requests served on an already-used (kept-alive) connection");
};

HttpMetrics &
httpMetrics()
{
    static HttpMetrics metrics;
    return metrics;
}

/**
 * Collapse a request path to a bounded endpoint label: known /v1
 * routes keep their first two segments (ids/fingerprints become "*"),
 * anything else -- arbitrary 404 targets included -- is "other", so a
 * path-scanning client cannot mint unbounded label cardinality.
 */
std::string
normalizeEndpoint(const std::string &path)
{
    static const char *const known[] = {
        "/v1/jobs", "/v1/cells",   "/v1/experiments",
        "/v1/policies", "/v1/figures", "/v1/analysis",
        "/v1/healthz", "/v1/metricz",
    };
    for (const char *prefix : known) {
        size_t n = std::strlen(prefix);
        if (path.compare(0, n, prefix) != 0)
            continue;
        if (path.size() == n)
            return prefix;
        if (path[n] == '/')
            return std::string(prefix) + "/*";
    }
    return "other";
}

/** The (endpoint, status) series of etc_http_requests_total. The
 *  registry lookup is mutex-guarded but cheap; request dispatch is
 *  not a simulation hot path. */
telemetry::Counter &
requestCounter(const std::string &endpoint, int status)
{
    return telemetry::counter(
        "etc_http_requests_total",
        "endpoint=\"" + telemetry::escapeLabelValue(endpoint) +
            "\",status=\"" + std::to_string(status) + "\"",
        "Requests served, by normalized endpoint and response status");
}

bool
equalsIgnoreCase(const std::string &a, const std::string &b)
{
    return a.size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin(),
                      [](unsigned char x, unsigned char y) {
                          return std::tolower(x) == std::tolower(y);
                      });
}

void
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

std::string
serializeResponse(const HttpResponse &response, bool keepAlive)
{
    std::string out = "HTTP/1.1 ";
    out += std::to_string(response.status);
    out += ' ';
    out += statusReason(response.status);
    out += "\r\nContent-Type: ";
    out += response.contentType;
    out += "\r\nContent-Length: ";
    out += std::to_string(response.body.size());
    out += keepAlive ? "\r\nConnection: keep-alive"
                     : "\r\nConnection: close";
    out += "\r\n\r\n";
    out += response.body;
    return out;
}

/**
 * Parse one request out of @p in (consuming it). Returns:
 *   1  a complete request was parsed into @p request
 *   0  the buffer holds only a prefix; read more
 *  -1  the buffer is malformed; @p error holds a response to send
 */
int
parseRequest(std::string &in, HttpRequest &request,
             HttpResponse &error)
{
    size_t headerEnd = in.find("\r\n\r\n");
    // Enforce the limit whether or not the terminator has arrived: an
    // oversized header block delivered in one burst must be rejected,
    // not parsed.
    if (std::min(headerEnd, in.size()) > MAX_HEADER_BYTES) {
        error = HttpResponse::json(
            431, "{\"error\":\"request header block exceeds 64 "
                 "KiB\",\"status\":431}");
        return -1;
    }
    if (headerEnd == std::string::npos)
        return 0;

    request = HttpRequest{};
    size_t lineEnd = in.find("\r\n");
    std::string requestLine = in.substr(0, lineEnd);
    size_t sp1 = requestLine.find(' ');
    size_t sp2 = sp1 == std::string::npos
                     ? std::string::npos
                     : requestLine.find(' ', sp1 + 1);
    if (sp2 == std::string::npos || sp1 == 0 || sp2 == sp1 + 1 ||
        sp2 + 1 >= requestLine.size()) {
        error = HttpResponse::json(
            400,
            "{\"error\":\"malformed request line\",\"status\":400}");
        return -1;
    }
    request.method = requestLine.substr(0, sp1);
    request.target = requestLine.substr(sp1 + 1, sp2 - sp1 - 1);
    request.version = requestLine.substr(sp2 + 1);
    if (request.version.rfind("HTTP/", 0) != 0) {
        error = HttpResponse::json(
            400,
            "{\"error\":\"malformed HTTP version\",\"status\":400}");
        return -1;
    }

    size_t cursor = lineEnd + 2;
    while (cursor < headerEnd) {
        size_t end = in.find("\r\n", cursor);
        std::string line = in.substr(cursor, end - cursor);
        cursor = end + 2;
        size_t colon = line.find(':');
        if (colon == std::string::npos || colon == 0) {
            error = HttpResponse::json(
                400,
                "{\"error\":\"malformed header line\",\"status\":400}");
            return -1;
        }
        std::string name = line.substr(0, colon);
        size_t valueStart = line.find_first_not_of(" \t", colon + 1);
        std::string value = valueStart == std::string::npos
                                ? ""
                                : line.substr(valueStart);
        request.headers.emplace_back(std::move(name), std::move(value));
    }

    size_t bodyLength = 0;
    if (const std::string *length = request.header("Content-Length")) {
        char *parseEnd = nullptr;
        errno = 0;
        unsigned long long parsed =
            std::strtoull(length->c_str(), &parseEnd, 10);
        if (errno != 0 || parseEnd == length->c_str() ||
            *parseEnd != '\0') {
            error = HttpResponse::json(
                400,
                "{\"error\":\"malformed Content-Length\",\"status\":"
                "400}");
            return -1;
        }
        if (parsed > MAX_BODY_BYTES) {
            error = HttpResponse::json(
                413, "{\"error\":\"request body exceeds 8 "
                     "MiB\",\"status\":413}");
            return -1;
        }
        bodyLength = static_cast<size_t>(parsed);
    }

    size_t bodyStart = headerEnd + 4;
    if (in.size() < bodyStart + bodyLength)
        return 0;
    request.body = in.substr(bodyStart, bodyLength);
    in.erase(0, bodyStart + bodyLength);
    return 1;
}

} // namespace

const std::string *
HttpRequest::header(const std::string &name) const
{
    for (const auto &[key, value] : headers)
        if (equalsIgnoreCase(key, name))
            return &value;
    return nullptr;
}

std::string
HttpRequest::path() const
{
    return target.substr(0, target.find('?'));
}

std::optional<std::string>
HttpRequest::queryParam(const std::string &key) const
{
    std::vector<std::string> values = queryParams(key);
    if (values.empty())
        return std::nullopt;
    return std::move(values.front());
}

std::vector<std::string>
HttpRequest::queryParams(const std::string &key) const
{
    std::vector<std::string> values;
    size_t question = target.find('?');
    if (question == std::string::npos)
        return values;
    size_t cursor = question + 1;
    while (cursor < target.size()) {
        size_t end = target.find('&', cursor);
        if (end == std::string::npos)
            end = target.size();
        std::string pair = target.substr(cursor, end - cursor);
        cursor = end + 1;
        size_t eq = pair.find('=');
        if (eq == std::string::npos || pair.substr(0, eq) != key)
            continue;
        values.push_back(pair.substr(eq + 1));
    }
    return values;
}

HttpResponse
HttpResponse::json(int status, std::string body)
{
    return HttpResponse{status, "application/json", std::move(body)};
}

HttpResponse
HttpResponse::text(int status, std::string body)
{
    return HttpResponse{status, "text/plain; charset=utf-8",
                        std::move(body)};
}

const char *
statusReason(int status)
{
    switch (status) {
      case 200: return "OK";
      case 202: return "Accepted";
      case 400: return "Bad Request";
      case 404: return "Not Found";
      case 405: return "Method Not Allowed";
      case 409: return "Conflict";
      case 413: return "Payload Too Large";
      case 431: return "Request Header Fields Too Large";
      case 500: return "Internal Server Error";
      case 501: return "Not Implemented";
      default: return "Unknown";
    }
}

HttpServer::HttpServer(uint16_t port, HttpHandler handler)
    : handler_(std::move(handler))
{
    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        fatal("http server: socket(): ", std::strerror(errno));

    int enable = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &enable,
                 sizeof(enable));

    sockaddr_in address = {};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    address.sin_port = htons(port);
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&address),
               sizeof(address)) < 0) {
        int savedErrno = errno;
        ::close(listenFd_);
        fatal("http server: cannot bind 127.0.0.1:", port, ": ",
              std::strerror(savedErrno));
    }
    if (::listen(listenFd_, 64) < 0) {
        int savedErrno = errno;
        ::close(listenFd_);
        fatal("http server: listen(): ", std::strerror(savedErrno));
    }

    socklen_t addressLength = sizeof(address);
    if (::getsockname(listenFd_,
                      reinterpret_cast<sockaddr *>(&address),
                      &addressLength) == 0)
        port_ = ntohs(address.sin_port);
    setNonBlocking(listenFd_);
}

HttpServer::~HttpServer()
{
    for (auto &conn : connections_)
        ::close(conn.fd);
    if (listenFd_ >= 0)
        ::close(listenFd_);
}

void
HttpServer::acceptReady()
{
    while (true) {
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            // Out of descriptors: the pending connection stays in the
            // backlog, so the listen fd would report readable on
            // every poll -- a 100% CPU spin. Mute it for a while and
            // let connections drain first.
            if (errno == EMFILE || errno == ENFILE)
                muteAcceptRounds_ = 50;
            return; // otherwise EAGAIN or transient; poll again
        }
        setNonBlocking(fd);
        int enable = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable,
                     sizeof(enable));
        Connection conn;
        conn.fd = fd;
        connections_.push_back(std::move(conn));
    }
}

void
HttpServer::logAccess(const std::string &method,
                      const std::string &path, int status, size_t bytes,
                      std::chrono::steady_clock::time_point started)
{
    auto micros =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - started)
            .count();
    httpMetrics().requestSeconds.observe(
        static_cast<double>(micros) / 1e6);
    if (accessLog_)
        inform("http: ", method, " ", path, " -> ", status, " ",
               bytes, "B ", micros, "us");
}

bool
HttpServer::dispatchBuffered(Connection &conn)
{
    // Drain every complete pipelined request before returning to
    // poll(); responses queue in order on the output buffer.
    while (true) {
        HttpRequest request;
        HttpResponse error;
        size_t inBefore = conn.in.size();
        auto started = std::chrono::steady_clock::now();
        int parsed = parseRequest(conn.in, request, error);
        if (parsed == 0)
            return true;
        // Bytes the parser consumed = this request's wire size (on a
        // parse error nothing is consumed; count what was buffered).
        httpMetrics().bytesIn.add(parsed < 0 ? inBefore
                                             : inBefore - conn.in.size());
        if (parsed < 0) {
            std::string wire = serializeResponse(error, false);
            httpMetrics().bytesOut.add(wire.size());
            requestCounter("other", error.status).add();
            logAccess("-", "-", error.status, wire.size(), started);
            conn.out += wire;
            conn.closeAfterWrite = true;
            return true;
        }

        HttpResponse response;
        try {
            response = handler_(request);
        } catch (const std::exception &e) {
            response = HttpResponse::json(
                500, "{\"error\":\"internal error\",\"status\":500}");
            warn("http server: handler threw: ", e.what());
        }

        bool keepAlive = request.version != "HTTP/1.0";
        if (const std::string *connection =
                request.header("Connection")) {
            if (equalsIgnoreCase(*connection, "close"))
                keepAlive = false;
            else if (equalsIgnoreCase(*connection, "keep-alive"))
                keepAlive = true;
        }
        std::string wire = serializeResponse(response, keepAlive);
        httpMetrics().bytesOut.add(wire.size());
        requestCounter(normalizeEndpoint(request.path()),
                       response.status)
            .add();
        if (conn.served > 0)
            httpMetrics().keepAliveReuse.add();
        ++conn.served;
        logAccess(request.method, request.path(), response.status,
                  wire.size(), started);
        conn.out += wire;
        if (!keepAlive) {
            conn.closeAfterWrite = true;
            return true;
        }
    }
}

bool
HttpServer::readReady(Connection &conn)
{
    bool eof = false;
    char buffer[16 * 1024];
    while (true) {
        ssize_t n = ::read(conn.fd, buffer, sizeof(buffer));
        if (n > 0) {
            conn.in.append(buffer, static_cast<size_t>(n));
            continue;
        }
        if (n == 0) {
            eof = true;
            break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        return false;
    }
    bool keep = dispatchBuffered(conn);
    if (eof) {
        // Half-close: the request bytes and the FIN can arrive in the
        // same poll round, so answer what was buffered, flush, then
        // close -- never drop a complete request unanswered.
        conn.closeAfterWrite = true;
        return keep && !conn.out.empty();
    }
    return keep;
}

bool
HttpServer::writeReady(Connection &conn)
{
    while (!conn.out.empty()) {
        // MSG_NOSIGNAL: a client that disconnected before the flush
        // must surface as EPIPE on this connection, not as a
        // process-killing SIGPIPE for the whole daemon.
        ssize_t n = ::send(conn.fd, conn.out.data(), conn.out.size(),
                           MSG_NOSIGNAL);
        if (n > 0) {
            conn.out.erase(0, static_cast<size_t>(n));
            continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return true;
        if (errno == EINTR)
            continue;
        return false;
    }
    return !conn.closeAfterWrite;
}

void
HttpServer::closeConnection(size_t index)
{
    ::close(connections_[index].fd);
    connections_.erase(connections_.begin() +
                       static_cast<ptrdiff_t>(index));
}

void
HttpServer::pollOnce(int timeoutMs)
{
    // acceptReady() below appends to connections_, so remember how
    // many the pollfd array actually covers: fds[i + 1] must stay
    // paired with connections_[i] or events land on the wrong
    // connection.
    size_t polled = connections_.size();
    std::vector<pollfd> fds;
    fds.reserve(polled + 1);
    short listenEvents = POLLIN;
    if (muteAcceptRounds_ > 0) {
        --muteAcceptRounds_;
        listenEvents = 0; // fd exhaustion backoff (see acceptReady)
    }
    fds.push_back({listenFd_, listenEvents, 0});
    for (size_t i = 0; i < polled; ++i) {
        // A draining connection (half-closed peer) would report POLLIN
        // forever; only its remaining output matters.
        short events = connections_[i].closeAfterWrite
                           ? short{0}
                           : short{POLLIN};
        if (!connections_[i].out.empty())
            events |= POLLOUT;
        fds.push_back({connections_[i].fd, events, 0});
    }

    int ready = ::poll(fds.data(), fds.size(), timeoutMs);
    if (ready <= 0)
        return; // timeout, EINTR (signal -> caller re-checks), or error

    if (fds[0].revents & POLLIN)
        acceptReady();

    // Walk backwards so closing a connection does not shift the
    // indices of the ones still to visit (freshly accepted
    // connections sit past `polled` and are untouched this round).
    for (size_t i = polled; i-- > 0;) {
        short revents = fds[i + 1].revents;
        if (revents == 0)
            continue;
        Connection &conn = connections_[i];
        bool alive = true;
        if (revents & (POLLERR | POLLNVAL))
            alive = false;
        if (alive && (revents & (POLLIN | POLLHUP)))
            alive = readReady(conn);
        if (alive && !conn.out.empty())
            alive = writeReady(conn);
        else if (alive && conn.closeAfterWrite)
            alive = false;
        if (!alive)
            closeConnection(i);
    }
}

void
HttpServer::run(int pollTimeoutMs)
{
    while (!stopped_.load() && !stopRequested())
        pollOnce(pollTimeoutMs);
}

void
HttpServer::stop()
{
    stopped_.store(true);
}

} // namespace etc::service
