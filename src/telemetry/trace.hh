/**
 * @file
 * Lightweight span tracer emitting Chrome Trace Event Format records
 * as JSONL: one complete-event object (`"ph":"X"`) per line. Load a
 * trace in Perfetto (ui.perfetto.dev) or chrome://tracing after
 * wrapping the lines in a JSON array, e.g.:
 *
 *     jq -s . campaign.trace.jsonl > campaign.trace.json
 *
 * Enabled by `--trace-out FILE` on the etc_lab subcommands that run,
 * serve or read campaigns (`etc_lab --help` names them). When
 * disabled (the default), a span costs one relaxed atomic load --
 * cheap enough for per-trial spans on the campaign fast paths. When
 * enabled, events buffer in memory and flush on close (and
 * periodically), serialized under one mutex.
 *
 * Tracing is observation only: it never feeds an RNG draw or a cache
 * key, so campaign tallies and fidelity bits are bit-identical with
 * tracing on or off (pinned by gang_determinism_test.cc).
 */

#ifndef ETC_TELEMETRY_TRACE_HH
#define ETC_TELEMETRY_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>

namespace etc::telemetry {

class Tracer
{
  public:
    static Tracer &instance();

    /** Start writing spans to @p path (truncating). FatalError when
     *  the file cannot be created. */
    void open(const std::string &path);

    /** Flush buffered events and stop tracing (idempotent). */
    void close();

    /** @return true when spans should be recorded (relaxed load). */
    bool
    enabled() const noexcept
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Microseconds since the tracer singleton was created. */
    uint64_t nowMicros() const;

    /**
     * Emit one complete event ("ph":"X"). @p argsJson, when nonempty,
     * is a pre-rendered JSON object (e.g. `{"trial":17}`). No-op when
     * tracing is disabled.
     */
    void emitComplete(const char *category, const char *name,
                      uint64_t startMicros, uint64_t durationMicros,
                      const std::string &argsJson = {});

    ~Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

  private:
    Tracer();

    /** Stable small integer for the calling thread (caller holds
     *  mutex_). */
    unsigned threadId();

    std::atomic<bool> enabled_{false};
    std::mutex mutex_;
    std::string path_;
    std::string buffer_;
    std::map<std::thread::id, unsigned> threadIds_;
    std::chrono::steady_clock::time_point epoch_;
};

/**
 * RAII complete-event span. Construction samples the start time only
 * when tracing is enabled; destruction emits the event. Callers build
 * @p argsJson only behind an enabled() check to keep the disabled
 * path allocation-free:
 *
 *     TraceSpan span("engine", "trial");
 *     if (span.active())
 *         span.setArgs("{\"trial\":" + std::to_string(t) + "}");
 */
class TraceSpan
{
  public:
    TraceSpan(const char *category, const char *name)
        : category_(category), name_(name),
          active_(Tracer::instance().enabled())
    {
        if (active_)
            startMicros_ = Tracer::instance().nowMicros();
    }

    ~TraceSpan()
    {
        if (!active_)
            return;
        Tracer &tracer = Tracer::instance();
        tracer.emitComplete(category_, name_, startMicros_,
                            tracer.nowMicros() - startMicros_, args_);
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    bool active() const { return active_; }

    /** Attach a pre-rendered JSON args object to the event. */
    void setArgs(std::string argsJson) { args_ = std::move(argsJson); }

  private:
    const char *category_;
    const char *name_;
    std::string args_;
    uint64_t startMicros_ = 0;
    bool active_;
};

} // namespace etc::telemetry

#endif // ETC_TELEMETRY_TRACE_HH
