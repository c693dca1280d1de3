/**
 * @file
 * Cooperative shutdown: a process-wide stop flag plus SIGINT/SIGTERM
 * handlers that set it.
 *
 * Long-running drivers (`etc_lab run`, `etc_lab serve`) poll
 * stopRequested() at persistence boundaries -- before starting a
 * stripe of a cell (a pass asks once per stripe) and between cells --
 * so a signal finishes and persists the stripes in flight, then exits
 * cleanly with a summary instead of dying mid-write.
 * A second signal while the first is still draining force-exits
 * immediately (the escape hatch for a wedged run).
 */

#ifndef ETC_SUPPORT_SHUTDOWN_HH
#define ETC_SUPPORT_SHUTDOWN_HH

namespace etc {

/**
 * Install SIGINT/SIGTERM handlers that call requestStop(). Idempotent;
 * call once at the top of a long-running command.
 */
void installStopSignalHandlers();

/** Set the stop flag (async-signal-safe). */
void requestStop();

/** @return whether a stop has been requested. */
bool stopRequested();

/** Clear the stop flag (tests and repeated in-process commands). */
void clearStopRequest();

} // namespace etc

#endif // ETC_SUPPORT_SHUTDOWN_HH
