/**
 * @file
 * Graceful SIGINT/SIGTERM handling for long-running front ends.
 *
 * A production attribution run must not lose hours of Monte Carlo
 * work to a routine pod eviction. Front ends call
 * installShutdownHandler() once at startup; the handler only sets an
 * atomic flag (async-signal-safe), and cooperative loops poll
 * shutdownRequested() at natural boundaries — the checkpointed trial
 * loop checks before starting each chunk, and the attribution
 * pipeline checks between stages. The contract, tested by
 * the kill-signal ctest scripts:
 *
 *  1. the current checkpoint chunk finishes and is flushed to disk;
 *  2. a RunHealth report (when requested) is still written, marked
 *     `interrupted`;
 *  3. the process exits with kInterruptExitCode (130), so scripts
 *     can tell "stopped on request" from both success (0), bad
 *     input (2), and a crash (anything else).
 */

#ifndef FAIRCO2_RESILIENCE_SIGNALS_HH
#define FAIRCO2_RESILIENCE_SIGNALS_HH

namespace fairco2::resilience
{

/** Exit status for a run stopped by SIGINT/SIGTERM (128 + SIGINT). */
constexpr int kInterruptExitCode = 130;

/**
 * Install the SIGINT/SIGTERM handler (idempotent). The handler only
 * records the signal; it never exits, so in-flight work can finish
 * its current unit and flush state.
 */
void installShutdownHandler();

/** True once SIGINT or SIGTERM has been received. */
bool shutdownRequested();

/** The signal number received, or 0. */
int shutdownSignal();

/** Clear the flag (test support; never call from production code). */
void resetShutdownForTest();

} // namespace fairco2::resilience

#endif // FAIRCO2_RESILIENCE_SIGNALS_HH
