// Graceful-shutdown signal handling for long sweeps.
//
// A SignalGuard installs SIGINT/SIGTERM handlers for its lifetime. The
// handlers do the only async-signal-safe thing possible — record the signal
// number in a static atomic — and the sweep engines check it as each unit
// of work is about to start, so an interrupted sweep lets its in-flight
// units finish, starts no other, journals a `suspended` record (under
// --run-dir), flushes partial artifacts through the atomic writers, and
// exits with the conventional 128+signo code (130 for SIGINT, 143 for
// SIGTERM) instead of dying mid-write.
//
// One guard at a time: the class is a scoped singleton (nested guards are a
// programming error and assert). The destructor restores the previous
// handlers, so library users — tests in particular — can scope it tightly.
#pragma once

#include <atomic>
#include <stdexcept>

namespace selcache::support {

/// Thrown by a sweep that a stop (a guarded signal) kept from starting all
/// of its units. Results saved before the stop stay valid.
class RunSuspended : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class SignalGuard {
 public:
  /// Installs the SIGINT/SIGTERM handlers. No-ops on platforms without
  /// sigaction (the stop flag then simply never fires).
  SignalGuard();
  /// Restores the previously installed handlers.
  ~SignalGuard();

  SignalGuard(const SignalGuard&) = delete;
  SignalGuard& operator=(const SignalGuard&) = delete;

  /// Has a guarded signal arrived? (Sticky until reset().)
  static bool stop_requested() { return signal_number() != 0; }

  /// The first guarded signal received (SIGINT/SIGTERM), or 0.
  static int signal_number() {
    return signo_.load(std::memory_order_relaxed);
  }

  /// Conventional exit code for the received signal: 128+signo (130 for
  /// SIGINT, 143 for SIGTERM); 0 when no signal arrived.
  static int exit_code();

  /// The stop flag as a pollable token — the same atomic the handlers set,
  /// nonzero meaning stop. Stable for the process lifetime, so it can be
  /// handed to consumers that outlive the guard.
  static const std::atomic<int>* token() { return &signo_; }

  /// Record a signal. Async-signal-safe; only the first call sticks. Public
  /// for the extern "C" handler and for tests that simulate a delivery.
  static void note_signal(int signo) {
    int expected = 0;
    signo_.compare_exchange_strong(expected, signo,
                                   std::memory_order_relaxed);
  }

  /// Clear a recorded signal (tests; a second run in one process).
  static void reset() { signo_.store(0, std::memory_order_relaxed); }

 private:
  static std::atomic<int> signo_;  ///< 0 = no signal yet
  struct Saved;
  Saved* saved_;  ///< previous sigaction state (pimpl keeps <csignal> out)
};

}  // namespace selcache::support
