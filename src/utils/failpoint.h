#ifndef EDDE_UTILS_FAILPOINT_H_
#define EDDE_UTILS_FAILPOINT_H_

#include <atomic>
#include <cstddef>
#include <string>

#include "utils/status.h"

namespace edde {
namespace failpoint {

/// Deterministic fault injection for the durability subsystem.
///
/// A *failpoint* is a named site in the code (`EDDE_FAILPOINT("durable.rename")`)
/// that normally does nothing. Activating a site — via the EDDE_FAILPOINTS
/// environment variable or SetSpec() — makes the site inject one of four
/// faults, so the checkpoint/resume machinery can be proven against every
/// crash and corruption mode it claims to survive (see DESIGN.md §11 and
/// tests/checkpoint_resume_test.cc).
///
/// Spec grammar (comma-separated):
///   site=error        every hit returns Status::IOError
///   site=error:N      the first N hits fail, later hits succeed
///                     (exercises the durable-IO retry/backoff path)
///   site=crash        _exit(kCrashExitCode) on the first hit — simulates
///                     `kill -9` / power loss; no destructors, no flushes
///   site=crash:N      crash on the Nth hit instead of the first
///   site=short_write  the durable writer drops the final bytes of the file
///                     before commit (default 16; `short_write:N` drops N) —
///                     simulates a torn write the CRC framing must catch
///   site=delay:N      sleep N milliseconds per hit (race-window widening)
///
/// N is decimal digits only (no sign or blanks) and at most 2^63 − 1.
///
/// Cost contract: when no spec is armed, a compiled-in site is exactly one
/// relaxed atomic load and an untaken branch. Results are bit-identical
/// with the framework compiled in but inactive.
///
/// The active spec is recorded in the run manifest (key "failpoints"), so
/// any artifact produced under fault injection says so.

/// Exit code used by the `crash` action (raw _exit, skips atexit/flushes).
inline constexpr int kCrashExitCode = 42;

/// Canonical site catalog. Sites are plain string literals, so this list is
/// documentation + torture-test input rather than an enforced registry;
/// keep it in sync with DESIGN.md §11 when adding sites.
///
/// Ordering matters: the first kNumTrainingSites entries are on the
/// training/checkpoint path and are what the checkpoint torture test
/// crashes at (every one must be hit by a short training run). Entries
/// after that belong to other subsystems (shutdown, serving) with their
/// own failpoint-driven tests.
inline constexpr const char* kSites[] = {
    "durable.write",     // payload written to the temp file (short_write here)
    "durable.fsync",     // fsync of the temp file before rename
    "durable.rename",    // rename(temp -> final)
    "durable.dirsync",   // fsync of the parent directory after rename
    "checkpoint.round",  // round boundary, before the generation write
    "checkpoint.commit", // generation committed, before rotation/cleanup
    "trainer.epoch",     // epoch boundary, after the inflight checkpoint
    // --- non-training sites below (not part of the checkpoint torture) ---
    "shutdown.flush",    // after the pool drain, before the sink flush
    "serve.accept",      // connection accepted, before the reader starts
    "serve.batch",       // batch formed, before member evaluation
    "serve.http",        // http request parsed, before handler dispatch
    "serve.reload.read", // hot reload: before the new artifact is read
    "serve.reload.swap", // hot reload: candidate validated, before the swap
    "serve.deadline",    // batch dispatch, before the deadline-shed check
    "serve.write",       // ordered writer, before each response frame send
};
inline constexpr size_t kNumSites = sizeof(kSites) / sizeof(kSites[0]);
inline constexpr size_t kNumTrainingSites = 7;
static_assert(kNumTrainingSites <= kNumSites);

/// Parses and arms `spec` (replacing any previous spec). Empty spec is
/// equivalent to Clear(). Invalid specs return InvalidArgument and leave
/// the previous spec armed.
Status SetSpec(const std::string& spec);

/// Disarms every site.
void Clear();

/// Arms from the EDDE_FAILPOINTS environment variable (no-op when unset).
/// Called by ApplyCommonFlags; library embedders call SetSpec directly.
void InitFromEnv();

/// True when any site is armed (the fast-path gate).
bool AnyActive();

/// The currently armed spec ("" when disarmed).
std::string CurrentSpec();

/// Slow path behind EDDE_FAILPOINT: applies the armed action for `site`.
/// error -> non-OK Status; crash -> _exit; delay -> sleep; otherwise OK.
Status Hit(const char* site);

/// Bytes the durable writer should drop from the tail of the file when
/// `site` is armed with short_write; 0 otherwise. Consults but does not
/// consume the spec (every write through the site is torn).
size_t ShortWriteBytes(const char* site);

namespace internal {
/// Fast-path gate: false ⇒ EDDE_FAILPOINT is one relaxed load.
extern std::atomic<bool> g_armed;
}  // namespace internal

}  // namespace failpoint
}  // namespace edde

/// Fire-and-forget site (crash / delay actions; an armed `error` action is
/// ignored here — use EDDE_FAILPOINT_STATUS where a Status can propagate).
#define EDDE_FAILPOINT(site)                                          \
  do {                                                                \
    if (::edde::failpoint::internal::g_armed.load(                    \
            std::memory_order_relaxed)) {                             \
      (void)::edde::failpoint::Hit(site);                             \
    }                                                                 \
  } while (false)

/// Status-propagating site: an armed `error` action returns the injected
/// Status from the enclosing function.
#define EDDE_FAILPOINT_STATUS(site)                                   \
  do {                                                                \
    if (::edde::failpoint::internal::g_armed.load(                    \
            std::memory_order_relaxed)) {                             \
      ::edde::Status _fp_status = ::edde::failpoint::Hit(site);       \
      if (!_fp_status.ok()) return _fp_status;                        \
    }                                                                 \
  } while (false)

#endif  // EDDE_UTILS_FAILPOINT_H_
