#ifndef TARA_COMMON_CRASH_POINT_H_
#define TARA_COMMON_CRASH_POINT_H_

/// Crash-point injection for durability tests.
///
/// The persistence path calls CrashPoint("site") between every pair of
/// durability steps (after a write, before the fsync; after the fsync,
/// before the rename; ...). In production builds the call is a single
/// relaxed atomic load and branch. Tests arm the N-th crossing with
/// ArmCrashPoint(n) in a forked child, and the armed crossing terminates
/// the process with SIGKILL, exactly as a power failure would: no
/// destructors, no buffered-stream flushes, no atexit handlers.
namespace tara {

/// Kills the process (SIGKILL) if the armed crossing count reaches zero.
/// `site` names the durability step just completed, for test diagnostics.
void CrashPoint(const char* site);

/// Arms the injector: the `index`-th CrashPoint crossing from now (0-based)
/// kills the process. Call in a freshly forked child before exercising the
/// persistence path. A negative index disarms.
void ArmCrashPoint(long index);

}  // namespace tara

#endif  // TARA_COMMON_CRASH_POINT_H_
