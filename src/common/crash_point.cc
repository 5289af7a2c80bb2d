#include "common/crash_point.h"

#include <csignal>

#include <atomic>

namespace tara {
namespace {

// Remaining crossings before the kill; negative means disarmed. Relaxed
// is enough: the injector is armed before the exercised code runs, in
// the same thread or before a fork.
std::atomic<long> g_remaining{-1};

}  // namespace

void CrashPoint(const char* /*site*/) {
  if (g_remaining.load(std::memory_order_relaxed) < 0) return;
  if (g_remaining.fetch_sub(1, std::memory_order_relaxed) == 0) {
    // SIGKILL cannot be caught: no destructors, no stream flushes —
    // the closest user-space stand-in for a power cut.
    std::raise(SIGKILL);
  }
}

void ArmCrashPoint(long index) {
  g_remaining.store(index, std::memory_order_relaxed);
}

}  // namespace tara
