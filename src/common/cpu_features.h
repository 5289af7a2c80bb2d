#ifndef TARA_COMMON_CPU_FEATURES_H_
#define TARA_COMMON_CPU_FEATURES_H_

namespace tara {

/// ISA extensions the decode kernels can dispatch on. Detected once per
/// process; all-false on non-x86 builds so callers fall back to the
/// portable scalar path without per-site #ifdefs.
struct CpuFeatures {
  bool sse41 = false;
  /// Probed but not dispatched on: a 32-byte AVX2 loop decodes at about a
  /// third of the SSE4 kernel's rate (DESIGN.md, decode kernels). The
  /// dispatch test uses it to model an AVX2 host.
  bool avx2 = false;
};

/// Cached runtime CPUID probe.
const CpuFeatures& GetCpuFeatures();

/// True when the TARA_FORCE_SCALAR environment variable is set to a
/// non-empty value other than "0". Pins kernel dispatch to the scalar
/// reference so CI can exercise the fallback on SIMD-capable hosts.
/// Read once and cached; changing the variable mid-process has no effect.
bool ScalarDecodeForced();

}  // namespace tara

#endif  // TARA_COMMON_CPU_FEATURES_H_
