#ifndef TARA_CORE_DECODE_KERNELS_H_
#define TARA_CORE_DECODE_KERNELS_H_

// The archive has one decoder, TarArchive::VisitEntries. This header only
// names it for perfbench's trace, which prints it as a run property; the
// benchmark change of ROADMAP.md item 1 removes the header with that call.

namespace tara::decode {

struct DecodeKernel {
  const char* name;
};

inline const DecodeKernel& ActiveDecodeKernel() {
  static constexpr DecodeKernel kScalar{"scalar"};
  return kScalar;
}

}  // namespace tara::decode

#endif  // TARA_CORE_DECODE_KERNELS_H_
