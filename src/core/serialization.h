#ifndef TARA_CORE_SERIALIZATION_H_
#define TARA_CORE_SERIALIZATION_H_

#include <iosfwd>
#include <string>

#include "core/kb_storage.h"
#include "core/tara_engine.h"

namespace tara {

/// Stream-level serialization of a TARA knowledge base: the stream form
/// of kb_storage.h (header + per-window segments) as one contiguous
/// stream. The offline phase can thus run once — on a beefier
/// machine or a schedule — and the interactive explorer reloads the index
/// in milliseconds, which is how a deployment of the paper's Figure 2
/// architecture would separate its two halves.
///
/// Output is deterministic: byte-identical for the same window sequence
/// regardless of build parallelism or whether windows arrived via
/// BuildAll or live AppendWindow calls. For incremental on-disk
/// persistence (append = one new block file + manifest) use the TARAKB3
/// directory API in kb_blocks.h.

/// Writes the knowledge base of `snapshot` to `out`.
void SaveKnowledgeBase(const KnowledgeBaseSnapshot& snapshot,
                       std::ostream* out);

/// Writes `engine`'s current generation to `out`.
void SaveKnowledgeBase(const TaraEngine& engine, std::ostream* out);

/// Reads a knowledge base written by SaveKnowledgeBase. The stream is
/// untrusted input: wrong magic, truncation, or corruption yields a
/// LoadError, never an abort. `metrics` becomes the loaded engine's
/// Options::metrics — runtime knobs are not part of the serialized state,
/// so the deployment attaches its registry here (nullptr = null sink).
Expected<TaraEngine, LoadError> LoadKnowledgeBase(
    std::istream* in, obs::MetricsRegistry* metrics = nullptr);

/// Convenience string round-trip helpers.
std::string KnowledgeBaseToString(const TaraEngine& engine);
std::string KnowledgeBaseToString(const KnowledgeBaseSnapshot& snapshot);
Expected<TaraEngine, LoadError> KnowledgeBaseFromString(
    const std::string& bytes, obs::MetricsRegistry* metrics = nullptr);

}  // namespace tara

#endif  // TARA_CORE_SERIALIZATION_H_
