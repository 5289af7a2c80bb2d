// The persisted byte formats (kb_storage.h): golden bytes of the TSEG
// segment, the stream form, the TARAKB3 manifest and the WAL, and segment
// and count edge cases. The TARAKB3 directory format, its crash safety
// and its corruption fuzz are covered by test_kb_blocks.cc.

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/byte_codec.h"
#include "common/hash.h"
#include "core/kb_blocks.h"
#include "core/kb_open.h"
#include "core/kb_storage.h"
#include "core/tara_engine.h"
#include "core/wal.h"
#include "datagen/quest_generator.h"
#include "txdb/evolving_database.h"

namespace tara {
namespace {

EvolvingDatabase MakeData(uint32_t windows) {
  QuestGenerator::Params params;
  params.num_transactions = 500 * windows;
  params.num_items = 80;
  params.num_patterns = 40;
  params.avg_transaction_len = 8;
  params.seed = 77;
  const TransactionDatabase db = QuestGenerator(params).Generate();
  return EvolvingDatabase::PartitionIntoBatches(db, windows);
}

TaraEngine BuildEngine(const EvolvingDatabase& data) {
  TaraEngine::Options options;
  options.min_support_floor = 0.01;
  options.min_confidence_floor = 0.1;
  options.max_itemset_size = 4;
  TaraEngine engine(options);
  engine.BuildAll(data);
  return engine;
}

uint64_t HashOf(const std::string& bytes) {
  return HashBytes(reinterpret_cast<const uint8_t*>(bytes.data()),
                   bytes.size());
}

uint64_t HashOf(const std::vector<uint8_t>& bytes) {
  return HashBytes(bytes.data(), bytes.size());
}

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Golden bytes of every persisted format, from one fixed-seed 4-window
// knowledge base. The constants were captured from the encoders as they
// stood before the byte codec was shared by every format; round trips
// only prove self-consistency, these prove that no stored byte moved.
// Never edit a constant to make this pass.
class KbStorageGolden : public ::testing::Test {
 protected:
  KbStorageGolden()
      : engine_(BuildEngine(MakeData(4))),
        dir_(std::filesystem::path(::testing::TempDir()) /
             ("kb_golden_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(dir_);
  }
  ~KbStorageGolden() override { std::filesystem::remove_all(dir_); }

  TaraEngine engine_;
  std::filesystem::path dir_;
};

TEST_F(KbStorageGolden, SegmentsAndStreamFormArePinned) {
  const auto snapshot = engine_.Snapshot();
  ASSERT_EQ(snapshot->window_count(), 4u);
  const std::vector<uint64_t> segment_hashes = {
      14802381097122508480ull, 13501230264394455720ull, 44934819816692645ull,
      316082519068008788ull};
  for (WindowId w = 0; w < 4; ++w) {
    EXPECT_EQ(HashOf(EncodeWindowSegment(*snapshot, w)), segment_hashes[w])
        << "TSEG segment of window " << w;
  }
  const std::string stream = EncodeKnowledgeBase(*snapshot);
  EXPECT_EQ(stream.size(), 906379u);
  EXPECT_EQ(HashOf(stream), 10360232453410411125ull);
}

TEST_F(KbStorageGolden, BlocksManifestIsPinned) {
  ASSERT_FALSE(SaveKnowledgeBaseBlocks(*engine_.Snapshot(), dir_.string(),
                                       /*block_bytes=*/4096)
                   .has_value());
  const std::string manifest =
      ReadFile(dir_ / KnowledgeBaseBlocksManifestFileName());
  EXPECT_EQ(manifest.size(), 162u);
  EXPECT_EQ(HashOf(manifest), 12251093423930846738ull);
}

TEST_F(KbStorageGolden, WalAfterTwoAppendsIsPinned) {
  const auto snapshot = engine_.Snapshot();
  {
    auto writer =
        WalWriter::Open(dir_.string(), snapshot->options(), 0, nullptr);
    ASSERT_TRUE(writer.has_value()) << writer.error().message;
    for (WindowId w = 0; w < 2; ++w) {
      ASSERT_FALSE(writer.value()
                       .Append(snapshot->segment(w).total_transactions,
                               EncodeWindowSegment(*snapshot, w))
                       .has_value());
    }
  }
  const std::string wal = ReadFile(dir_ / "wal.tarawal");
  EXPECT_EQ(wal.size(), 549755u);
  EXPECT_EQ(HashOf(wal), 3692313774869973544ull);
}

// Item ids are 32 bits: a segment whose rule names a wider item is
// corrupt, not a rule over another item.
TEST(KbStorageWideIds, ItemIdsPast32BitsAreCorruptSegments) {
  const auto segment = [](uint64_t item) {
    codec::ByteWriter<> out;
    out.Magic("TSEG", 4);
    out.U64(0);  // window
    out.U64(0);  // first rule
    out.U64(1);  // one new rule: {1} -> {item}
    out.Items(std::vector<uint64_t>{1});
    out.Items(std::vector<uint64_t>{item});
    out.U64(1);  // one entry: rule 0, counts 5 of 7
    out.U64(0);
    out.U64(5);
    out.U64(2);
    return out.bytes();
  };
  const std::vector<uint8_t> narrow = segment(2);
  const auto parsed = ParseWindowSegment(narrow.data(), narrow.size());
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  EXPECT_EQ(parsed->new_rules[0], (Rule{{1}, {2}}));
  const std::vector<uint8_t> wide = segment((uint64_t{1} << 32) + 2);
  const auto refused = ParseWindowSegment(wide.data(), wide.size());
  ASSERT_FALSE(refused.has_value());
  EXPECT_EQ(refused.error().code, LoadError::Code::kCorruptSegment);
}

// A window of more than 2^63 transactions holds counts past 2^63. The
// archive writes count deltas in wrapping unsigned arithmetic, so a rule
// climbing from 5 to 2^63 + 1 and falling back to 4 must read back
// exactly through every decode path (the scalar scan, the dispatched
// kernel, a mapped open) and every roll-up.
TEST(KbStorageWideCounts, CountsPast2To63RoundTrip) {
  constexpr uint64_t kHalf = uint64_t{1} << 63;
  struct Count {
    uint64_t rule_count;
    uint64_t antecedent_count;
  };
  const std::vector<uint64_t> totals = {100, kHalf + 10, 100};
  const std::vector<Rule> rules = {Rule{{1}, {2}}, Rule{{2}, {3}}};
  // counts[w][r]: rule r's counts in window w.
  const std::vector<std::vector<Count>> counts = {
      {{5, 7}, {10, 20}},
      {{kHalf + 1, kHalf + 3}, {kHalf / 2, kHalf}},
      {{4, 5}, {50, 60}}};
  TaraEngine::Options options;
  options.min_support_floor = 0.01;
  options.min_confidence_floor = 0.2;
  TaraEngine engine(options);
  for (size_t w = 0; w < totals.size(); ++w) {
    std::vector<TaraEngine::PrecomputedRule> window;
    for (size_t r = 0; r < rules.size(); ++r) {
      window.push_back({rules[r], counts[w][r].rule_count,
                        counts[w][r].antecedent_count});
    }
    engine.AppendPrecomputedWindow(totals[w], window);
  }

  const auto expect_counts = [&](const KnowledgeBaseSnapshot& kb) {
    ASSERT_EQ(kb.window_count(), totals.size());
    for (RuleId r = 0; r < rules.size(); ++r) {
      std::vector<ArchiveEntry> scanned;
      kb.archive().VisitEntries(r, [&](const ArchiveEntry& e) {
        scanned.push_back(e);
        return true;
      });
      ASSERT_EQ(scanned.size(), totals.size());
      for (WindowId w = 0; w < totals.size(); ++w) {
        const ArchiveEntry& e = scanned[w];
        EXPECT_EQ(e.window, w);
        EXPECT_EQ(e.rule_count, counts[w][r].rule_count);
        EXPECT_EQ(e.antecedent_count, counts[w][r].antecedent_count);
      }
      // Every run of windows holds at most one past 2^63, so the sums
      // fit 64 bits and each roll-up is exact.
      for (const std::vector<WindowId>& ids :
           std::vector<std::vector<WindowId>>{{0, 1}, {1}, {1, 2}, {0, 1, 2}}) {
        uint64_t rule_sum = 0, antecedent_sum = 0, total = 0;
        for (const WindowId w : ids) {
          rule_sum += counts[w][r].rule_count;
          antecedent_sum += counts[w][r].antecedent_count;
          total += totals[w];
        }
        const auto bound = kb.RollUpRule(r, kb.MakeWindowSet(ids));
        ASSERT_TRUE(bound.has_value());
        EXPECT_EQ(bound->missing_windows, 0u);
        EXPECT_DOUBLE_EQ(bound->support_lo,
                         static_cast<double>(rule_sum) / total);
        EXPECT_DOUBLE_EQ(bound->support_hi, bound->support_lo);
        EXPECT_DOUBLE_EQ(bound->confidence_lo,
                         static_cast<double>(rule_sum) / antecedent_sum);
        EXPECT_DOUBLE_EQ(bound->confidence_hi, bound->confidence_lo);
      }
    }
  };
  expect_counts(*engine.Snapshot());

  const std::string bytes = EncodeKnowledgeBase(*engine.Snapshot());

  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("kb_wide_counts_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  ASSERT_FALSE(SaveKnowledgeBaseBlocks(*engine.Snapshot(), dir.string(),
                                       /*block_bytes=*/4096)
                   .has_value());
  OpenOptions open;
  open.kb_dir = dir.string();
  open.mode = OpenMode::kMapped;
  auto mapped = OpenKnowledgeBase(open);
  ASSERT_TRUE(mapped.has_value()) << mapped.error().message;
  expect_counts(*mapped.value().Snapshot());
  EXPECT_EQ(EncodeKnowledgeBase(*mapped.value().Snapshot()), bytes);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace tara
