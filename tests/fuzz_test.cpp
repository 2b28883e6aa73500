// Seeded, bounded mutation fuzzing of the untrusted-input decoders: the
// campaign result JSON, the result cache's disk entries and the Verilog
// parser. Each input is a real document (an engine-graded campaign, the
// entry its cache wrote, a written netlist); every mutant of it must
// either decode or fail with the decoder's own located error — never
// another exception, a crash or undefined behaviour (the sanitizer build
// runs this suite too).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/cache.hpp"
#include "campaign/campaign.hpp"
#include "campaign/json.hpp"
#include "campaign/report.hpp"
#include "fault/fault_list.hpp"
#include "fault/universe.hpp"
#include "random_design.hpp"
#include "temp_dir.hpp"
#include "util/rng.hpp"
#include "verilog/verilog.hpp"

namespace olfui {
namespace {

namespace fs = std::filesystem;

constexpr int kMutants = 2000;

/// Applies 1-4 random edits to `text`: flip a bit, overwrite a byte with
/// one the grammars care about, insert a byte, erase or duplicate a short
/// run, or truncate.
std::string mutate(std::string text, Rng& rng) {
  static constexpr char kSyntax[] = {'"', '\\', '{', '}', '[', ']', ',',
                                     ':', '-',  '+', '.', 'e', '0', '9',
                                     '(', ')',  ';', '/', '\n', ' ', '\0',
                                     '\x7f', '\xff'};
  const std::uint64_t edits = 1 + rng.next_below(4);
  for (std::uint64_t e = 0; e < edits && !text.empty(); ++e) {
    const std::size_t pos = rng.next_below(text.size());
    switch (rng.next_below(6)) {
      case 0:
        text[pos] = static_cast<char>(text[pos] ^ (1 << rng.next_below(8)));
        break;
      case 1:
        text[pos] = kSyntax[rng.next_below(sizeof kSyntax)];
        break;
      case 2:
        text.insert(pos, 1, static_cast<char>(rng.next_below(256)));
        break;
      case 3:
        text.erase(pos, 1 + rng.next_below(16));
        break;
      case 4: {
        const std::string run = text.substr(pos, 1 + rng.next_below(16));
        text.insert(rng.next_below(text.size() + 1), run);
        break;
      }
      default:
        text.resize(pos);
        break;
    }
  }
  return text;
}

/// A real campaign: two function tests graded by the engine over a random
/// design's universe.
CampaignResult graded_campaign(const FaultUniverse& u) {
  const auto every = [](FaultId k) {
    return [k](std::span<const FaultId> faults) {
      LaneMask mask;
      for (std::size_t i = 0; i < faults.size(); ++i)
        if (faults[i] % k == 0) mask.set_bit(static_cast<int>(i));
      return mask;
    };
  };
  std::vector<CampaignTest> tests;
  tests.push_back(make_function_test("thirds", every(3), 12));
  tests.push_back(make_function_test("halves", every(2), 20));
  FaultList fl(u);
  return CampaignEngine(u, {.threads = 1}).run(fl, tests);
}

TEST(Fuzz, CampaignResultDecodesOrThrowsJsonError) {
  Rng design_rng(61);
  const RandomDesign d = random_design(design_rng, 6, 12, 90);
  const FaultUniverse u(d.nl);
  const std::string doc =
      campaign_result_to_json_string(graded_campaign(u), 2, true);
  ASSERT_EQ(campaign_result_from_json_string(doc).universe, u.size());

  Rng rng(0xF0221);
  int decoded = 0;
  for (int m = 0; m < kMutants; ++m) {
    const std::string mutant = mutate(doc, rng);
    try {
      campaign_result_from_json_string(mutant);
      ++decoded;
    } catch (const JsonError& e) {
      ASSERT_LE(e.offset(), mutant.size()) << "mutant " << m << ": " << e.what();
    } catch (const std::exception& e) {
      FAIL() << "mutant " << m << " threw a non-JsonError: " << e.what();
    }
  }
  // Most edits land in the detection bits, names and numbers, so a share
  // of the mutants still decodes and the decoder's tail is reached too.
  EXPECT_GT(decoded, 0);
  EXPECT_LT(decoded, kMutants);
}

TEST(Fuzz, MutatedCacheEntryIsCorruptOrDecodes) {
  Rng design_rng(62);
  const RandomDesign d = random_design(design_rng, 6, 12, 90);
  const FaultUniverse u(d.nl);
  TempDir dir("fuzz_test_");
  CacheKey key;
  key.universe_fp = 0xABC;
  key.trace_fp = 0xDEF;
  key.options_hash = 0x123;
  ResultCache(1, dir.path).store(key, graded_campaign(u));
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir.path))
    files.push_back(entry.path());
  ASSERT_EQ(files.size(), 1u);
  std::ifstream in(files[0], std::ios::binary);
  const std::string entry((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  ASSERT_FALSE(entry.empty());

  Rng rng(0xF0222);
  int hits = 0;
  for (int m = 0; m < kMutants; ++m) {
    std::ofstream(files[0], std::ios::binary | std::ios::trunc)
        << mutate(entry, rng);
    // A fresh cache has a cold memory tier, so the lookup reads the disk.
    ResultCache cache(1, dir.path);
    const std::optional<CampaignResult> got = cache.lookup(key, u.size());
    const ResultCacheStats stats = cache.stats();
    if (got) {
      ++hits;
      ASSERT_EQ(stats.disk_hits, 1u) << "mutant " << m;
      ASSERT_EQ(stats.corrupt, 0u) << "mutant " << m;
      ASSERT_EQ(got->detected.size(), u.size()) << "mutant " << m;
    } else {
      ASSERT_EQ(stats.corrupt, 1u) << "mutant " << m;
      ASSERT_EQ(stats.misses, 1u) << "mutant " << m;
    }
  }
  EXPECT_GT(hits, 0);
  EXPECT_LT(hits, kMutants);
}

TEST(Fuzz, VerilogParsesOrThrowsVerilogError) {
  Rng design_rng(63);
  RandomDesign d = random_design(design_rng, 6, 12, 90);
  for (CellId c = 0; c < d.nl.num_cells(); ++c) {
    if (is_port(d.nl.cell(c).type)) continue;
    d.nl.set_tag(c, "addr:data");  // the parser's "// tag:" path
    break;
  }
  const std::string text = write_verilog(d.nl);
  ASSERT_EQ(parse_verilog(text).num_cells(), d.nl.num_cells());
  const int lines = static_cast<int>(std::count(text.begin(), text.end(), '\n'));

  Rng rng(0xF0223);
  int parsed = 0;
  for (int m = 0; m < kMutants; ++m) {
    const std::string mutant = mutate(text, rng);
    try {
      parse_verilog(mutant);
      ++parsed;
    } catch (const VerilogError& e) {
      // Edits add at most 4 x 16 lines; the located line stays in range.
      ASSERT_GE(e.line(), 1) << "mutant " << m << ": " << e.what();
      ASSERT_LE(e.line(), lines + 65) << "mutant " << m << ": " << e.what();
      ASSERT_LE(e.offset(), mutant.size())
          << "mutant " << m << ": " << e.what();
    } catch (const std::exception& e) {
      FAIL() << "mutant " << m << " threw a non-VerilogError: " << e.what();
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, kMutants);
}

}  // namespace
}  // namespace olfui
