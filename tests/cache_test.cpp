// Grade-result cache suite (campaign/cache.hpp): the LRU/disk tiers and
// their corruption fallbacks, disk-tier directory creation, the canonical
// options hash and cache-key sensitivity properties, and the engine-level
// guarantee that a warm full hit executes ZERO shards and evaluates no
// test's screen (asserted against kernel counters, a screen that counts
// its calls and a test whose runner factory throws).
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "campaign/cache.hpp"
#include "campaign/campaign.hpp"
#include "campaign/report.hpp"
#include "fault/fault_list.hpp"
#include "fault/universe.hpp"
#include "fsim/fsim.hpp"
#include "netlist/wordops.hpp"
#include "obs/metrics.hpp"
#include "temp_dir.hpp"

namespace olfui {
namespace {

namespace fs = std::filesystem;

/// Minimal decodable CampaignResult whose payload varies with `seed`.
CampaignResult tiny_result(std::size_t universe, std::size_t seed) {
  CampaignResult r;
  r.universe = universe;
  r.detected = BitVec(universe);
  r.detected.set(seed % universe, true);
  r.total_new_detections = 1;
  r.raw_coverage = 0.25;
  r.pruned_coverage = 0.5;
  CampaignResult::PerTest pt;
  pt.name = "t";
  pt.good_cycles = 3;
  pt.faults_targeted = universe;
  pt.batches = 1;
  pt.new_detections = 1;
  r.tests.push_back(pt);
  r.classes.push_back({"sa0", universe, 1});
  return r;
}

CacheKey key_n(std::uint64_t n) {
  CacheKey k;
  k.universe_fp = n;
  k.trace_fp = 0x1111;
  k.options_hash = 0x3333;
  return k;
}

// ---------------------------------------------------------------------------
// LRU tier

TEST(ResultCache, LruEvictsLeastRecentlyUsed) {
  ResultCache cache(2);
  EXPECT_EQ(cache.capacity(), 2u);
  cache.store(key_n(1), tiny_result(8, 1));
  cache.store(key_n(2), tiny_result(8, 2));
  // Touch 1 so 2 becomes the LRU entry, then push it out.
  EXPECT_TRUE(cache.lookup(key_n(1), 8).has_value());
  cache.store(key_n(3), tiny_result(8, 3));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(cache.lookup(key_n(1), 8).has_value());
  EXPECT_FALSE(cache.lookup(key_n(2), 8).has_value());
  const std::optional<CampaignResult> got = cache.lookup(key_n(3), 8);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->detected == tiny_result(8, 3).detected);
  EXPECT_EQ(cache.stats().hits, 3u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().stores, 3u);
}

TEST(ResultCache, StoreOverwritesInPlace) {
  ResultCache cache(2);
  cache.store(key_n(1), tiny_result(8, 1));
  cache.store(key_n(1), tiny_result(8, 5));
  EXPECT_EQ(cache.size(), 1u);
  const std::optional<CampaignResult> got = cache.lookup(key_n(1), 8);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->detected == tiny_result(8, 5).detected);
}

// ---------------------------------------------------------------------------
// Disk tier

TEST(ResultCache, DiskTierSurvivesProcessBoundaries) {
  TempDir dir("cache_test_");
  {
    ResultCache writer(4, dir.path);
    writer.store(key_n(7), tiny_result(16, 7));
  }
  // A fresh instance (cold memory tier) finds the entry on disk.
  ResultCache reader(4, dir.path);
  const std::optional<CampaignResult> got = reader.lookup(key_n(7), 16);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->detected == tiny_result(16, 7).detected);
  EXPECT_EQ(reader.stats().disk_hits, 1u);
  // Promoted into memory: the second lookup never touches disk again.
  EXPECT_TRUE(reader.lookup(key_n(7), 16).has_value());
  EXPECT_EQ(reader.stats().disk_hits, 1u);
  EXPECT_EQ(reader.stats().hits, 2u);
  // A different key stays a plain miss, not corruption.
  EXPECT_FALSE(reader.lookup(key_n(8), 16).has_value());
  EXPECT_EQ(reader.stats().corrupt, 0u);
}

TEST(ResultCache, CorruptDiskEntryCountsAndHeals) {
  TempDir dir("cache_test_");
  {
    ResultCache writer(4, dir.path);
    writer.store(key_n(9), tiny_result(8, 9));
  }
  // Smash the single on-disk entry.
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    std::ofstream(entry.path()) << "garbage";
    ++files;
  }
  ASSERT_EQ(files, 1u);

  ResultCache reader(4, dir.path);
  EXPECT_FALSE(reader.lookup(key_n(9), 8).has_value());
  EXPECT_EQ(reader.stats().corrupt, 1u);
  EXPECT_EQ(reader.stats().misses, 1u);
  // The fallback re-grade's store overwrites the damaged file...
  reader.store(key_n(9), tiny_result(8, 9));
  // ...so the next cold instance reads it cleanly again.
  ResultCache healed(4, dir.path);
  EXPECT_TRUE(healed.lookup(key_n(9), 8).has_value());
  EXPECT_EQ(healed.stats().corrupt, 0u);
}

TEST(ResultCache, NestedDirectoryIsCreatedAndHits) {
  TempDir dir("cache_test_");
  const std::string nested = dir.path + "/a/b";
  {
    ResultCache writer(4, nested);
    writer.store(key_n(3), tiny_result(8, 3));
    EXPECT_EQ(writer.stats().stores, 1u);
  }
  ResultCache reader(4, nested);
  EXPECT_TRUE(reader.lookup(key_n(3), 8).has_value());
  EXPECT_EQ(reader.stats().disk_hits, 1u);

  // A store whose disk write fails is not counted: the directory is gone
  // from under the cache.
  fs::remove_all(nested);
  reader.store(key_n(4), tiny_result(8, 4));
  EXPECT_EQ(reader.stats().stores, 0u);
}

TEST(ResultCache, DirectoryUnderARegularFileThrows) {
  TempDir dir("cache_test_");
  const std::string file = dir.path + "/plain";
  std::ofstream(file) << "not a directory";
  try {
    ResultCache cache(4, file + "/cache");
    FAIL() << "a cache directory under a regular file was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(file + "/cache"), std::string::npos)
        << e.what();
  }
}

TEST(ResultCache, DiskEntryWithMismatchedKeyIsRejected) {
  TempDir dir("cache_test_");
  ResultCache cache(4, dir.path);
  cache.store(key_n(1), tiny_result(8, 1));
  // Masquerade key 1's entry as key 2's: copy it to key 2's digest path.
  // The stored canonical key cannot match, so a digest collision (here,
  // a forced one) can never serve the wrong payload.
  const std::string src =
      dir.path + "/" + word_to_hex(key_n(1).digest()) + ".json";
  const std::string dst =
      dir.path + "/" + word_to_hex(key_n(2).digest()) + ".json";
  fs::copy_file(src, dst);
  ResultCache reader(4, dir.path);
  EXPECT_FALSE(reader.lookup(key_n(2), 8).has_value());
  EXPECT_EQ(reader.stats().corrupt, 1u);
  EXPECT_TRUE(reader.lookup(key_n(1), 8).has_value());
}

TEST(ResultCache, DiskEntryWithEmptyPayloadCountsCorrupt) {
  // The entry is there and its key matches, but its payload is empty: a
  // damaged entry, so corrupt, not a plain miss.
  TempDir dir("cache_test_");
  ResultCache(4, dir.path).store(key_n(5), tiny_result(8, 5));
  Json doc = Json::object();
  doc.set("key", key_n(5).canonical());
  doc.set("payload", std::string());
  std::ofstream(dir.path + "/" + word_to_hex(key_n(5).digest()) + ".json")
      << doc.dump(0);
  ResultCache reader(4, dir.path);
  EXPECT_FALSE(reader.lookup(key_n(5), 8).has_value());
  EXPECT_EQ(reader.stats().corrupt, 1u);
  EXPECT_EQ(reader.stats().misses, 1u);
}

// ---------------------------------------------------------------------------
// Canonical options hash + cache key sensitivity

TEST(CacheKey, CanonicalOptionsFormIsPinned) {
  // The exact grammar is load-bearing: any accidental change (field
  // rename, reorder, implicit default) would silently invalidate every
  // existing cache — or worse, alias two different configurations.
  EXPECT_EQ(campaign_options_canonical(CampaignOptions{}),
            "campaign_options/v1|fault_model=stuck_at|target_limit=0");
}

TEST(CacheKey, CanonicalKeyFormIsPinned) {
  // v7: SBST batch counts cover only the pairs left after each test's
  // observability screen, so an entry stored under an older version would
  // replay the batch counts of the activation screen alone.
  CacheKey k = key_n(0xABCD);
  k.fault_model = "transition";
  EXPECT_EQ(k.canonical(),
            "cache_key/v7|universe=000000000000abcd|trace=0000000000001111|"
            "options=0000000000003333|model=transition");
}

TEST(CacheKey, OptionsHashTracksPayloadAffectingFieldsOnly) {
  const CampaignOptions base;
  const std::uint64_t h = campaign_options_hash(base);

  // Every payload-affecting field moves the hash...
  CampaignOptions o = base;
  o.fault_model = FaultModel::kTransition;
  EXPECT_NE(campaign_options_hash(o), h);
  o = base;
  o.target_limit = 5;
  EXPECT_NE(campaign_options_hash(o), h);

  // ...and every payload-neutral knob does not (they must not fragment
  // the cache across thread counts).
  o = base;
  o.threads = 7;
  EXPECT_EQ(campaign_options_hash(o), h);
  o = base;
  o.cache = std::make_shared<ResultCache>(1);
  EXPECT_EQ(campaign_options_hash(o), h);
}

TEST(CacheKey, EveryComponentMovesTheDigest) {
  const CacheKey base = key_n(1);
  EXPECT_EQ(base.digest(), key_n(1).digest());
  CacheKey k = base;
  k.universe_fp ^= 1;
  EXPECT_NE(k.digest(), base.digest());
  k = base;
  k.trace_fp ^= 1;
  EXPECT_NE(k.digest(), base.digest());
  k = base;
  k.options_hash ^= 1;
  EXPECT_NE(k.digest(), base.digest());
  k = base;
  k.fault_model = "transition";
  EXPECT_NE(k.digest(), base.digest());
}

// ---------------------------------------------------------------------------
// Key-component fingerprints on a real netlist

/// Two-cone test circuit; `variant` flips one gate type (AND <-> OR) in
/// the first cone, leaving the second cone untouched — a minimal netlist
/// perturbation the universe fingerprint must see.
struct TwoConeDesign {
  Netlist nl{"twocone"};
  std::vector<NetId> inputs;
  std::vector<CellId> outputs;

  explicit TwoConeDesign(bool variant) {
    WordOps w(nl, "m");
    const NetId a = nl.add_input("a");
    const NetId b = nl.add_input("b");
    const NetId c = nl.add_input("c");
    const NetId d = nl.add_input("d");
    inputs = {a, b, c, d};
    // Cone 1: g feeds o1 (g is the perturbation site).
    const NetId g = variant ? w.or2(a, b, "g") : w.and2(a, b, "g");
    const NetId h = w.xor2(g, c, "h");
    // Cone 2: independent of g entirely.
    const NetId k = w.not_(d, "k");
    const NetId m = w.and2(k, c, "m");
    const NetId p = w.or2(m, d, "p");
    outputs.push_back(nl.add_output("o1", h));
    outputs.push_back(nl.add_output("o2", p));
    EXPECT_TRUE(nl.validate().empty());
  }
};

/// Open-loop environment: inputs follow a fixed per-cycle bit pattern,
/// never a function of outputs.
class PatternEnv final : public FsimEnvironment {
 public:
  explicit PatternEnv(std::vector<NetId> inputs)
      : inputs_(std::move(inputs)) {}
  void reset(PackedSim& sim) override {
    for (const NetId n : inputs_) sim.set_input_all(n, false);
    sim.eval();
  }
  bool step(PackedSim& sim, int cycle) override {
    for (std::size_t i = 0; i < inputs_.size(); ++i)
      sim.set_input_all(inputs_[i],
                        ((static_cast<unsigned>(cycle) >> i) ^
                         static_cast<unsigned>(cycle)) & 1u);
    sim.eval();
    return true;
  }

 private:
  std::vector<NetId> inputs_;
};

constexpr int kPatternCycles = 24;

class PatternRunner final : public FaultBatchRunner {
 public:
  PatternRunner(const TwoConeDesign& d, const FaultUniverse& u)
      : env_(d.inputs), fsim_(d.nl, u) {
    fsim_.set_observed(d.outputs);
    trace_ = fsim_.record_reference_trace(env_, kPatternCycles);
  }
  LaneMask run_batch(std::span<const FaultId> faults) override {
    return fsim_.run_batch(faults, env_, trace_);
  }

 private:
  PatternEnv env_;
  SequentialFaultSimulator fsim_;
  ReferenceTrace trace_;
};

/// `d` and `u` must outlive every run over the returned test. The spec is
/// set (cache keys require one); its state_fp folds the design variant so
/// the two variants can never alias in the cache.
CampaignTest make_pattern_test(const TwoConeDesign& d,
                               const FaultUniverse& u) {
  CampaignTest test;
  test.name = "pattern";
  test.good_cycles = kPatternCycles;
  test.make_runner = [&d, &u]() {
    return std::make_unique<PatternRunner>(d, u);
  };
  test.spec = Json::object();
  test.spec.set("workload", std::string("cache_test"));
  test.spec.set("state_fp", word_to_hex(universe_fingerprint(u)));
  return test;
}

TEST(CacheKey, FingerprintsTrackTheirInputs) {
  const TwoConeDesign base(false), variant(true);
  const FaultUniverse u0(base.nl), u1(variant.nl);
  EXPECT_NE(universe_fingerprint(u0), universe_fingerprint(u1));

  FaultList fl(u0);
  const std::uint64_t fl_fp = fault_list_fingerprint(fl);
  fl.set_detected(0);
  EXPECT_NE(fault_list_fingerprint(fl), fl_fp);

  std::vector<CampaignTest> tests;
  tests.push_back(make_pattern_test(base, u0));
  const std::uint64_t tests_fp = campaign_tests_fingerprint(tests);
  EXPECT_NE(tests_fp, 0u);
  tests[0].good_cycles = kPatternCycles + 1;
  EXPECT_NE(campaign_tests_fingerprint(tests), tests_fp);
  tests[0].good_cycles = kPatternCycles;
  // The name labels the payload's per-test rows.
  tests[0].name = "renamed";
  EXPECT_NE(campaign_tests_fingerprint(tests), tests_fp);
  tests[0].name = "pattern";
  EXPECT_EQ(campaign_tests_fingerprint(tests), tests_fp);
  tests[0].spec.set("state_fp", std::string("0000000000000000"));
  EXPECT_NE(campaign_tests_fingerprint(tests), tests_fp);
  // A spec-less test cannot be keyed: the whole list reports 0.
  tests[0].spec = Json();
  EXPECT_EQ(campaign_tests_fingerprint(tests), 0u);
}

// ---------------------------------------------------------------------------
// Engine-level: warm full hit executes zero shards

TEST(ResultCache, WarmHitExecutesZeroShardsAndIsByteIdentical) {
  const TwoConeDesign d(false);
  const FaultUniverse u(d.nl);
  std::vector<CampaignTest> tests;
  tests.push_back(make_pattern_test(d, u));
  // The screen is deferred past the lookup: count its evaluations.
  auto screens = std::make_shared<std::atomic<int>>(0);
  tests[0].screen = [&u, screens] {
    ++*screens;
    return BitVec(u.size());
  };

  CampaignOptions opts;
  opts.threads = 1;
  opts.cache = std::make_shared<ResultCache>(4);

  FaultList fl_cold(u);
  const CampaignResult cold = CampaignEngine(u, opts).run(fl_cold, tests);
  EXPECT_EQ(cold.stats.cache, "miss");
  EXPECT_GT(cold.stats.batches, 0u);
  EXPECT_GT(cold.total_new_detections, 0u);
  EXPECT_EQ(opts.cache->stats().stores, 1u);
  EXPECT_NE(cold.stats.options_hash, 0u);
  EXPECT_EQ(*screens, 1);  // once per miss, before the first plan

  // The warm run's test has the same identity (name, spec) but a runner
  // factory that throws: if the hit path ever executed a shard, the run
  // would fail. Kernel counters prove no simulation ran either.
  std::vector<CampaignTest> warm_tests = tests;
  warm_tests[0].make_runner = []() -> std::unique_ptr<FaultBatchRunner> {
    throw std::logic_error("a warm cache hit executed a shard");
  };
  obs::metrics().set_enabled(true);
  obs::metrics().reset_values();
  FaultList fl_warm(u);
  const CampaignResult warm = CampaignEngine(u, opts).run(fl_warm, warm_tests);
  const std::uint64_t kernel_evals =
      obs::metrics().counter("kernel.evals").value();
  const std::uint64_t cache_hits =
      obs::metrics().counter("cache.hits").value();
  obs::metrics().set_enabled(false);
  obs::metrics().reset_values();

  EXPECT_EQ(warm.stats.cache, "hit");
  EXPECT_EQ(*screens, 1);  // a full hit never evaluates a screen
  EXPECT_EQ(kernel_evals, 0u);
  EXPECT_EQ(cache_hits, 1u);
  EXPECT_EQ(warm.stats.batches, 0u);
  EXPECT_EQ(warm.stats.shard_seconds.size(), 0u);
  // The decoded payload re-serializes byte-identical to the cold run's
  // deterministic JSON — the cache can never drift a result.
  EXPECT_EQ(campaign_result_to_json_string(warm, 2, false),
            campaign_result_to_json_string(cold, 2, false));
  // And the fault list replays to the same detection state.
  EXPECT_EQ(fl_warm.count_detected(), fl_cold.count_detected());

  // The same campaign under changed options misses: no stale payloads.
  CampaignOptions sliced = opts;
  sliced.target_limit = 3;
  FaultList fl_sliced(u);
  const CampaignResult miss = CampaignEngine(u, sliced).run(fl_sliced, tests);
  EXPECT_EQ(miss.stats.cache, "miss");
  EXPECT_EQ(*screens, 2);
}

TEST(ResultCache, DiskPayloadOverAnotherUniverseIsRegradedAndHealed) {
  // The disk layer checks only the stored key string, so a payload whose
  // detection vector is longer than the universe (or whose universe field
  // differs) would otherwise replay past the end of the fault list.
  const TwoConeDesign d(false);
  const FaultUniverse u(d.nl);
  std::vector<CampaignTest> tests;
  tests.push_back(make_pattern_test(d, u));
  TempDir dir("cache_test_");
  const auto run = [&](std::shared_ptr<ResultCache> cache) {
    CampaignOptions opts;
    opts.threads = 1;
    opts.cache = std::move(cache);
    FaultList fl(u);
    CampaignResult r = CampaignEngine(u, opts).run(fl, tests);
    EXPECT_EQ(fl.count_detected(), r.detected.count());
    return r;
  };
  const CampaignResult cold =
      run(std::make_shared<ResultCache>(4, dir.path));
  ASSERT_EQ(cold.stats.cache, "miss");
  ASSERT_GT(cold.detected.count(), 0u);
  const std::string cold_json = campaign_result_to_json_string(cold, 2, false);
  std::string entry;
  for (const auto& e : fs::directory_iterator(dir.path)) entry = e.path();
  ASSERT_FALSE(entry.empty());

  // An oversized detection vector with its last bit set, and a payload
  // claiming one more fault than the universe holds.
  BitVec oversized(u.size() + 1000);
  for (std::size_t f = 0; f < u.size(); ++f)
    oversized.set(f, cold.detected.get(f));
  oversized.set(oversized.size() - 1, true);
  const std::vector<std::pair<std::string, Json>> tampers = {
      {"detected_bits", Json(bitvec_to_hex(oversized))},
      {"universe", Json(u.size() + 1)},
  };
  for (const auto& [field, value] : tampers) {
    std::ifstream in(entry);
    Json doc = Json::parse(std::string(std::istreambuf_iterator<char>(in), {}));
    in.close();
    Json payload = Json::parse(doc.at("payload").as_string());
    payload.set(field, value);
    doc.set("payload", payload.dump(2));
    std::ofstream(entry) << doc.dump(0);

    const auto reader = std::make_shared<ResultCache>(4, dir.path);
    const CampaignResult regraded = run(reader);
    EXPECT_EQ(regraded.stats.cache, "miss") << field;
    EXPECT_EQ(reader->stats().corrupt, 1u) << field;
    EXPECT_EQ(campaign_result_to_json_string(regraded, 2, false), cold_json)
        << field;
    // The re-grade overwrote the entry: a cold reader now hits cleanly.
    const auto healed = std::make_shared<ResultCache>(4, dir.path);
    const CampaignResult warm = run(healed);
    EXPECT_EQ(warm.stats.cache, "hit") << field;
    EXPECT_EQ(healed->stats().corrupt, 0u) << field;
    EXPECT_EQ(campaign_result_to_json_string(warm, 2, false), cold_json)
        << field;
  }
}

TEST(ResultCache, SpecLessRunsBypassTheCache) {
  const TwoConeDesign d(false);
  const FaultUniverse u(d.nl);

  CampaignOptions opts;
  opts.threads = 1;
  opts.cache = std::make_shared<ResultCache>(4);

  // Null spec: not fingerprintable, the run bypasses (and stores nothing).
  std::vector<CampaignTest> unspecced;
  unspecced.push_back(make_pattern_test(d, u));
  unspecced[0].spec = Json();
  FaultList fl1(u);
  const CampaignResult r1 = CampaignEngine(u, opts).run(fl1, unspecced);
  EXPECT_EQ(r1.stats.cache, "bypass");
  EXPECT_EQ(opts.cache->stats().stores, 0u);

  // Cache off entirely: the stats label says so.
  std::vector<CampaignTest> tests;
  tests.push_back(make_pattern_test(d, u));
  CampaignOptions off;
  off.threads = 1;
  FaultList fl3(u);
  EXPECT_EQ(CampaignEngine(u, off).run(fl3, tests).stats.cache, "off");
}

}  // namespace
}  // namespace olfui
