// olfui/campaign: the grade-result cache.
//
// The paper's grading flow is rerun constantly in practice — same SBST
// programs, same netlist, tweaked options — and every fingerprint a
// repeat run needs to prove "this is the same work" already exists: the
// universe/netlist structure, each test's identity (CampaignTest::spec,
// which carries its ReferenceTrace fingerprint; batch formation is the
// engine's fixed kLanes - 1 fault spans and needs no key), and a canonical
// options hash over the payload-affecting options.
// ResultCache keys the deterministic CampaignResult JSON payload on
// exactly those:
//
//   CacheKey{universe_fp, trace_fp, options_hash, fault_model}
//
// CampaignEngine::run consults the cache before planning anything: a full
// hit decodes the stored payload and returns it with ZERO shards executed
// (no runner built, no kernel eval — stats.cache = "hit"); a miss grades
// normally and populates the cache. Because the payload is the
// byte-comparable deterministic JSON (campaign_result_to_json without
// stats) and Json dump∘parse is byte-stable, a warm re-serialize is
// byte-identical to the cold run's document.
//
// Two tiers: an in-memory LRU (per-process, mutex-guarded) over an
// optional on-disk tier (--cache-dir; one JSON file per entry named by
// the key digest, written tmp-file + atomic rename, full canonical key
// verified on load). A corrupt or mismatched disk entry is counted, never
// trusted: the lookup falls back to a clean re-grade which overwrites it.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>

#include "campaign/campaign.hpp"

namespace olfui {

// ---------------------------------------------------------------------------
// Stable hashing primitives (FNV-1a, shared by every cache-key component).

inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnv1aPrime = 0x100000001b3ULL;

std::uint64_t fnv1a64(std::string_view text, std::uint64_t h = kFnv1aOffset);
/// Folds one 64-bit value (little-endian bytes) into a running hash.
std::uint64_t fnv1a64_word(std::uint64_t v, std::uint64_t h);

// ---------------------------------------------------------------------------
// Canonical campaign-options hash (the cache key's options component, also
// reported in RuntimeStats::options_hash).

/// Canonical serialization of every payload-affecting CampaignOptions
/// field as sorted "key=value" pairs — defaults included explicitly, so a
/// changed default changes the hash and field declaration order never
/// matters. Payload-NEUTRAL knobs (threads, the cache itself,
/// observability) are deliberately absent: they never change the
/// deterministic payload, so they must not fragment the cache.
std::string campaign_options_canonical(const CampaignOptions& opts);
/// fnv1a64 of campaign_options_canonical().
std::uint64_t campaign_options_hash(const CampaignOptions& opts);

// ---------------------------------------------------------------------------
// Fingerprint helpers for the remaining key components.

/// Structural netlist + universe fingerprint: folds the universe size and
/// every cell's (type, output net, input nets) — any re-wiring, cell-type
/// change, or resize changes it.
std::uint64_t universe_fingerprint(const FaultUniverse& universe);

/// Initial fault-list state fingerprint: per-fault (detect, untestable
/// kind, online source). Campaign targets and the final detection state
/// both depend on where the list started, so the starting state is part
/// of the universe component of the key.
std::uint64_t fault_list_fingerprint(const FaultList& fl);

/// Folds every test's (name, good_cycles, spec) — the spec carries the
/// ReferenceTrace state fingerprint, so this is the key's trace component.
/// Returns 0 (not cacheable) if any test has a null spec: without one the
/// grading kernel a make_runner closure captures cannot be fingerprinted.
std::uint64_t campaign_tests_fingerprint(std::span<const CampaignTest> tests);

// ---------------------------------------------------------------------------
// The cache.

struct CacheKey {
  std::uint64_t universe_fp = 0;  ///< netlist structure + fault-list state
  std::uint64_t trace_fp = 0;     ///< tests incl. ReferenceTrace fingerprints
  std::uint64_t options_hash = 0; ///< campaign_options_hash()
  std::string fault_model = "stuck_at";

  /// Self-describing canonical form ("cache_key/v7|universe=..|..") —
  /// stored verbatim inside each disk entry and verified on load, so a
  /// digest collision can never serve the wrong payload. The version moves
  /// whenever the stored payload's meaning does (v3: per-test batches
  /// count only the pairs left after activation screening; v4: SBST
  /// batches are 127-fault spans and the key has no lane width; v5:
  /// stuck-at batches count 255-fault spans of equivalence-class
  /// representatives; v6: so do transition batches, over the transition
  /// classes; v7: SBST batches count only the pairs left after each test's
  /// observability screen too).
  std::string canonical() const;
  /// fnv1a64 of canonical(): the disk entry's file name.
  std::uint64_t digest() const;
  bool operator==(const CacheKey&) const = default;
};

struct ResultCacheStats {
  std::size_t hits = 0;       ///< lookups served (memory or disk)
  std::size_t misses = 0;     ///< lookups that found nothing usable
  std::size_t stores = 0;     ///< payloads stored (to disk, when configured)
  std::size_t evictions = 0;  ///< LRU entries dropped at capacity
  std::size_t disk_hits = 0;  ///< hits that came off the disk tier
  std::size_t corrupt = 0;    ///< disk entries rejected (parse/key/payload)
};

/// Thread-safe two-tier result cache. The value is the deterministic
/// CampaignResult payload (campaign_result_to_json_string without stats);
/// lookup() decodes it and any decode failure — however the entry got
/// damaged — counts as corrupt and falls back to a miss, so a damaged
/// cache can cost time but never correctness. Mirrors every stat into the
/// obs registry (cache.* counters) when metrics are enabled.
class ResultCache {
 public:
  /// `capacity` bounds the in-memory LRU tier (clamped to >= 1).
  /// `dir`, when nonempty, enables the disk tier: one
  /// "<digest16hex>.json" file per entry under it. The directory and any
  /// missing parents are created; throws std::runtime_error naming the
  /// path if that fails.
  explicit ResultCache(std::size_t capacity = 64, std::string dir = {});

  /// Full-hit lookup over a universe of `universe` faults: decoded result,
  /// or nullopt on miss/corruption. A payload whose universe or detection
  /// vector has any other size counts as corrupt: replaying it would
  /// index past the caller's fault list.
  std::optional<CampaignResult> lookup(const CacheKey& key,
                                       std::size_t universe);
  /// Encodes and stores (memory always; disk too when configured) —
  /// overwrites any existing entry, which is how a corrupt disk file
  /// heals after the fallback re-grade. With a disk tier, only a
  /// successful disk write counts as a store.
  void store(const CacheKey& key, const CampaignResult& result);

  ResultCacheStats stats() const;
  const std::string& dir() const { return dir_; }
  std::size_t capacity() const { return capacity_; }
  std::size_t size() const;

 private:
  using LruList = std::list<std::pair<std::string, std::string>>;

  void insert_locked(const std::string& canonical, std::string payload);
  std::optional<std::string> disk_load_locked(const CacheKey& key);
  bool disk_store_locked(const CacheKey& key, const std::string& payload);

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::string dir_;
  LruList lru_;  ///< front = most recent; (canonical key, payload)
  std::unordered_map<std::string_view, LruList::iterator> index_;
  ResultCacheStats stats_;
};

}  // namespace olfui
