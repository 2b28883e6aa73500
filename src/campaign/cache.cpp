#include "campaign/cache.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <system_error>

#include "campaign/report.hpp"
#include "obs/metrics.hpp"

namespace olfui {

namespace {

void bump(const char* name, std::uint64_t n = 1) {
  if (n && obs::metrics().enabled()) obs::metrics().counter(name).add(n);
}

/// Whole-file read; nullopt when the file cannot be opened or read.
std::optional<std::string> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return std::nullopt;
  std::string text;
  char buf[1 << 14];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  const bool ok = !std::ferror(f);
  std::fclose(f);
  if (!ok) return std::nullopt;
  return text;
}

/// tmp-file + rename so a reader never sees a half-written entry and a
/// crashed writer leaves at most a stray .tmp, never a corrupt entry.
bool write_file_atomic(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return false;
  const bool ok =
      std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
      std::fclose(f) == 0;
  if (!ok) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace

std::uint64_t fnv1a64(std::string_view text, std::uint64_t h) {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnv1aPrime;
  }
  return h;
}

std::uint64_t fnv1a64_word(std::uint64_t v, std::uint64_t h) {
  for (int k = 0; k < 8; ++k) {
    h ^= (v >> (8 * k)) & 0xFF;
    h *= kFnv1aPrime;
  }
  return h;
}

std::string campaign_options_canonical(const CampaignOptions& opts) {
  // Alphabetical by key, every field explicit (a changed default changes
  // the string), one stable "k=v" grammar. Extend by inserting the new
  // field at its sorted position — the test pins the exact format.
  std::string out = "campaign_options/v1";
  const auto field = [&out](std::string_view key, const std::string& value) {
    out += '|';
    out += key;
    out += '=';
    out += value;
  };
  field("fault_model", std::string(to_string(opts.fault_model)));
  field("target_limit", std::to_string(opts.target_limit));
  return out;
}

std::uint64_t campaign_options_hash(const CampaignOptions& opts) {
  return fnv1a64(campaign_options_canonical(opts));
}

std::uint64_t universe_fingerprint(const FaultUniverse& universe) {
  const Netlist& nl = universe.netlist();
  std::uint64_t h = fnv1a64("universe/v1");
  h = fnv1a64_word(universe.size(), h);
  h = fnv1a64_word(nl.num_nets(), h);
  h = fnv1a64_word(nl.num_cells(), h);
  for (CellId id = 0; id < nl.num_cells(); ++id) {
    const Cell& c = nl.cell(id);
    h = fnv1a64_word(static_cast<std::uint64_t>(c.type), h);
    h = fnv1a64_word(c.out, h);
    for (const NetId in : c.ins) h = fnv1a64_word(in, h);
  }
  return h;
}

std::uint64_t fault_list_fingerprint(const FaultList& fl) {
  std::uint64_t h = fnv1a64("fault_list/v1");
  h = fnv1a64_word(fl.size(), h);
  for (FaultId f = 0; f < fl.size(); ++f) {
    std::uint64_t state = static_cast<std::uint64_t>(fl.detect_state(f));
    state |= static_cast<std::uint64_t>(fl.untestable_kind(f)) << 8;
    state |= static_cast<std::uint64_t>(fl.online_source(f)) << 16;
    h = fnv1a64_word(state, h);
  }
  return h;
}

std::uint64_t campaign_tests_fingerprint(std::span<const CampaignTest> tests) {
  std::uint64_t h = fnv1a64("tests/v1");
  h = fnv1a64_word(tests.size(), h);
  for (const CampaignTest& test : tests) {
    if (test.spec.is_null()) return 0;
    h = fnv1a64(test.name, h);
    h = fnv1a64_word(static_cast<std::uint64_t>(test.good_cycles), h);
    h = fnv1a64(test.spec.dump(), h);
  }
  return h;
}

std::string CacheKey::canonical() const {
  std::string out = "cache_key/v7";
  const auto field = [&out](std::string_view key, const std::string& value) {
    out += '|';
    out += key;
    out += '=';
    out += value;
  };
  field("universe", word_to_hex(universe_fp));
  field("trace", word_to_hex(trace_fp));
  field("options", word_to_hex(options_hash));
  field("model", fault_model);
  return out;
}

std::uint64_t CacheKey::digest() const { return fnv1a64(canonical()); }

ResultCache::ResultCache(std::size_t capacity, std::string dir)
    : capacity_(std::max<std::size_t>(capacity, 1)), dir_(std::move(dir)) {
  if (dir_.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec || !std::filesystem::is_directory(dir_, ec))
    throw std::runtime_error("result cache: cannot create directory '" + dir_ +
                             "'" + (ec ? ": " + ec.message() : std::string()));
}

void ResultCache::insert_locked(const std::string& canonical,
                                std::string payload) {
  const auto it = index_.find(std::string_view(canonical));
  if (it != index_.end()) {
    it->second->second = std::move(payload);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(canonical, std::move(payload));
  index_.emplace(std::string_view(lru_.front().first), lru_.begin());
  while (lru_.size() > capacity_) {
    index_.erase(std::string_view(lru_.back().first));
    lru_.pop_back();
    ++stats_.evictions;
    bump("cache.evictions");
  }
}

std::optional<std::string> ResultCache::disk_load_locked(const CacheKey& key) {
  const std::string path = dir_ + "/" + word_to_hex(key.digest()) + ".json";
  const std::optional<std::string> text = read_file(path);
  if (!text) return std::nullopt;  // absent: a plain miss, not corruption
  try {
    const Json doc = Json::parse(*text);
    const Json& stored = doc.at("key");
    if (stored.as_string() != key.canonical())
      throw JsonError("cache entry: key mismatch", stored.source_offset());
    return doc.at("payload").as_string();
  } catch (const std::exception&) {
    ++stats_.corrupt;
    bump("cache.corrupt");
    return std::nullopt;
  }
}

bool ResultCache::disk_store_locked(const CacheKey& key,
                                    const std::string& payload) {
  Json doc = Json::object();
  doc.set("key", key.canonical());
  doc.set("payload", payload);
  const std::string path = dir_ + "/" + word_to_hex(key.digest()) + ".json";
  return write_file_atomic(path, doc.dump(0));
}

std::optional<CampaignResult> ResultCache::lookup(const CacheKey& key,
                                                  std::size_t universe) {
  std::lock_guard lock(mu_);
  const std::string canonical = key.canonical();
  // An entry whose payload is empty is still an entry: it decodes below
  // and counts as corrupt, never as a plain miss.
  std::optional<std::string> payload;
  bool from_disk = false;
  const auto it = index_.find(std::string_view(canonical));
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    payload = it->second->second;
  } else if (!dir_.empty()) {
    payload = disk_load_locked(key);
    from_disk = payload.has_value();
  }
  if (!payload) {
    ++stats_.misses;
    bump("cache.misses");
    return std::nullopt;
  }
  try {
    CampaignResult result = campaign_result_from_json_string(*payload);
    if (result.universe != universe || result.detected.size() != universe)
      throw std::runtime_error("cache entry: payload universe mismatch");
    if (from_disk) {
      insert_locked(canonical, std::move(*payload));
      ++stats_.disk_hits;
      bump("cache.disk_hits");
    }
    ++stats_.hits;
    bump("cache.hits");
    return result;
  } catch (const std::exception&) {
    // A payload that no longer decodes (however it got damaged), or that
    // describes another universe, must cost a re-grade, never serve
    // garbage.
    if (it != index_.end()) {
      index_.erase(std::string_view(it->second->first));
      lru_.erase(it->second);
    }
    ++stats_.corrupt;
    bump("cache.corrupt");
    ++stats_.misses;
    bump("cache.misses");
    return std::nullopt;
  }
}

void ResultCache::store(const CacheKey& key, const CampaignResult& result) {
  // The stored value is exactly the byte-comparable deterministic payload
  // (no stats) — what two runs of one campaign can be cmp'd on.
  std::string payload = campaign_result_to_json_string(result, 2, false);
  std::lock_guard lock(mu_);
  insert_locked(key.canonical(), payload);
  if (!dir_.empty() && !disk_store_locked(key, payload)) return;
  ++stats_.stores;
  bump("cache.stores");
}

ResultCacheStats ResultCache::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

std::size_t ResultCache::size() const {
  std::lock_guard lock(mu_);
  return lru_.size();
}

}  // namespace olfui
