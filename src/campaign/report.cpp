#include "campaign/report.hpp"

#include <cstdio>
#include <limits>
#include <map>
#include <stdexcept>

namespace olfui {

namespace {

/// Fixed-width (16 char) lowercase hex of one 64-bit word.
void append_hex_word(std::string& out, std::uint64_t w) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(w));
  out += buf;
}

/// One hex digit; throws JsonError (at `offset`) on anything else.
unsigned hex_nibble(char c, std::size_t offset) {
  if (c >= '0' && c <= '9') return static_cast<unsigned>(c - '0');
  if (c >= 'a' && c <= 'f') return static_cast<unsigned>(c - 'a' + 10);
  if (c >= 'A' && c <= 'F') return static_cast<unsigned>(c - 'A' + 10);
  throw JsonError("bad hex digit", offset);
}

}  // namespace

std::string bitvec_to_hex(const BitVec& bits) {
  std::string out = std::to_string(bits.size());
  out += ':';
  for (std::size_t w = 0; w < bits.word_count(); ++w)
    append_hex_word(out, bits.word(w));
  return out;
}

BitVec bitvec_from_hex(std::string_view text) {
  const auto colon = text.find(':');
  if (colon == std::string_view::npos)
    throw JsonError("bitvec: missing ':' separator", 0);
  std::size_t nbits = 0;
  if (colon == 0) throw JsonError("bitvec: bad size", 0);
  for (char c : text.substr(0, colon)) {
    if (c < '0' || c > '9') throw JsonError("bitvec: bad size", 0);
    if (nbits > (std::numeric_limits<std::size_t>::max() - 9) / 10)
      throw JsonError("bitvec: size overflows", 0);
    nbits = nbits * 10 + static_cast<std::size_t>(c - '0');
  }
  // Validate the length before allocating: a corrupt size field must
  // throw, not attempt a giant allocation.
  const std::string_view hex = text.substr(colon + 1);
  const std::size_t words = nbits / 64 + (nbits % 64 != 0);
  if (hex.size() % 16 != 0 || hex.size() / 16 != words)
    throw JsonError("bitvec: word count does not match size", colon);
  BitVec bits(nbits);
  for (std::size_t i = 0; i < hex.size(); ++i) {
    const unsigned nibble = hex_nibble(hex[i], colon + 1 + i);
    // Word w occupies hex chars [16w, 16w+16), most significant first.
    const std::size_t word = i / 16;
    const std::size_t shift = (15 - i % 16) * 4;
    for (unsigned b = 0; b < 4; ++b) {
      if (!(nibble & (1u << b))) continue;
      const std::size_t bit = word * 64 + shift + b;
      if (bit >= nbits) throw JsonError("bitvec: set bit past size", i);
      bits.set(bit, true);
    }
  }
  return bits;
}

std::string word_to_hex(std::uint64_t w) {
  std::string out;
  append_hex_word(out, w);
  return out;
}

std::uint64_t word_from_hex(std::string_view text) {
  if (text.size() != 16) throw JsonError("hex word: bad length", 0);
  std::uint64_t w = 0;
  for (std::size_t i = 0; i < text.size(); ++i)
    w = (w << 4) | hex_nibble(text[i], i);
  return w;
}

Json campaign_result_to_json(const CampaignResult& result,
                             bool include_stats) {
  Json doc = Json::object();
  doc.set("universe", result.universe);
  doc.set("fault_model", std::string(to_string(result.fault_model)));
  doc.set("total_new_detections", result.total_new_detections);
  doc.set("raw_coverage", result.raw_coverage);
  doc.set("pruned_coverage", result.pruned_coverage);
  doc.set("detected_bits", bitvec_to_hex(result.detected));

  Json tests = Json::array();
  for (const CampaignResult::PerTest& pt : result.tests) {
    Json t = Json::object();
    t.set("name", pt.name);
    t.set("good_cycles", pt.good_cycles);
    t.set("faults_targeted", pt.faults_targeted);
    t.set("batches", pt.batches);
    t.set("new_detections", pt.new_detections);
    tests.push_back(std::move(t));
  }
  doc.set("tests", std::move(tests));

  Json classes = Json::array();
  for (const CampaignResult::ClassCoverage& cc : result.classes) {
    Json c = Json::object();
    c.set("name", cc.name);
    c.set("total", cc.total);
    c.set("detected", cc.detected);
    classes.push_back(std::move(c));
  }
  doc.set("classes", std::move(classes));

  if (include_stats) {
    Json stats = Json::object();
    stats.set("wall_seconds", result.stats.wall_seconds);
    stats.set("threads", result.stats.threads);
    stats.set("faults_simulated", result.stats.faults_simulated);
    stats.set("faults_screened", result.stats.faults_screened);
    stats.set("faults_collapsed", result.stats.faults_collapsed);
    stats.set("batches", result.stats.batches);
    stats.set("faults_per_second", result.stats.faults_per_second);
    Json shard_seconds = Json::array();
    for (double s : result.stats.shard_seconds) shard_seconds.push_back(s);
    stats.set("shard_seconds", std::move(shard_seconds));
    // Cache provenance: how this result was produced ("off" / "bypass" /
    // "miss" / "hit") and the canonical options hash it was keyed under.
    Json cache = Json::object();
    cache.set("state", result.stats.cache);
    cache.set("options_hash", word_to_hex(result.stats.options_hash));
    stats.set("cache", std::move(cache));
    doc.set("stats", std::move(stats));
  }
  return doc;
}

std::string campaign_result_to_json_string(const CampaignResult& result,
                                           int indent, bool include_stats) {
  return campaign_result_to_json(result, include_stats).dump(indent);
}

CampaignResult campaign_result_from_json(const Json& doc) {
  CampaignResult result;
  result.universe = doc.at("universe").as_size();
  const Json& model_node = doc.at("fault_model");
  const std::string& model = model_node.as_string();
  if (model == to_string(FaultModel::kTransition))
    result.fault_model = FaultModel::kTransition;
  else if (model != to_string(FaultModel::kStuckAt))
    throw JsonError("campaign: unknown fault_model '" + model + "'",
                    model_node.source_offset());
  result.total_new_detections = doc.at("total_new_detections").as_size();
  result.raw_coverage = doc.at("raw_coverage").as_number();
  result.pruned_coverage = doc.at("pruned_coverage").as_number();
  result.detected = bitvec_from_hex(doc.at("detected_bits").as_string());

  const Json& tests = doc.at("tests");
  for (std::size_t i = 0; i < tests.size(); ++i) {
    const Json& t = tests.at(i);
    CampaignResult::PerTest pt;
    pt.name = t.at("name").as_string();
    pt.good_cycles = t.at("good_cycles").as_int();
    pt.faults_targeted = t.at("faults_targeted").as_size();
    pt.batches = t.at("batches").as_size();
    pt.new_detections = t.at("new_detections").as_size();
    result.tests.push_back(std::move(pt));
  }

  const Json& classes = doc.at("classes");
  for (std::size_t i = 0; i < classes.size(); ++i) {
    const Json& c = classes.at(i);
    CampaignResult::ClassCoverage cc;
    cc.name = c.at("name").as_string();
    cc.total = c.at("total").as_size();
    cc.detected = c.at("detected").as_size();
    result.classes.push_back(std::move(cc));
  }

  if (doc.contains("stats")) {  // omitted by deterministic-payload dumps
    const Json& stats = doc.at("stats");
    result.stats.wall_seconds = stats.at("wall_seconds").as_number();
    result.stats.threads = stats.at("threads").as_int();
    result.stats.faults_simulated = stats.at("faults_simulated").as_size();
    if (stats.contains("faults_screened"))  // absent in pre-screening dumps
      result.stats.faults_screened = stats.at("faults_screened").as_size();
    if (stats.contains("faults_collapsed"))  // absent in pre-collapsing dumps
      result.stats.faults_collapsed = stats.at("faults_collapsed").as_size();
    result.stats.batches = stats.at("batches").as_size();
    result.stats.faults_per_second = stats.at("faults_per_second").as_number();
    if (stats.contains("shard_seconds")) {  // absent in pre-shard-stat dumps
      const Json& shard_seconds = stats.at("shard_seconds");
      for (std::size_t i = 0; i < shard_seconds.size(); ++i)
        result.stats.shard_seconds.push_back(shard_seconds.at(i).as_number());
    }
    if (stats.contains("cache")) {  // absent in pre-cache dumps
      const Json& cache = stats.at("cache");
      result.stats.cache = cache.at("state").as_string();
      result.stats.options_hash =
          word_from_hex(cache.at("options_hash").as_string());
    }
  }
  return result;
}

CampaignResult campaign_result_from_json_string(std::string_view text) {
  return campaign_result_from_json(Json::parse(text));
}

Json fault_summary_to_json(const FaultList& fl) {
  Json doc = Json::object();
  doc.set("universe", fl.size());
  doc.set("detected", fl.count_detected());
  doc.set("untestable", fl.count_untestable());

  // The Table-I rows, kept as the legacy by_source/by_kind objects AND
  // re-expressed as campaign ClassCoverage rows under "classes" (with
  // real per-class detected counts), so both report stacks speak one
  // schema.
  std::size_t tied = 0, unobs = 0, redundant = 0;
  std::size_t tied_det = 0, unobs_det = 0, redundant_det = 0;
  std::map<OnlineSource, std::size_t> source_det;
  for (FaultId f = 0; f < fl.size(); ++f) {
    const bool det = fl.detect_state(f) == DetectState::kDetected;
    if (det) ++source_det[fl.online_source(f)];
    switch (fl.untestable_kind(f)) {
      case UntestableKind::kTied: ++tied; tied_det += det; break;
      case UntestableKind::kUnobservable: ++unobs; unobs_det += det; break;
      case UntestableKind::kRedundant: ++redundant; redundant_det += det; break;
      case UntestableKind::kNone: break;
    }
  }

  std::vector<CampaignResult::ClassCoverage> classes;
  Json by_source = Json::object();
  for (const OnlineSource s : kUntestableSources) {
    const std::size_t n = fl.count_source(s);
    by_source.set(std::string(to_string(s)), n);
    classes.push_back({"source:" + std::string(to_string(s)), n,
                       source_det.count(s) ? source_det[s] : 0});
  }
  doc.set("by_source", std::move(by_source));

  Json by_kind = Json::object();
  by_kind.set("tied", tied);
  by_kind.set("unobservable", unobs);
  by_kind.set("redundant", redundant);
  doc.set("by_kind", std::move(by_kind));
  classes.push_back({"kind:tied", tied, tied_det});
  classes.push_back({"kind:unobservable", unobs, unobs_det});
  classes.push_back({"kind:redundant", redundant, redundant_det});

  doc.set("raw_coverage", fl.raw_coverage());
  doc.set("pruned_coverage", fl.pruned_coverage());

  Json class_rows = Json::array();
  for (const CampaignResult::ClassCoverage& cc : classes) {
    Json c = Json::object();
    c.set("name", cc.name);
    c.set("total", cc.total);
    c.set("detected", cc.detected);
    class_rows.push_back(std::move(c));
  }
  doc.set("classes", std::move(class_rows));
  return doc;
}

}  // namespace olfui
