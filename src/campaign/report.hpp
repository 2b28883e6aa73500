// olfui/campaign: campaign-result JSON exchange.
//
// A campaign's outcome outlives the process that ran it: CI tracks
// coverage trends, ablation sweeps diff results between configurations,
// and the result cache stores the deterministic payload on disk. Both
// directions are provided — export and a strict
// import that round-trips every deterministic field (the detection BitVec
// travels as packed hex words, not a fault-id list, so a full-universe
// result stays compact).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "campaign/campaign.hpp"
#include "campaign/json.hpp"

namespace olfui {

/// Full document. With include_stats = false the nondeterministic "stats"
/// object is omitted, leaving exactly the deterministic payload
/// (operator=='s view) — the form two runs of one campaign can be
/// byte-compared on, which is how CI asserts that the thread count never
/// shows through.
Json campaign_result_to_json(const CampaignResult& result,
                             bool include_stats = true);
std::string campaign_result_to_json_string(const CampaignResult& result,
                                           int indent = 2,
                                           bool include_stats = true);

/// Inverse of campaign_result_to_json. Throws JsonError on malformed or
/// incomplete documents.
CampaignResult campaign_result_from_json(const Json& doc);
CampaignResult campaign_result_from_json_string(std::string_view text);

/// Packed little-endian hex rendering of a BitVec ("size:words...").
std::string bitvec_to_hex(const BitVec& bits);
BitVec bitvec_from_hex(std::string_view text);

/// Fixed-width (16 char) lowercase hex of one 64-bit word, and its strict
/// inverse (throws JsonError on any other shape) — the form of
/// fingerprints throughout the campaign JSON.
std::string word_to_hex(std::uint64_t w);
std::uint64_t word_from_hex(std::string_view text);

/// Classification summary of a fault list — the JSON schema shared with
/// fault/report.hpp's to_json_summary shim (one schema for both report
/// stacks): universe/detected/untestable counts, by_source and by_kind
/// objects, both coverage figures, plus the same rows expressed as
/// campaign ClassCoverage entries under "classes".
Json fault_summary_to_json(const FaultList& fl);

}  // namespace olfui
