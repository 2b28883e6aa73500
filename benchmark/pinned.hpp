// Pinned outputs of seed 1 (the stock SocConfig{}), one row per checked
// value; olfui_bench compares every operation of a workload against its
// rows in one loop. Only the detection payload and the analyzer's counts
// are pinned: batch counts, per-test targets, pairs graded and every
// runtime statistic are left out, because a change to the lane width or
// to activation screening moves them without changing a single result.
#pragma once

namespace olfui::bench {

struct PinnedRow {
  const char* workload;
  const char* key;
  const char* value;
};

inline constexpr PinnedRow kPinnedSeed1[] = {
    // clang-format off
    // workload        key                        value
    {"sa_full",        "detected",                "39420"},
    {"sa_full",        "detected_fnv",            "7fabee098d09f8f7"},
    {"sa_full",        "raw_coverage",            "0.651355"},
    {"sa_full",        "pruned_coverage",         "0.651355"},
    {"sa_full",        "new.alu_arith",           "16636"},
    {"sa_full",        "new.alu_logic",           "1186"},
    {"sa_full",        "new.shift",               "2492"},
    {"sa_full",        "new.regfile",             "1066"},
    {"sa_full",        "new.branch_btb",          "2172"},
    {"sa_full",        "new.loadstore",           "701"},
    {"sa_full",        "new.mul",                 "15021"},
    {"sa_full",        "new.decode",              "146"},

    {"tdf_full",       "detected",                "23991"},
    {"tdf_full",       "detected_fnv",            "688639fb3556384b"},
    {"tdf_full",       "raw_coverage",            "0.396414"},
    {"tdf_full",       "pruned_coverage",         "0.396414"},
    {"tdf_full",       "new.alu_arith",           "9945"},
    {"tdf_full",       "new.alu_logic",           "1293"},
    {"tdf_full",       "new.shift",               "1510"},
    {"tdf_full",       "new.regfile",             "1231"},
    {"tdf_full",       "new.branch_btb",          "907"},
    {"tdf_full",       "new.loadstore",           "1152"},
    {"tdf_full",       "new.mul",                 "7781"},
    {"tdf_full",       "new.decode",              "172"},

    // The paper's flow: 10,085 on-line + 1,443 structural faults pruned
    // lift coverage from 65.14% to 80.46% with the same detections.
    {"olfui_flow",     "analyzer.structural",     "1443"},
    {"olfui_flow",     "analyzer.scan",           "5073"},
    {"olfui_flow",     "analyzer.debug_control",  "2023"},
    {"olfui_flow",     "analyzer.debug_observe",  "1105"},
    {"olfui_flow",     "analyzer.memmap",         "1884"},
    {"olfui_flow",     "analyzer.online",         "10085"},
    {"olfui_flow",     "detected",                "39420"},
    {"olfui_flow",     "detected_fnv",            "7fabee098d09f8f7"},
    {"olfui_flow",     "raw_coverage",            "0.651355"},
    {"olfui_flow",     "pruned_coverage",         "0.804621"},
    {"olfui_flow",     "new.alu_arith",           "16636"},
    {"olfui_flow",     "new.alu_logic",           "1186"},
    {"olfui_flow",     "new.shift",               "2492"},
    {"olfui_flow",     "new.regfile",             "1066"},
    {"olfui_flow",     "new.branch_btb",          "2172"},
    {"olfui_flow",     "new.loadstore",           "701"},
    {"olfui_flow",     "new.mul",                 "15021"},
    {"olfui_flow",     "new.decode",              "146"},

    // A cache hit replays the stuck-at campaign's payload exactly.
    {"regrade_warm",   "detected",                "39420"},
    {"regrade_warm",   "detected_fnv",            "7fabee098d09f8f7"},
    {"regrade_warm",   "raw_coverage",            "0.651355"},
    {"regrade_warm",   "pruned_coverage",         "0.651355"},
    {"regrade_warm",   "new.alu_arith",           "16636"},
    {"regrade_warm",   "new.alu_logic",           "1186"},
    {"regrade_warm",   "new.shift",               "2492"},
    {"regrade_warm",   "new.regfile",             "1066"},
    {"regrade_warm",   "new.branch_btb",          "2172"},
    {"regrade_warm",   "new.loadstore",           "701"},
    {"regrade_warm",   "new.mul",                 "15021"},
    {"regrade_warm",   "new.decode",              "146"},
    // clang-format on
};

}  // namespace olfui::bench
