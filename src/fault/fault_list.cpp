#include "fault/fault_list.hpp"

#include "util/strings.hpp"

namespace olfui {

std::string_view to_string(UntestableKind k) {
  switch (k) {
    case UntestableKind::kNone: return "none";
    case UntestableKind::kTied: return "tied";
    case UntestableKind::kUnobservable: return "unobservable";
    case UntestableKind::kRedundant: return "redundant";
  }
  return "?";
}

std::string_view to_string(OnlineSource s) {
  switch (s) {
    case OnlineSource::kNone: return "none";
    case OnlineSource::kStructural: return "structural";
    case OnlineSource::kScan: return "scan";
    case OnlineSource::kDebugControl: return "debug-control";
    case OnlineSource::kDebugObserve: return "debug-observe";
    case OnlineSource::kMemoryMap: return "memory-map";
    case OnlineSource::kMission: return "mission";
  }
  return "?";
}

std::string_view to_string(FaultModel m) {
  switch (m) {
    case FaultModel::kStuckAt: return "stuck_at";
    case FaultModel::kTransition: return "transition";
  }
  return "?";
}

FaultList::FaultList(const FaultUniverse& universe)
    : universe_(&universe),
      detect_(universe.size(), DetectState::kUndetected),
      kind_(universe.size(), UntestableKind::kNone),
      source_(universe.size(), OnlineSource::kNone) {}

void FaultList::mark_untestable(FaultId f, UntestableKind k, OnlineSource s) {
  if (kind_[f] == UntestableKind::kNone) kind_[f] = k;
  if (source_[f] == OnlineSource::kNone) source_[f] = s;
}

BitVec FaultList::untestable_mask() const {
  BitVec m(size());
  for (FaultId f = 0; f < size(); ++f)
    if (kind_[f] != UntestableKind::kNone) m.set(f, true);
  return m;
}

BitVec FaultList::source_mask(OnlineSource s) const {
  BitVec m(size());
  for (FaultId f = 0; f < size(); ++f)
    if (source_[f] == s) m.set(f, true);
  return m;
}

std::size_t FaultList::count_untestable() const {
  std::size_t n = 0;
  for (auto k : kind_)
    if (k != UntestableKind::kNone) ++n;
  return n;
}

std::size_t FaultList::count_source(OnlineSource s) const {
  std::size_t n = 0;
  for (auto v : source_)
    if (v == s) ++n;
  return n;
}

std::size_t FaultList::count_detected() const {
  std::size_t n = 0;
  for (auto d : detect_)
    if (d == DetectState::kDetected) ++n;
  return n;
}

double FaultList::raw_coverage() const {
  return size() == 0 ? 0.0
                     : static_cast<double>(count_detected()) /
                           static_cast<double>(size());
}

double FaultList::pruned_coverage() const {
  std::size_t detected = 0, testable = 0;
  for (FaultId f = 0; f < size(); ++f) {
    if (kind_[f] != UntestableKind::kNone) continue;
    ++testable;
    if (detect_[f] == DetectState::kDetected) ++detected;
  }
  return testable == 0 ? 1.0
                       : static_cast<double>(detected) /
                             static_cast<double>(testable);
}

std::string FaultList::summary() const {
  const double total = static_cast<double>(size());
  std::string out;
  out += format("fault universe: %s faults\n", with_commas(size()).c_str());
  for (const OnlineSource s : kUntestableSources) {
    const std::size_t n = count_source(s);
    out += format("  %-14s %8s  (%.1f%%)\n", std::string(to_string(s)).c_str(),
                  with_commas(n).c_str(), total > 0 ? 100.0 * n / total : 0.0);
  }
  const std::size_t u = count_untestable();
  out += format("  %-14s %8s  (%.1f%%)\n", "TOTAL", with_commas(u).c_str(),
                total > 0 ? 100.0 * u / total : 0.0);
  return out;
}

}  // namespace olfui
