// A serial single-fault oracle that shares no code with the packed kernel:
// each fault is realised as an edit of a copy of the netlist and graded
// alone on the 4-valued Simulator.
//
//  * A stuck-at stem fault rewires every reader of its net, output ports
//    included, to a new tie; a branch fault rewires its one pin.
//  * A transition fault gets a new `arm` input and a mux in front of the
//    same readers, which forces the capture value while `arm` is high. The
//    oracle drives `arm` on the capture cycles it derives from its own good
//    run, by run_batch's rule: the site changed into the non-capture
//    value, and cycle 0 never captures.
//
// The stimulus is ResetThenScriptEnv's: every input low across two clock
// edges, then one settle and one edge per scripted cycle. The 4-valued
// run powers every flop on at X, where the packed kernel powers on at 0,
// so a verdict that depends on an X is reported as unknown.
#pragma once

#include <utility>
#include <vector>

#include "fault/fault_list.hpp"
#include "fault/tdf.hpp"
#include "fault/universe.hpp"
#include "netlist/netlist.hpp"
#include "sim/logic.hpp"
#include "sim/sim.hpp"

namespace olfui {

enum class SerialVerdict { kUndetected, kDetected, kUnknown };

class SerialOracle {
 public:
  SerialOracle(const Netlist& nl, std::vector<NetId> inputs,
               std::vector<CellId> observed,
               std::vector<std::vector<bool>> stim)
      : nl_(&nl),
        inputs_(std::move(inputs)),
        observed_(std::move(observed)),
        stim_(std::move(stim)),
        good_(run(nl, kInvalidId, {})) {}

  /// Whether the good run knows every observed port on every cycle: a
  /// fault left undetected is decided only then.
  bool resolved() const {
    for (const std::vector<Logic>& v : good_)
      for (const CellId port : observed_)
        if (!is_known(v[nl_->cell(port).ins[0]])) return false;
    return true;
  }

  /// The verdict of grading `f` alone under `model`.
  SerialVerdict grade(const Fault& f, FaultModel model) const {
    Netlist faulty = *nl_;
    const NetId site = nl_->pin_net(f.pin);
    const CellId tie = faulty.add_cell(
        f.sa1 ? CellType::kTie1 : CellType::kTie0, "serial_tie",
        faulty.add_net("serial_tie"), {});
    NetId forced = faulty.cell(tie).out;
    NetId arm = kInvalidId;
    std::vector<bool> armed;
    CellId mux = kInvalidId;
    if (model == FaultModel::kTransition) {
      const Logic capture = from_bool(tdf_capture_value(f));
      for (std::size_t c = 0; c < stim_.size(); ++c) {
        const Logic now = good_[c][site];
        const Logic before = c == 0 ? now : good_[c - 1][site];
        // Cycle 0 never captures; a known capture value never launches.
        if (c == 0 || now == capture) {
          armed.push_back(false);
          continue;
        }
        if (!is_known(now) || !is_known(before)) return SerialVerdict::kUnknown;
        armed.push_back(before != now);
      }
      arm = faulty.add_input("serial_arm");
      mux = faulty.add_cell(CellType::kMux2, "serial_mux",
                            faulty.add_net("serial_mux"), {site, forced, arm});
      forced = faulty.cell(mux).out;
    }
    if (f.pin.pin == 0) {
      const std::vector<Pin> readers = faulty.net(site).fanout;
      for (const Pin& p : readers)
        if (p.cell != mux) faulty.rewire_input(p.cell, p.pin - 1, forced);
    } else {
      faulty.rewire_input(f.pin.cell, f.pin.pin - 1, forced);
    }
    const std::vector<std::vector<Logic>> bad = run(faulty, arm, armed);
    bool unknown = false;
    for (std::size_t c = 0; c < stim_.size(); ++c)
      for (const CellId port : observed_) {
        const Logic g = good_[c][nl_->cell(port).ins[0]];
        const Logic b = bad[c][faulty.cell(port).ins[0]];
        if (!is_known(g) || !is_known(b))
          unknown = true;
        else if (g != b)
          return SerialVerdict::kDetected;
      }
    return unknown ? SerialVerdict::kUnknown : SerialVerdict::kUndetected;
  }

 private:
  /// Every net's value after each scripted cycle's settle; `arm`, unless
  /// invalid, is driven high on the cycles `armed` marks and low otherwise.
  std::vector<std::vector<Logic>> run(const Netlist& nl, NetId arm,
                                      const std::vector<bool>& armed) const {
    Simulator sim(nl);
    sim.power_on();
    for (const NetId in : inputs_) sim.set_input(in, false);
    if (arm != kInvalidId) sim.set_input(arm, false);
    sim.eval();
    sim.clock();
    sim.clock();
    std::vector<std::vector<Logic>> values;
    for (std::size_t c = 0; c < stim_.size(); ++c) {
      for (std::size_t i = 0; i < inputs_.size(); ++i)
        sim.set_input(inputs_[i], static_cast<bool>(stim_[c][i]));
      if (arm != kInvalidId) sim.set_input(arm, static_cast<bool>(armed[c]));
      sim.eval();
      std::vector<Logic>& v = values.emplace_back(nl.num_nets());
      for (NetId n = 0; n < nl.num_nets(); ++n) v[n] = sim.value(n);
      sim.clock();
    }
    return values;
  }

  const Netlist* nl_;
  std::vector<NetId> inputs_;
  std::vector<CellId> observed_;
  std::vector<std::vector<bool>> stim_;
  std::vector<std::vector<Logic>> good_;  ///< per cycle, per net
};

}  // namespace olfui
