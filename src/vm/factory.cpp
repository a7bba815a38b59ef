#include <memory>
#include <stdexcept>
#include <string>

#include "sim/simulator.hpp"
#include "vm/dyntm.hpp"
#include "vm/fastm.hpp"
#include "vm/logtm_se.hpp"
#include "vm/suv_vm.hpp"

namespace suvtm::sim {

// The one place scheme spellings live. Display names match the paper's
// figures; cli names are what benches and examples accept on the command
// line. Everything else (reports, traces, equivalence, parsing) goes
// through the accessors below.
const std::vector<SchemeInfo>& scheme_table() {
  static const std::vector<SchemeInfo> table = {
      {Scheme::kLogTmSe, "LogTM-SE", "logtm"},
      {Scheme::kFasTm, "FasTM", "fastm"},
      {Scheme::kSuv, "SUV-TM", "suv"},
      {Scheme::kDynTm, "DynTM", "dyntm"},
      {Scheme::kDynTmSuv, "DynTM+SUV", "dyntm-suv"},
  };
  return table;
}

const std::vector<Scheme>& all_schemes() {
  static const std::vector<Scheme> schemes = [] {
    std::vector<Scheme> out;
    for (const SchemeInfo& i : scheme_table()) out.push_back(i.scheme);
    return out;
  }();
  return schemes;
}

const char* scheme_name(Scheme s) {
  for (const SchemeInfo& i : scheme_table()) {
    if (i.scheme == s) return i.name;
  }
  return "?";
}

const char* scheme_cli_name(Scheme s) {
  for (const SchemeInfo& i : scheme_table()) {
    if (i.scheme == s) return i.cli_name;
  }
  return "?";
}

Scheme scheme_from_string(std::string_view s) {
  for (const SchemeInfo& i : scheme_table()) {
    if (s == i.name || s == i.cli_name) return i.scheme;
  }
  std::string msg = "unknown scheme \"" + std::string(s) + "\"; valid names:";
  for (const SchemeInfo& i : scheme_table()) {
    msg += ' ';
    msg += i.cli_name;
  }
  throw std::invalid_argument(msg);
}

std::unique_ptr<htm::VersionManager> make_version_manager(
    const SimConfig& cfg, mem::MemorySystem& mem, CoreRange local) {
  switch (cfg.scheme) {
    case Scheme::kLogTmSe:
      return std::make_unique<vm::LogTmSe>(cfg.htm, mem);
    case Scheme::kFasTm:
      return std::make_unique<vm::FasTm>(cfg.htm, mem);
    case Scheme::kSuv:
      return std::make_unique<vm::SuvVm>(cfg.suv, mem, cfg.mem.num_cores,
                                         local);
    case Scheme::kDynTm:
      return std::make_unique<vm::DynTm>(
          cfg.htm, mem, std::make_unique<vm::FasTm>(cfg.htm, mem),
          /*suv_backend=*/false);
    case Scheme::kDynTmSuv:
      return std::make_unique<vm::DynTm>(
          cfg.htm, mem,
          std::make_unique<vm::SuvVm>(cfg.suv, mem, cfg.mem.num_cores, local),
          /*suv_backend=*/true);
  }
  return nullptr;
}

vm::SuvVm* suv_backend(htm::VersionManager& vm) {
  if (auto* dyn = dynamic_cast<vm::DynTm*>(&vm)) {
    return dynamic_cast<vm::SuvVm*>(&dyn->inner());
  }
  return dynamic_cast<vm::SuvVm*>(&vm);
}

}  // namespace suvtm::sim
