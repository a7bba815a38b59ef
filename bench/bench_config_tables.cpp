// Tables II + III: the redirect-entry state semantics and the simulated CMP
// configuration actually used by every experiment in this repository.
#include <cstdio>

#include "mem/memory_system.hpp"
#include "runner/cli.hpp"
#include "runner/tables.hpp"
#include "suv/redirect_entry.hpp"

using namespace suvtm;

int main(int argc, char** argv) {
  // No simulation here; parse so the shared flags are uniformly accepted.
  (void)runner::Cli::parse(argc, argv);
  const sim::SimConfig cfg;  // defaults == paper Table III
  using mem::Mesh;
  using mem::MemorySystem;

  std::printf("Table III: simulated CMP configuration (defaults)\n\n");
  std::vector<std::vector<std::string>> t3;
  t3.push_back({"component", "configuration"});
  t3.push_back({"processor cores",
                runner::fmt_u64(cfg.mem.num_cores) +
                    " in-order single-issue @1.2GHz, " +
                    runner::fmt_u64(cfg.mem.mesh_dim) + "x" +
                    runner::fmt_u64(cfg.mem.mesh_dim) + " mesh"});
  t3.push_back({"L1 cache", runner::fmt_u64(cfg.mem.l1_bytes / 1024) +
                                " KB " + runner::fmt_u64(cfg.mem.l1_assoc) +
                                "-way, 64B lines, " +
                                runner::fmt_u64(MemorySystem::kL1Latency) +
                                "-cycle"});
  t3.push_back({"L2 cache",
                runner::fmt_u64(cfg.mem.l2_bytes / (1024 * 1024)) + " MB " +
                    runner::fmt_u64(cfg.mem.l2_assoc) + "-way, " +
                    runner::fmt_u64(MemorySystem::kL2Latency) + "-cycle"});
  // The paper's four memory banks are not modelled; the row quotes them.
  t3.push_back({"main memory",
                "4 banks, " + runner::fmt_u64(MemorySystem::kMemoryLatency) +
                    "-cycle"});
  t3.push_back({"L2 directory",
                "bit vector of sharers, " +
                    runner::fmt_u64(MemorySystem::kDirectoryLatency) +
                    "-cycle"});
  t3.push_back({"interconnect",
                "mesh, " + runner::fmt_u64(Mesh::kWireLatency) +
                    "-cycle wire + " + runner::fmt_u64(Mesh::kRouteLatency) +
                    "-cycle route per hop"});
  t3.push_back({"signatures", runner::fmt_u64(cfg.htm.signature_bits / 1024) +
                                  " Kbit Bloom filters, " +
                                  runner::fmt_u64(cfg.htm.signature_hashes) +
                                  " hashes"});
  t3.push_back({"1st-level redirect table",
                runner::fmt_u64(cfg.suv.l1_table_entries) +
                    "-entry zero-latency fully associative"});
  t3.push_back({"2nd-level redirect table",
                runner::fmt_u64(cfg.suv.l2_table_entries) + "-entry " +
                    runner::fmt_u64(cfg.suv.l2_table_assoc) + "-way shared, " +
                    runner::fmt_u64(cfg.suv.l2_table_latency) + "-cycle"});
  std::printf("%s\n", runner::render_table(t3).c_str());

  std::printf("Table II: redirect-entry states (global bit, valid bit)\n\n");
  std::vector<std::vector<std::string>> t2;
  t2.push_back({"g", "v", "state", "owner's view", "everyone else",
                "on commit", "on abort"});
  struct RowInfo {
    suv::EntryState s;
    const char* own;
    const char* other;
  };
  for (const RowInfo& ri : {
           RowInfo{suv::EntryState::kInvalid, "original", "original"},
           RowInfo{suv::EntryState::kTxnRedirect, "target", "original"},
           RowInfo{suv::EntryState::kTxnUnredirect, "original", "target"},
           RowInfo{suv::EntryState::kGlobalRedirect, "target", "target"},
       }) {
    t2.push_back({suv::global_bit(ri.s) ? "1" : "0",
                  suv::valid_bit(ri.s) ? "1" : "0", suv::entry_state_name(ri.s),
                  ri.own, ri.other,
                  suv::entry_state_name(suv::commit_flip(ri.s)),
                  suv::entry_state_name(suv::abort_flip(ri.s))});
  }
  std::printf("%s\n", runner::render_table(t2).c_str());
  return 0;
}
