// The benchmark's three workloads. Each one generates all of its inputs
// from the seed when it is constructed (outside every timer) and then runs
// rounds: one round is a fresh mad::Session built, run and torn down.
// A *pass* is every round of the workload once; the same seed always
// gives the same passes, so every pass must read the same virtual clock.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual std::size_t rounds() const = 0;
  /// Build, run and verify round `round`. `tracer` is null when untraced.
  virtual RoundResult run_round(std::size_t round, Tracer* tracer) = 0;
  /// Digest of every generated input (sizes, placement, payload sums).
  [[nodiscard]] virtual std::uint64_t inputs_digest() const = 0;
};

/// "rpc_short", "gateway_stream" or "fabric_fanin"; nullptr for another
/// name. `plant_corrupt` flips one payload byte
/// after its checksum was recorded, to prove the checks catch it.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        bool plant_corrupt);

}  // namespace perfbench
