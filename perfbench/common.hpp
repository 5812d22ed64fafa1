// Shared pieces of the repository benchmark (madbench): the seeded input
// generator, payload checksums, the span recorder, and the per-round
// result every workload returns. Nothing here reaches into the library's
// internals; workloads only call public headers under src/.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <ctime>
#include <span>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace perfbench {

namespace sim = mad2::sim;

/// SplitMix64's increment-and-mix: hashes a word, and iterated on its own
/// output it is the benchmark's generator. The benchmark owns its generator
/// so that a change to the library's RNG can never change its inputs.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) : state_(mix64(seed)) {}
  std::uint64_t next() { return state_ = mix64(state_); }
  /// Uniform in [0, bound).
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  /// Uniform double in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// `n` stratified draws from [0, 1) in random order: one draw from each
  /// of n equal slices. The seed still picks every value and the order,
  /// but the empirical distribution barely moves between seeds, so
  /// percentiles over a run compare across seeds.
  std::vector<double> strata(std::size_t n) {
    std::vector<double> u(n);
    for (std::size_t i = 0; i < n; ++i) {
      u[i] = (static_cast<double>(i) + unit()) / static_cast<double>(n);
    }
    shuffle(u);
    return u;
  }
  /// Deterministic Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[below(i)]);
    }
  }

 private:
  std::uint64_t state_;
};

/// Map u in [0, 1) to a log-uniform integer in [lo, hi]: every octave
/// equally likely.
inline std::uint64_t log_uniform(double u, std::uint64_t lo, std::uint64_t hi) {
  const double v = std::exp(std::log(static_cast<double>(lo)) +
                            u * std::log(static_cast<double>(hi) /
                                         static_cast<double>(lo)));
  const auto n = static_cast<std::uint64_t>(v);
  return n < lo ? lo : (n > hi ? hi : n);
}

/// Fill `out` with bytes derived from `key` only.
void fill_bytes(std::span<std::byte> out, std::uint64_t key);

/// 64-bit content checksum (word-at-a-time multiply-rotate; order
/// sensitive, so a swapped or shifted byte is caught as well as a flip).
std::uint64_t checksum(std::span<const std::byte> data);

/// Wall clock, s: bounds how long a run measures, and nothing else.
inline double wall_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The host clock of every host-time measurement, s: CPU time of the calling
/// thread. The simulator runs on this one thread and never blocks, so this
/// is its wall time less the time the host gave the CPU to someone else
/// (another process, or on a virtual machine another guest: steal time),
/// which on a shared host swings by tens of percent from run to run.
inline double host_now_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Run a fixed piece of work and return its host time, s. The work is the
/// benchmark's own, so no change to the library can change it, and of the
/// kinds the simulator spends its host time on: generating, hashing and
/// copying bytes, and faulting in freshly mapped memory.
double probe_host_s();

/// Current resident set of this process, MB (10^6 bytes).
double current_rss_mb();
/// High-water resident set of this process (getrusage), MB.
double peak_rss_mb();

// --- Spans ---------------------------------------------------------------

enum class SpanKind : std::uint8_t {
  kSetup,      // whole set-up of one round (host clock only)
  kSession,    // mad::Session constructor
  kVChannel,   // fwd::VirtualChannel constructor
  kPm2World,   // pm2::Pm2World constructors
  kFibers,     // spawning the workload's fibers
  kRpc,        // one synchronous pm2 rpc(), client side
  kService,    // the service callback serving it, server side
  kMessage,    // begin_packing .. the receiver's end_unpacking
  kPack,       // begin_packing .. end_packing returns
  kRecvWait,   // blocked in begin_unpacking
  kUnpack,     // begin_unpacking returned .. end_unpacking returns
  kCount,
};

const char* span_name(SpanKind kind);

struct Span {
  SpanKind kind;
  std::uint64_t id;      // 1-based; 0 means "no span"
  std::uint64_t parent;  // 0 for roots
  sim::Time v_begin, v_end;  // virtual clock, ns
  double h_begin, h_end;     // host clock (thread CPU time), s
};

/// In-memory span recorder. Spans are appended as they open and closed in
/// place; nothing is written until the run ends. A null Tracer* means
/// tracing is off, and every call site checks for it.
class Tracer {
 public:
  std::uint64_t open(SpanKind kind, std::uint64_t parent, sim::Time v) {
    spans_.push_back(Span{kind, spans_.size() + 1, parent, v, v,
                          host_now_s(), 0.0});
    return spans_.size();
  }
  /// Record a span whose both ends are already known.
  std::uint64_t add(SpanKind kind, std::uint64_t parent, sim::Time v_begin,
                    sim::Time v_end, double h_begin, double h_end) {
    spans_.push_back(
        Span{kind, spans_.size() + 1, parent, v_begin, v_end, h_begin, h_end});
    return spans_.size();
  }
  void close(std::uint64_t id, sim::Time v) {
    Span& span = spans_[id - 1];
    span.v_end = v;
    span.h_end = host_now_s();
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// --- Results ---------------------------------------------------------------

/// Per-layer readings of one round, taken from public counters and from the
/// benchmark's own clocks around library calls. Samples and host readings
/// are taken on traced rounds only; counters are read on every round.
struct LayerCounts {
  std::uint64_t fibers_after_setup = 0;
  double rss_after_setup_mb = 0.0;
  std::uint64_t fibers_live_peak = 0;
  std::vector<sim::Duration> service, pack, recv_wait, unpack;
  // Switch and TM usage, summed over every endpoint of every channel.
  std::uint64_t mad_messages = 0, pack_ticks = 0, unpack_ticks = 0;
  std::uint64_t fast_selects = 0, legacy_selects = 0;
  std::uint64_t blocks = 0, short_blocks = 0;
  // Host-memory deltas over run(): application (endpoint) nodes vs gateways.
  std::uint64_t ep_memcpy = 0, ep_allocs = 0;
  std::uint64_t gw_memcpy = 0, gw_allocs = 0, gw_recycles = 0;
  std::uint64_t gw_packets = 0;        // sum of gateway_forwarded()
  std::uint64_t gw_payload_bytes = 0;  // payload bytes x gateways crossed
  std::uint64_t gw_queue_depth_max = 0;
  double gw_spread = 0.0;
  // Per-flow congestion state (vc.stats().flows).
  double flow_srtt_us_sum = 0.0, flow_cwnd_sum = 0.0;
  std::uint64_t flows = 0, flow_queue_hwm_max = 0, replays = 0;
  // Gateway PCI buses.
  sim::Duration gw_pci_busy = 0;
  sim::Duration gw_elapsed = 0;  // elapsed x gateway count
  std::uint64_t gw_pci_bytes = 0;
  std::uint64_t retransmits = 0;

  /// Fold another round in: counts add up, maxima and samples combine.
  void merge(const LayerCounts& o) {
    const auto append = [](std::vector<sim::Duration>& to,
                           const std::vector<sim::Duration>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    fibers_after_setup = std::max(fibers_after_setup, o.fibers_after_setup);
    fibers_live_peak = std::max(fibers_live_peak, o.fibers_live_peak);
    append(service, o.service);
    append(pack, o.pack);
    append(recv_wait, o.recv_wait);
    append(unpack, o.unpack);
    mad_messages += o.mad_messages;
    pack_ticks += o.pack_ticks;
    unpack_ticks += o.unpack_ticks;
    fast_selects += o.fast_selects;
    legacy_selects += o.legacy_selects;
    blocks += o.blocks;
    short_blocks += o.short_blocks;
    ep_memcpy += o.ep_memcpy;
    ep_allocs += o.ep_allocs;
    gw_memcpy += o.gw_memcpy;
    gw_allocs += o.gw_allocs;
    gw_recycles += o.gw_recycles;
    gw_packets += o.gw_packets;
    gw_payload_bytes += o.gw_payload_bytes;
    gw_queue_depth_max = std::max(gw_queue_depth_max, o.gw_queue_depth_max);
    gw_spread = std::max(gw_spread, o.gw_spread);
    flow_srtt_us_sum += o.flow_srtt_us_sum;
    flow_cwnd_sum += o.flow_cwnd_sum;
    flows += o.flows;
    flow_queue_hwm_max = std::max(flow_queue_hwm_max, o.flow_queue_hwm_max);
    replays += o.replays;
    gw_pci_busy += o.gw_pci_busy;
    gw_elapsed += o.gw_elapsed;
    gw_pci_bytes += o.gw_pci_bytes;
    retransmits += o.retransmits;
  }
};

struct RoundResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string error;  // first failure, for the log
  // Virtual clock.
  std::vector<sim::Duration> latency;  // one per completed operation
  sim::Duration elapsed = 0;           // first operation start .. last end
  std::uint64_t ops = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t messages = 0;  // application messages (2 per RPC)
  // Host clock.
  double setup_s = 0.0, session_s = 0.0, run_s = 0.0;
  double vchannel_s = 0.0, pm2_world_s = 0.0;  // 0 where not built
  double probe_s = 0.0;  // host time of the probe run just before the round
  LayerCounts layers;

  void fail(std::string why) {
    ++failed;
    if (error.empty()) error = std::move(why);
  }
};

}  // namespace perfbench
