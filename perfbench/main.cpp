// madbench: runs one workload of the repository benchmark for a given host
// time and prints every metric as one JSON document on stdout.
//
//   madbench --workload rpc_short --seed 1 --seconds 10 --trace 0
//            [--trace-out spans.csv] [--plant-corrupt]
//
// The workload's passes repeat until --seconds of wall-clock time are spent
// (at least one pass; with --trace 1, untraced and traced passes alternate
// and at least one of each runs). Virtual-clock metrics come from the first
// pass, and every later pass, traced or not, must reproduce them exactly.
// Host-clock metrics are medians over rounds, read on the thread's CPU
// clock and scaled to a reference host speed by the probe run before each
// round (see normalize_host_times). Exit status is 0
// only when every operation delivered the right bytes in the right order.
#include <algorithm>
#include <malloc.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using mad2::SampleSet;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool plant_corrupt = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "madbench: %s\nusage: madbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE] "
               "[--plant-corrupt]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--plant-corrupt") {
      args.plant_corrupt = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value");
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds >= 0)) usage("bad --seconds");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      args.trace = value[0] == '1';
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      usage("unknown flag");
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  return args;
}

// --- Statistics -------------------------------------------------------------

SampleSet to_us(const std::vector<sim::Duration>& d) {
  SampleSet out;
  for (sim::Duration x : d) out.add(sim::to_us(x));
  return out;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Host throughput of one round: operations per host second in run().
double round_rate(const RoundResult& r) {
  return ratio(static_cast<double>(r.ops), r.run_s);
}

// --- Host speed ---------------------------------------------------------------

/// Host time of probe_host_s() on the reference host: one otherwise idle
/// vCPU of a 4-vCPU Intel Xeon virtual machine.
constexpr double kProbeRefS = 0.0135;

/// Scale a round's host times to the reference host speed. The speed a
/// shared host gives this thread drifts by ±15% over seconds with the
/// load of its other tenants, and the probe, run just before the round,
/// slows and speeds up with it; a round's time over its probe's time is
/// what the round costs in units of the probe's fixed work.
void normalize_host_times(RoundResult& res, double probe_s) {
  res.probe_s = probe_s;
  const double scale = kProbeRefS / probe_s;
  res.setup_s *= scale;
  res.session_s *= scale;
  res.vchannel_s *= scale;
  res.pm2_world_s *= scale;
  res.run_s *= scale;
}

// --- Passes -----------------------------------------------------------------

struct Pass {
  bool traced = false;
  std::vector<RoundResult> rounds;
  std::vector<sim::Duration> latency;
  sim::Duration elapsed = 0;
  std::uint64_t ops = 0, payload_bytes = 0, messages = 0;
  std::uint64_t attempted = 0, failed = 0;
  double run_s = 0.0;
  std::size_t first_span = 0, end_span = 0;  // this pass's spans

  /// Everything the virtual clock decides, folded into one word.
  [[nodiscard]] std::uint64_t fingerprint() const {
    std::uint64_t d = mix64(elapsed) ^ mix64(ops + (payload_bytes << 20));
    for (sim::Duration x : latency) {
      d = mix64(d ^ static_cast<std::uint64_t>(x));
    }
    return mix64(d ^ failed);
  }
};

Pass run_pass(Workload& workload, Tracer* tracer) {
  Pass pass;
  pass.traced = tracer != nullptr;
  pass.first_span = tracer ? tracer->spans().size() : 0;
  for (std::size_t r = 0; r < workload.rounds(); ++r) {
    // Hand the previous round's freed memory back to the kernel, so every
    // round sets up on a heap as cold as a fresh process's first round.
    malloc_trim(0);
    const double probe_s = probe_host_s();
    RoundResult res = workload.run_round(r, tracer);
    normalize_host_times(res, probe_s);
    pass.latency.insert(pass.latency.end(), res.latency.begin(),
                        res.latency.end());
    pass.elapsed += res.elapsed;
    pass.ops += res.ops;
    pass.payload_bytes += res.payload_bytes;
    pass.messages += res.messages;
    pass.attempted += res.attempted;
    pass.failed += res.failed;
    pass.run_s += res.run_s;
    if (!res.error.empty()) {
      std::fprintf(stderr, "madbench: round %zu: %s\n", r, res.error.c_str());
    }
    pass.rounds.push_back(std::move(res));
  }
  pass.end_span = tracer ? tracer->spans().size() : 0;
  double setup_s = 0.0;
  for (const RoundResult& r : pass.rounds) setup_s += r.setup_s;
  std::fprintf(stderr,
               "madbench: pass%s: %" PRIu64 " ops, set-up %.4f s, run %.4f s, "
               "%.1f ops/s\n",
               pass.traced ? " (traced)" : "", pass.ops, setup_s, pass.run_s,
               ratio(static_cast<double>(pass.ops), pass.run_s));
  return pass;
}

/// Mean virtual self time (µs) and span count per span kind over spans
/// [first, end): a span's duration minus the part of it its children cover.
struct SelfTimes {
  std::vector<double> mean_us;
  std::vector<std::uint64_t> count;
};

SelfTimes self_times(const std::vector<Span>& spans, std::size_t first,
                     std::size_t end) {
  std::vector<std::vector<std::pair<sim::Time, sim::Time>>> children(
      end - first);
  for (std::size_t i = first; i < end; ++i) {
    const Span& s = spans[i];
    if (s.parent > first && s.parent <= end) {
      children[s.parent - 1 - first].emplace_back(s.v_begin, s.v_end);
    }
  }
  constexpr auto kKinds = static_cast<std::size_t>(SpanKind::kCount);
  SelfTimes out{std::vector<double>(kKinds, 0.0),
                std::vector<std::uint64_t>(kKinds, 0)};
  for (std::size_t i = first; i < end; ++i) {
    const Span& s = spans[i];
    auto& kids = children[i - first];
    std::sort(kids.begin(), kids.end());
    sim::Duration covered = 0;
    sim::Time reach = s.v_begin;
    for (auto [b, e] : kids) {
      b = std::max(b, reach);
      e = std::min(e, s.v_end);
      if (e > b) {
        covered += e - b;
        reach = e;
      }
    }
    const auto k = static_cast<std::size_t>(s.kind);
    out.mean_us[k] += sim::to_us(s.v_end - s.v_begin - covered);
    ++out.count[k];
  }
  for (std::size_t k = 0; k < kKinds; ++k) {
    out.mean_us[k] = ratio(out.mean_us[k], static_cast<double>(out.count[k]));
  }
  return out;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,name,v_begin_ns,v_end_ns,h_begin_s,h_end_s\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%" PRIu64 ",%" PRIu64 ",%s,%" PRId64 ",%" PRId64
                    ",%.9f,%.9f\n",
                 s.id, s.parent, span_name(s.kind), s.v_begin, s.v_end,
                 s.h_begin, s.h_end);
  }
  return std::fclose(f) == 0;
}

// --- Output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  const char* clock;  // "virtual", "host" or "count"
  std::uint64_t samples;
};

void print_json(const Args& args, const Workload& workload, bool correct,
                const std::vector<Pass>& passes, const std::string& error,
                const std::vector<Metric>& end_to_end,
                const std::vector<Metric>& per_layer) {
  std::uint64_t attempted = 0, failed = 0;
  std::size_t traced = 0;
  for (const Pass& p : passes) {
    attempted += p.attempted;
    failed += p.failed;
    if (p.traced) ++traced;
  }
  std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"inputs_digest\": \"%016" PRIx64
              "\", \"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"passes\": %zu, "
              "\"traced_passes\": %zu, \"error\": \"",
              args.workload.c_str(), args.seed, workload.inputs_digest(),
              correct ? "true" : "false", attempted, failed, passes.size(),
              traced);
  for (char c : error) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
  }
  std::printf("\"");
  const auto section = [](const char* name, const std::vector<Metric>& ms) {
    std::printf(", \"%s\": {", name);
    for (std::size_t i = 0; i < ms.size(); ++i) {
      const Metric& m = ms[i];
      const double v = std::isfinite(m.value) ? m.value : 0.0;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                  "\"clock\": \"%s\", \"samples\": %" PRIu64 "}",
                  i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str(),
                  m.clock, m.samples);
    }
    std::printf("}");
  };
  section("end_to_end", end_to_end);
  section("per_layer", per_layer);
  std::printf("}\n");
}

int run(const Args& args) {
  std::unique_ptr<Workload> workload =
      make_workload(args.workload, args.seed, args.plant_corrupt);
  if (!workload) usage("unknown workload");

  Tracer tracer;
  std::vector<Pass> passes;
  const double deadline = wall_now_s() + args.seconds;
  std::size_t traced_passes = 0;
  do {
    const bool traced = args.trace && passes.size() % 2 == 1;
    passes.push_back(run_pass(*workload, traced ? &tracer : nullptr));
    if (traced) ++traced_passes;
  } while (wall_now_s() < deadline || (args.trace && traced_passes == 0));

  std::string error;
  bool deterministic = true;
  for (const Pass& p : passes) {
    for (const RoundResult& r : p.rounds) {
      if (error.empty() && !r.error.empty()) error = r.error;
    }
    if (p.fingerprint() != passes[0].fingerprint()) deterministic = false;
  }
  if (!deterministic && error.empty()) {
    error = "passes with the same inputs read different virtual clocks";
  }
  std::uint64_t attempted = 0, failed = 0;
  for (const Pass& p : passes) {
    attempted += p.attempted;
    failed += p.failed;
  }
  const bool correct = failed == 0 && deterministic && error.empty();

  // End-to-end: virtual clock from pass 0, host clock over untraced passes.
  const Pass& p0 = passes[0];
  const SampleSet lat = to_us(p0.latency);
  const double elapsed_s = sim::to_seconds(p0.elapsed);
  SampleSet host_rate, setup_s;
  for (const Pass& p : passes) {
    if (p.traced) continue;
    for (const RoundResult& r : p.rounds) {
      host_rate.add(round_rate(r));
      setup_s.add(r.setup_s);
    }
  }
  const std::uint64_t n_lat = lat.count();
  const std::uint64_t n_rates = host_rate.count();
  std::vector<Metric> e2e = {
      {"lat_p50_us", lat.median(), "vus", "virtual", n_lat},
      {"lat_p99_us", lat.quantile(0.99), "vus", "virtual", n_lat},
      {"ops_per_s", ratio(static_cast<double>(p0.ops), elapsed_s), "1/vs",
       "virtual", p0.ops},
      {"goodput_mbs",
       ratio(static_cast<double>(p0.payload_bytes) / 1e6, elapsed_s), "MB/vs",
       "virtual", p0.ops},
      {"host_ops_per_s", host_rate.median(), "1/s", "host", n_rates},
      {"peak_rss_mb", peak_rss_mb(), "MB", "host", 1},
      {"setup_s", setup_s.median(), "s", "host", setup_s.count()},
  };

  // Per-layer: from the traced passes (virtual readings from the first).
  std::vector<Metric> layer;
  if (args.trace) {
    const Pass* t0 = nullptr;
    SampleSet traced_rate, session_s, vchannel_s, pm2_world_s, rss_mb, run_s;
    SampleSet probe_ms;
    LayerCounts sum;
    for (const Pass& p : passes) {
      for (const RoundResult& r : p.rounds) probe_ms.add(1e3 * r.probe_s);
      if (!p.traced) continue;
      for (const RoundResult& r : p.rounds) {
        traced_rate.add(round_rate(r));
        session_s.add(r.session_s);
        vchannel_s.add(r.vchannel_s);
        pm2_world_s.add(r.pm2_world_s);
        rss_mb.add(r.layers.rss_after_setup_mb);
        run_s.add(r.run_s);
      }
      if (t0 != nullptr) continue;
      t0 = &p;
      for (const RoundResult& r : p.rounds) sum.merge(r.layers);
    }
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    const double msgs = d(t0->messages);
    const double payload = d(t0->payload_bytes);
    const SelfTimes self =
        self_times(tracer.spans(), t0->first_span, t0->end_span);
    const auto self_metric = [&](const char* name, SpanKind kind) {
      const auto k = static_cast<std::size_t>(kind);
      return Metric{name, self.mean_us[k], "vus", "virtual", self.count[k]};
    };
    const SampleSet service = to_us(sum.service), pack = to_us(sum.pack);
    const std::uint64_t n_rounds = session_s.count();
    layer = {
        {"setup.session_s", session_s.median(), "s", "host", n_rounds},
        {"setup.vchannel_s", vchannel_s.median(), "s", "host", n_rounds},
        {"setup.pm2_world_s", pm2_world_s.median(), "s", "host", n_rounds},
        {"setup.fibers_live", d(sum.fibers_after_setup), "fibers", "count",
         t0->rounds.size()},
        {"setup.rss_mb", rss_mb.median(), "MB", "host", n_rounds},
        {"sim.fibers_live_peak", d(sum.fibers_live_peak), "fibers", "count",
         t0->ops},
        {"sim.run_host_s", run_s.median(), "s", "host", n_rounds},
        {"host.probe_ms", probe_ms.median(), "ms", "host", probe_ms.count()},
        {"pm2.service_vus_p50", service.median(), "vus", "virtual",
         service.count()},
        {"mad.switch_pack_ticks_per_msg",
         ratio(d(sum.pack_ticks), d(sum.mad_messages)), "vns/msg", "virtual",
         sum.mad_messages},
        {"mad.switch_unpack_ticks_per_msg",
         ratio(d(sum.unpack_ticks), d(sum.mad_messages)), "vns/msg",
         "virtual", sum.mad_messages},
        {"mad.fast_select_frac",
         ratio(d(sum.fast_selects), d(sum.fast_selects + sum.legacy_selects)),
         "ratio", "count", sum.fast_selects + sum.legacy_selects},
        {"mad.tm_short_block_frac", ratio(d(sum.short_blocks), d(sum.blocks)),
         "ratio", "count", sum.blocks},
        {"mad.copy_bytes_per_byte", ratio(d(sum.ep_memcpy), payload), "B/B",
         "count", t0->ops},
        {"mad.allocs_per_msg", ratio(d(sum.ep_allocs), msgs), "1/msg", "count",
         t0->messages},
        {"fwd.pack_vus_p50", pack.median(), "vus", "virtual", pack.count()},
        {"fwd.pack_vus_p99", pack.quantile(0.99), "vus", "virtual",
         pack.count()},
        {"fwd.recv_wait_vus_p50", to_us(sum.recv_wait).median(), "vus",
         "virtual", sum.recv_wait.size()},
        {"fwd.unpack_vus_p50", to_us(sum.unpack).median(), "vus", "virtual",
         sum.unpack.size()},
        {"fwd.gw_copy_bytes_per_byte",
         ratio(d(sum.gw_memcpy), d(sum.gw_payload_bytes)), "B/B", "count",
         t0->ops},
        {"fwd.gw_allocs", d(sum.gw_allocs), "allocs", "count", t0->ops},
        {"fwd.pool_recycle_per_packet",
         ratio(d(sum.gw_recycles), d(sum.gw_packets)), "1/packet", "count",
         sum.gw_packets},
        {"fwd.gw_queue_depth_max", d(sum.gw_queue_depth_max), "packets",
         "count", sum.recv_wait.size()},
        {"fwd.gw_spread", sum.gw_spread, "ratio", "count", sum.gw_packets},
        {"fwd.flow_srtt_us_mean", ratio(sum.flow_srtt_us_sum, d(sum.flows)),
         "vus", "virtual", sum.flows},
        {"fwd.flow_cwnd_mean", ratio(sum.flow_cwnd_sum, d(sum.flows)),
         "packets", "count", sum.flows},
        {"fwd.flow_queue_hwm_max", d(sum.flow_queue_hwm_max), "packets",
         "count", sum.flows},
        {"fwd.replays", d(sum.replays), "packets", "count", sum.flows},
        {"hw.gw_pci_busy_frac", ratio(d(sum.gw_pci_busy), d(sum.gw_elapsed)),
         "ratio", "virtual", t0->ops},
        {"hw.gw_pci_bytes_per_byte",
         ratio(d(sum.gw_pci_bytes), d(sum.gw_payload_bytes)), "B/B", "count",
         t0->ops},
        {"net.retransmits", d(sum.retransmits), "frames", "count", t0->ops},
        {"failed_frac", ratio(d(failed), d(attempted)), "ratio", "count",
         attempted},
        {"trace.overhead_frac",
         1.0 - ratio(traced_rate.median(), host_rate.median()), "ratio",
         "host", traced_rate.count()},
        self_metric("trace.rpc_self_vus", SpanKind::kRpc),
        self_metric("trace.service_self_vus", SpanKind::kService),
        self_metric("trace.message_self_vus", SpanKind::kMessage),
        self_metric("trace.pack_self_vus", SpanKind::kPack),
        self_metric("trace.recv_wait_self_vus", SpanKind::kRecvWait),
        self_metric("trace.unpack_self_vus", SpanKind::kUnpack),
    };
    if (!args.trace_out.empty() && !write_spans(args.trace_out,
                                                tracer.spans())) {
      std::fprintf(stderr, "madbench: cannot write %s\n",
                   args.trace_out.c_str());
      return 2;
    }
  }
  print_json(args, *workload, correct, passes, error, e2e, layer);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse_args(argc, argv));
}
