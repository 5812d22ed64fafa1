#include "workloads.hpp"

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>

#include "fwd/virtual_channel.hpp"
#include "mad/madeleine.hpp"
#include "pm2/pm2.hpp"
#include "sim/sync.hpp"

namespace perfbench {
namespace {

using namespace mad2;

// Every pass must hold at least this many operations, so that the p99
// latency (SampleSet::quantile, interpolated between ranks) always has ten
// samples ranked beyond it.
constexpr std::size_t kMinOpsPerPass = 1024;

// --- Per-layer readings shared by every workload ----------------------------

struct NodeSnapshot {
  std::vector<hw::MemCounters> mem;
  std::vector<sim::Duration> pci_busy;
  std::vector<std::uint64_t> pci_bytes;
};

NodeSnapshot snapshot(mad::Session& session) {
  NodeSnapshot snap;
  for (std::uint32_t n = 0; n < session.node_count(); ++n) {
    hw::Node& node = session.node(n);
    snap.mem.push_back(node.mem());
    snap.pci_busy.push_back(node.pci_bus().busy_time());
    snap.pci_bytes.push_back(node.pci_bus().bytes_transferred());
  }
  return snap;
}

/// Switch, TM, memory, PCI and reliability counters of a finished round,
/// as deltas against `before` (taken after set-up). These fabrics lose no
/// frame, so a retransmission fails the round.
void collect_session_layers(mad::Session& session, const NodeSnapshot& before,
                            const std::vector<std::uint32_t>& gateways,
                            RoundResult& res) {
  LayerCounts& out = res.layers;
  mad::TrafficStats total;
  for (const mad::ChannelDef& def : session.config().channels) {
    for (std::uint32_t node : session.channel(def.name).nodes()) {
      total.merge(session.endpoint(def.name, node).stats());
    }
  }
  out.mad_messages += total.messages_sent;
  out.pack_ticks += total.switching.pack_cpu_ticks;
  out.unpack_ticks += total.switching.unpack_cpu_ticks;
  out.fast_selects += total.switching.fast_selects;
  out.legacy_selects += total.switching.legacy_selects;
  for (const auto& [tm, counters] : total.sent_by_tm) {
    out.blocks += counters.blocks;
    if (tm.ends_with("-short")) out.short_blocks += counters.blocks;
  }
  out.retransmits += total.reliability.retransmits;
  if (total.reliability.retransmits != 0) {
    res.fail("frames retransmitted on a lossless fabric");
  }

  const NodeSnapshot after = snapshot(session);
  for (std::uint32_t n = 0; n < session.node_count(); ++n) {
    const hw::MemCounters& a = after.mem[n];
    const hw::MemCounters& b = before.mem[n];
    const bool gateway =
        std::find(gateways.begin(), gateways.end(), n) != gateways.end();
    if (gateway) {
      out.gw_memcpy += a.memcpy_bytes - b.memcpy_bytes;
      out.gw_allocs += a.alloc_count - b.alloc_count;
      out.gw_recycles += a.pool_recycle_count - b.pool_recycle_count;
      out.gw_pci_busy += after.pci_busy[n] - before.pci_busy[n];
      out.gw_pci_bytes += after.pci_bytes[n] - before.pci_bytes[n];
    } else {
      out.ep_memcpy += a.memcpy_bytes - b.memcpy_bytes;
      out.ep_allocs += a.alloc_count - b.alloc_count;
    }
  }
  out.gw_elapsed +=
      res.elapsed * static_cast<sim::Duration>(gateways.size());
}

/// Host-clock set-up spans of one round: [h0,h1] Session, [h1,h2] the
/// layer built over it (`layer`), [h2,h3] the workload's fibers.
void add_setup_spans(Tracer* tracer, SpanKind layer, double h0, double h1,
                     double h2, double h3) {
  if (tracer == nullptr) return;
  const std::uint64_t setup = tracer->add(SpanKind::kSetup, 0, 0, 0, h0, h3);
  tracer->add(SpanKind::kSession, setup, 0, 0, h0, h1);
  tracer->add(layer, setup, 0, 0, h1, h2);
  tracer->add(SpanKind::kFibers, setup, 0, 0, h2, h3);
}

/// Run the session; a failed run (or operations that never completed)
/// counts every missing operation as failed.
void run_session(mad::Session& session, const std::uint64_t& completed,
                 RoundResult& res) {
  const double h0 = host_now_s();
  const Status status = session.run();
  res.run_s = host_now_s() - h0;
  if (!status.is_ok() && res.error.empty()) {
    res.error = "session: " + status.to_string();
  }
  if (completed < res.attempted) res.failed += res.attempted - completed;
}

std::uint64_t digest_mix(std::uint64_t digest, std::uint64_t value) {
  return mix64(digest ^ value);
}

// --- rpc_short ---------------------------------------------------------------
//
// PM2 over BIP/Myrinet: one server, four client nodes with four closed-loop
// client fibers each (16 calls outstanding). pm2 does not serialize sends on
// a connection, so two service fibers replying to the same caller at once
// abort in begin_packing; each fiber of a client node therefore calls
// through its own PM2 world, one Madeleine channel per world, all four
// channels sharing the one BIP network. Requests are
// log-uniform 8 B .. 16 KiB, so about two thirds take BIP's short path and
// the rest its rendezvous path; replies are 16..256 B and carry the
// checksum the server computed over the request. The server's work is that
// checksum pass, charged at the node model's memcpy rate.

constexpr pm2::ServiceId kCheckService = 7;
constexpr std::uint32_t kRpcNodes = 5;
constexpr std::size_t kRpcFibersPerClient = 4;
constexpr std::size_t kRpcCallsPerFiber = 32;
constexpr std::size_t kRpcRounds = 4;
constexpr std::size_t kRpcFibers = (kRpcNodes - 1) * kRpcFibersPerClient;
static_assert(kRpcRounds * kRpcFibers * kRpcCallsPerFiber >= kMinOpsPerPass);

struct RpcCall {
  std::uint32_t client = 0;
  std::vector<std::byte> request;  // [u64 call id][seeded bytes]
  std::vector<std::byte> reply;    // [u64 request sum][u64 call id][bytes]
  std::uint64_t reply_sum = 0;
};

struct RpcRound {
  std::uint32_t server = 0;
  // Fiber f issues calls [f * kRpcCallsPerFiber, (f + 1) * kRpcCallsPerFiber).
  std::vector<RpcCall> calls;
};

class RpcShort final : public Workload {
 public:
  RpcShort(std::uint64_t seed, bool plant_corrupt) {
    SeedRng rng(seed);
    for (std::size_t r = 0; r < kRpcRounds; ++r) {
      RpcRound round;
      round.server = static_cast<std::uint32_t>(rng.below(kRpcNodes));
      std::vector<std::uint32_t> clients;
      for (std::uint32_t n = 0; n < kRpcNodes; ++n) {
        if (n != round.server) clients.push_back(n);
      }
      rng.shuffle(clients);
      constexpr std::size_t kCalls = kRpcFibers * kRpcCallsPerFiber;
      const std::vector<double> request_u = rng.strata(kCalls);
      const std::vector<double> reply_u = rng.strata(kCalls);
      for (std::size_t f = 0; f < kRpcFibers; ++f) {
        for (std::size_t k = 0; k < kRpcCallsPerFiber; ++k) {
          const std::uint64_t id = round.calls.size();
          RpcCall call;
          call.client = clients[f / kRpcFibersPerClient];
          call.request.resize(log_uniform(request_u[id], 8, 16 * 1024));
          std::memcpy(call.request.data(), &id, 8);
          fill_bytes(std::span(call.request).subspan(8), rng.next());
          const std::uint64_t request_sum = checksum(call.request);
          call.reply.resize(16 + static_cast<std::size_t>(reply_u[id] * 241));
          std::memcpy(call.reply.data(), &request_sum, 8);
          std::memcpy(call.reply.data() + 8, &id, 8);
          fill_bytes(std::span(call.reply).subspan(16), rng.next());
          call.reply_sum = checksum(call.reply);
          round.calls.push_back(std::move(call));
        }
      }
      rounds_.push_back(std::move(round));
    }
    if (plant_corrupt) {
      std::vector<std::byte>& request = rounds_[0].calls[0].request;
      request.back() ^= std::byte{0x01};
    }
  }

  [[nodiscard]] std::size_t rounds() const override { return kRpcRounds; }

  [[nodiscard]] std::uint64_t inputs_digest() const override {
    std::uint64_t d = 0;
    for (const RpcRound& round : rounds_) {
      d = digest_mix(d, round.server);
      for (const RpcCall& call : round.calls) {
        d = digest_mix(d, call.client);
        d = digest_mix(d, checksum(call.request));
        d = digest_mix(d, call.reply_sum);
      }
    }
    return d;
  }

  RoundResult run_round(std::size_t r, Tracer* tracer) override {
    const RpcRound& plan = rounds_[r];
    RoundResult res;
    res.attempted = plan.calls.size();
    std::vector<std::uint64_t> rpc_span(plan.calls.size(), 0);
    std::uint64_t completed = 0;
    sim::Time first = sim::kNever, last = 0;

    const double h0 = host_now_s();
    mad::Session session(config());
    const double h1 = host_now_s();
    std::vector<std::unique_ptr<pm2::Pm2World>> worlds;
    for (std::size_t w = 0; w < kRpcFibersPerClient; ++w) {
      worlds.push_back(std::make_unique<pm2::Pm2World>(session, channel(w)));
    }
    const double h2 = host_now_s();
    sim::Simulator& simulator = session.simulator();
    hw::Node& server = session.node(plan.server);

    const auto service = [&](std::uint32_t caller,
                             std::span<const std::byte> arg) {
      const sim::Time v0 = simulator.now();
      std::uint64_t id = plan.calls.size();
      if (arg.size() >= 8) std::memcpy(&id, arg.data(), 8);
      // An unknown caller or id gets an empty reply, which the client
      // counts as a failure.
      if (id >= plan.calls.size() || plan.calls[id].client != caller) {
        return std::vector<std::byte>{};
      }
      const std::uint64_t span =
          tracer ? tracer->open(SpanKind::kService, rpc_span[id], v0) : 0;
      server.charge_cpu(
          sim::transfer_time(arg.size(), server.params().memcpy_mbs));
      std::vector<std::byte> reply = plan.calls[id].reply;
      const std::uint64_t sum = checksum(arg);
      std::memcpy(reply.data(), &sum, 8);
      if (tracer) {
        tracer->close(span, simulator.now());
        res.layers.service.push_back(simulator.now() - v0);
      }
      return reply;
    };
    for (auto& world : worlds) {
      world->node(plan.server).register_service(kCheckService, service);
    }

    for (std::size_t f = 0; f < kRpcFibers; ++f) {
      const std::uint32_t client = plan.calls[f * kRpcCallsPerFiber].client;
      pm2::Pm2Node* me = &worlds[f % kRpcFibersPerClient]->node(client);
      session.spawn(client, "bench.client", [&, f, me](mad::NodeRuntime&) {
        for (std::size_t k = 0; k < kRpcCallsPerFiber; ++k) {
          const std::size_t id = f * kRpcCallsPerFiber + k;
          const RpcCall& call = plan.calls[id];
          const sim::Time v0 = simulator.now();
          if (tracer) rpc_span[id] = tracer->open(SpanKind::kRpc, 0, v0);
          const std::vector<std::byte> reply =
              me->rpc(plan.server, kCheckService, call.request);
          const sim::Time v1 = simulator.now();
          if (tracer) {
            tracer->close(rpc_span[id], v1);
            res.layers.fibers_live_peak =
                std::max<std::uint64_t>(res.layers.fibers_live_peak,
                                        simulator.live_fiber_count());
          }
          ++completed;
          first = std::min(first, v0);
          last = std::max(last, v1);
          if (reply.size() != call.reply.size() ||
              checksum(reply) != call.reply_sum) {
            res.fail("rpc reply does not match the request");
            continue;
          }
          res.latency.push_back(v1 - v0);
          ++res.ops;
          res.payload_bytes += call.request.size() + reply.size();
          res.messages += 2;
        }
      });
    }
    const double h3 = host_now_s();
    res.session_s = h1 - h0;
    res.pm2_world_s = h2 - h1;
    res.setup_s = h3 - h0;
    add_setup_spans(tracer, SpanKind::kPm2World, h0, h1, h2, h3);
    if (tracer) {
      res.layers.fibers_after_setup = simulator.live_fiber_count();
      res.layers.rss_after_setup_mb = current_rss_mb();
    }
    const NodeSnapshot before = snapshot(session);

    run_session(session, completed, res);
    res.elapsed = last > first ? last - first : 0;
    collect_session_layers(session, before, {}, res);
    return res;
  }

 private:
  static std::string channel(std::size_t w) {
    return "pm2_" + std::to_string(w);
  }

  static mad::SessionConfig config() {
    mad::SessionConfig config;
    config.node_count = kRpcNodes;
    mad::NetworkDef myri;
    myri.name = "myri0";
    myri.kind = mad::NetworkKind::kBip;
    for (std::uint32_t n = 0; n < kRpcNodes; ++n) myri.nodes.push_back(n);
    config.networks = {myri};
    for (std::size_t w = 0; w < kRpcFibersPerClient; ++w) {
      config.channels.push_back(mad::ChannelDef{channel(w), "myri0"});
    }
    return config;
  }

  std::vector<RpcRound> rounds_;
};

// --- Streams over a virtual channel ----------------------------------------
//
// Shared by gateway_stream and fabric_fanin: every flow's sender packs
// back-to-back messages, [header EXPRESS][payload CHEAPER]; each receiving
// node drains all flows aimed at it and checks source, per-flow order,
// size and content. Payloads are slices of one seeded byte pool, so they
// cost no host time to produce and are never written during a run.
//
// A round may hold several *phases* that run one after the other in the
// same session: phase p + 1 starts when every message of phase p has been
// received. Each node runs one sender and one receiver fiber for all
// phases, so the fiber count does not grow with the phase count.

struct MsgHeader {
  std::uint32_t src;
  std::uint32_t seq;
  std::uint64_t size;
};

struct StreamMsg {
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::uint64_t sum = 0;
};

struct StreamFlow {
  std::uint32_t phase = 0;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::vector<StreamMsg> msgs;
};

struct StreamSpec {
  mad::SessionConfig config;
  fwd::VirtualChannelDef vdef;
  std::vector<std::uint32_t> gateways;
  std::uint64_t gateways_crossed = 0;  // per message
  std::uint64_t max_size = 0;
  /// Flows of each round, in phase order; a node sends at most one flow
  /// per phase. Message sums are filled in by StreamWorkload.
  std::vector<std::vector<StreamFlow>> rounds;
};

/// Bookkeeping of one stream round, shared by its sender and receiver
/// fibers.
struct StreamRun {
  StreamRun(const std::vector<StreamFlow>& flows_, Tracer* tracer_)
      : flows(flows_), tracer(tracer_) {}
  const std::vector<StreamFlow>& flows;
  Tracer* tracer;
  std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>,
           std::size_t>
      flow_of;  // (phase, src, dst) -> flow
  std::vector<std::vector<sim::Time>> begin_v;        // per flow, per seq
  std::vector<std::vector<std::uint64_t>> msg_span;  // per flow, per seq
  std::vector<std::uint32_t> next_seq;                // per flow
  sim::Time first = sim::kNever, last = 0;
  RoundResult res;
};

class StreamWorkload final : public Workload {
 public:
  StreamWorkload(StreamSpec spec, std::uint64_t seed, bool plant_corrupt)
      : spec_(std::move(spec)), pool_(2 * spec_.max_size) {
    fill_bytes(pool_, seed);
    std::size_t ops = 0;
    for (auto& flows : spec_.rounds) {
      for (StreamFlow& flow : flows) {
        for (StreamMsg& msg : flow.msgs) {
          msg.sum = checksum(payload(msg));
          ++ops;
        }
      }
    }
    MAD2_CHECK(ops >= kMinOpsPerPass, "a pass needs >= 1000 messages");
    if (plant_corrupt) {
      pool_[spec_.rounds[0][0].msgs[0].offset] ^= std::byte{0x01};
    }
  }

  [[nodiscard]] std::size_t rounds() const override {
    return spec_.rounds.size();
  }

  [[nodiscard]] std::uint64_t inputs_digest() const override {
    std::uint64_t d = checksum(pool_);
    for (const auto& flows : spec_.rounds) {
      for (const StreamFlow& flow : flows) {
        d = digest_mix(d, flow.phase);
        d = digest_mix(d, (std::uint64_t{flow.src} << 32) | flow.dst);
        for (const StreamMsg& msg : flow.msgs) {
          d = digest_mix(d, msg.size);
          d = digest_mix(d, msg.sum);
        }
      }
    }
    return d;
  }

  RoundResult run_round(std::size_t r, Tracer* tracer) override {
    const std::vector<StreamFlow>& flows = spec_.rounds[r];
    const std::uint32_t phases = flows.back().phase + 1;
    StreamRun run(flows, tracer);
    RoundResult& res = run.res;
    // Per phase: messages in it, and per receiving node those it drains.
    std::vector<std::uint64_t> phase_total(phases, 0), phase_done(phases, 0);
    std::map<std::uint32_t, std::vector<std::uint64_t>> expected;
    std::map<std::uint32_t, std::vector<std::size_t>> sends;  // src -> flows
    run.begin_v.resize(flows.size());
    run.msg_span.resize(flows.size());
    run.next_seq.assign(flows.size(), 0);
    for (std::size_t f = 0; f < flows.size(); ++f) {
      const StreamFlow& flow = flows[f];
      run.flow_of[{flow.phase, flow.src, flow.dst}] = f;
      phase_total[flow.phase] += flow.msgs.size();
      auto& per_phase = expected[flow.dst];
      per_phase.resize(phases, 0);
      per_phase[flow.phase] += flow.msgs.size();
      sends[flow.src].push_back(f);
      run.begin_v[f].resize(flow.msgs.size());
      run.msg_span[f].resize(flow.msgs.size());
      res.attempted += flow.msgs.size();
    }
    std::map<std::uint32_t, std::vector<std::byte>> buffers;
    for (const auto& [dst, counts] : expected) {
      buffers[dst].resize(spec_.max_size);
    }
    std::uint64_t completed = 0;
    std::uint32_t phase_now = 0;

    const double h0 = host_now_s();
    mad::Session session(spec_.config);
    const double h1 = host_now_s();
    fwd::VirtualChannel vc(session, spec_.vdef);
    const double h2 = host_now_s();
    sim::Simulator& simulator = session.simulator();
    sim::WaitQueue phase_gate(&simulator);
    const auto wait_phase = [&](std::uint32_t p) {
      while (phase_now < p) phase_gate.wait();
    };

    for (const auto& [src_node, src_flows] : sends) {
      const std::uint32_t src = src_node;
      const std::vector<std::size_t>* mine = &src_flows;
      session.spawn(src, "bench.sender", [&, src, mine](mad::NodeRuntime&) {
        fwd::VirtualEndpoint& ep = vc.endpoint(src);
        for (std::size_t f : *mine) {
          const StreamFlow& flow = flows[f];
          wait_phase(flow.phase);
          for (std::uint32_t seq = 0; seq < flow.msgs.size(); ++seq) {
            const StreamMsg& msg = flow.msgs[seq];
            const sim::Time v0 = simulator.now();
            run.begin_v[f][seq] = v0;
            std::uint64_t pack_span = 0;
            if (tracer) {
              run.msg_span[f][seq] = tracer->open(SpanKind::kMessage, 0, v0);
              pack_span =
                  tracer->open(SpanKind::kPack, run.msg_span[f][seq], v0);
            }
            fwd::VirtualConnection& conn = ep.begin_packing(flow.dst);
            const MsgHeader header{flow.src, seq, msg.size};
            mad::mad_pack_value(conn, header, mad::send_CHEAPER,
                                mad::receive_EXPRESS);
            conn.pack(payload(msg), mad::send_CHEAPER, mad::receive_CHEAPER);
            conn.end_packing();
            if (tracer) {
              tracer->close(pack_span, simulator.now());
              res.layers.pack.push_back(simulator.now() - v0);
            }
          }
        }
      });
    }
    for (const auto& [dst_node, counts] : expected) {
      const std::uint32_t dst = dst_node;
      const std::vector<std::uint64_t>* per_phase = &counts;
      session.spawn(dst, "bench.receiver",
                    [&, dst, per_phase](mad::NodeRuntime&) {
        fwd::VirtualEndpoint& ep = vc.endpoint(dst);
        std::vector<std::byte>& buffer = buffers[dst];
        for (std::uint32_t p = 0; p < phases; ++p) {
          if ((*per_phase)[p] == 0) continue;
          wait_phase(p);
          for (std::uint64_t k = 0; k < (*per_phase)[p]; ++k) {
            if (!receive(run, vc, ep, dst, p, buffer)) {
              return;
            }
            ++completed;
            if (++phase_done[p] == phase_total[p]) {
              ++phase_now;
              phase_gate.notify_all();
            }
          }
        }
      });
    }
    const double h3 = host_now_s();
    res.session_s = h1 - h0;
    res.vchannel_s = h2 - h1;
    res.setup_s = h3 - h0;
    add_setup_spans(tracer, SpanKind::kVChannel, h0, h1, h2, h3);
    if (tracer) {
      res.layers.fibers_after_setup = simulator.live_fiber_count();
      res.layers.rss_after_setup_mb = current_rss_mb();
    }
    const NodeSnapshot before = snapshot(session);

    run_session(session, completed, res);
    res.elapsed = run.last > run.first ? run.last - run.first : 0;
    collect_vc_layers(session, vc, before, res);
    return std::move(res);
  }

 private:
  /// Receive and check one message of phase `phase` at node `dst`. Returns
  /// false when the stream can no longer be followed (the run is stopped).
  static bool receive(StreamRun& run, fwd::VirtualChannel& vc,
                      fwd::VirtualEndpoint& ep, std::uint32_t dst,
                      std::uint32_t phase, std::vector<std::byte>& buffer) {
    Tracer* tracer = run.tracer;
    RoundResult& res = run.res;
    mad::Session& session = vc.session();
    sim::Simulator& simulator = session.simulator();
    const sim::Time v_wait = simulator.now();
    const double h_wait = tracer ? host_now_s() : 0.0;
    fwd::VirtualConnection& conn = ep.begin_unpacking();
    const sim::Time v_got = simulator.now();
    const double h_got = tracer ? host_now_s() : 0.0;
    const std::uint32_t src = conn.remote();
    MsgHeader header{};
    mad::mad_unpack_value(conn, header, mad::send_CHEAPER,
                          mad::receive_EXPRESS);
    if (header.size > buffer.size()) {
      // The rest of this message cannot be unpacked; stop the run.
      session.fail(internal_error("message larger than any planned"));
      return false;
    }
    const auto data = std::span(buffer).first(header.size);
    conn.unpack(data, mad::send_CHEAPER, mad::receive_CHEAPER);
    conn.end_unpacking();
    const sim::Time v_end = simulator.now();
    const auto it = run.flow_of.find({phase, src, dst});
    if (it == run.flow_of.end() || header.src != src) {
      res.fail("message from a flow that was never planned");
      return true;
    }
    const std::size_t f = it->second;
    if (header.seq != run.next_seq[f] ||
        header.seq >= run.flows[f].msgs.size()) {
      res.fail("message out of order within its flow");
      run.next_seq[f] = header.seq + 1;
      return true;
    }
    ++run.next_seq[f];
    const StreamMsg& msg = run.flows[f].msgs[header.seq];
    const sim::Time v0 = run.begin_v[f][header.seq];
    run.first = std::min(run.first, v0);
    run.last = std::max(run.last, v_end);
    if (tracer) {
      const std::uint64_t parent = run.msg_span[f][header.seq];
      tracer->add(SpanKind::kRecvWait, parent, v_wait, v_got, h_wait, h_got);
      tracer->add(SpanKind::kUnpack, parent, v_got, v_end, h_got,
                  host_now_s());
      tracer->close(parent, v_end);
      res.layers.recv_wait.push_back(v_got - v_wait);
      res.layers.unpack.push_back(v_end - v_got);
      for (std::size_t depth : vc.gateway_queue_depths()) {
        res.layers.gw_queue_depth_max =
            std::max<std::uint64_t>(res.layers.gw_queue_depth_max, depth);
      }
      res.layers.fibers_live_peak = std::max<std::uint64_t>(
          res.layers.fibers_live_peak, simulator.live_fiber_count());
    }
    if (header.size != msg.size || checksum(data) != msg.sum) {
      res.fail("message payload does not match what was sent");
      return true;
    }
    res.latency.push_back(v_end - v0);
    ++res.ops;
    ++res.messages;
    res.payload_bytes += msg.size;
    return true;
  }

  [[nodiscard]] std::span<const std::byte> payload(const StreamMsg& msg) const {
    return std::span(pool_).subspan(msg.offset, msg.size);
  }

  /// collect_session_layers plus the gateways and flows of `vc`. No
  /// gateway dies here, so a replayed packet fails the round.
  void collect_vc_layers(mad::Session& session, const fwd::VirtualChannel& vc,
                         const NodeSnapshot& before, RoundResult& res) const {
    LayerCounts& out = res.layers;
    collect_session_layers(session, before, spec_.gateways, res);
    for (std::uint32_t g : spec_.gateways) {
      out.gw_packets += vc.gateway_forwarded(g);
    }
    out.gw_payload_bytes += res.payload_bytes * spec_.gateways_crossed;
    for (std::size_t b = 0; b < vc.boundary_count(); ++b) {
      const std::vector<std::uint32_t>& gws = vc.boundary_gateways(b);
      std::uint64_t sum = 0, max = 0;
      for (std::uint32_t g : gws) {
        sum += vc.gateway_forwarded(g);
        max = std::max(max, vc.gateway_forwarded(g));
      }
      if (sum == 0) continue;
      const double mean =
          static_cast<double>(sum) / static_cast<double>(gws.size());
      out.gw_spread = std::max(out.gw_spread, static_cast<double>(max) / mean);
    }
    for (const auto& [name, flow] : vc.stats().flows) {
      ++out.flows;
      out.flow_srtt_us_sum += flow.srtt_us;
      out.flow_cwnd_sum += flow.cwnd;
      out.flow_queue_hwm_max = std::max(out.flow_queue_hwm_max,
                                        flow.queue_depth_hwm);
      out.replays += flow.replays;
      if (flow.replays != 0) res.fail("packets replayed with no gateway down");
    }
  }

  StreamSpec spec_;
  std::vector<std::byte> pool_;
};

// gateway_stream: an SCI cluster and a Myrinet cluster joined by one
// gateway (node 1), 16 kB packets (paper section 6.2.1), and two streams at
// once, 0 -> 2 and 2 -> 0, of log-uniform 32 KiB .. 1 MiB messages: the
// full-duplex load on the gateway's PCI bus of section 6.2.3.
constexpr std::size_t kGwRounds = 4;
constexpr std::size_t kGwMessagesPerFlow = 128;

std::unique_ptr<Workload> make_gateway_stream(std::uint64_t seed,
                                              bool plant_corrupt) {
  StreamSpec spec;
  spec.config.node_count = 3;
  mad::NetworkDef sci;
  sci.name = "sci0";
  sci.kind = mad::NetworkKind::kSisci;
  sci.nodes = {0, 1};
  mad::NetworkDef myri;
  myri.name = "myri0";
  myri.kind = mad::NetworkKind::kBip;
  myri.nodes = {1, 2};
  spec.config.networks = {sci, myri};
  spec.config.channels = {mad::ChannelDef{"hop_sci", "sci0"},
                          mad::ChannelDef{"hop_myri", "myri0"}};
  spec.vdef.name = "stream";
  spec.vdef.hops = {"hop_sci", "hop_myri"};
  spec.vdef.mtu = 16 * 1024;
  spec.gateways = {1};
  spec.gateways_crossed = 1;
  spec.max_size = 1024 * 1024;

  SeedRng rng(seed);
  for (std::size_t r = 0; r < kGwRounds; ++r) {
    std::vector<StreamFlow> flows = {StreamFlow{0, 0, 2, {}},
                                     StreamFlow{0, 2, 0, {}}};
    for (StreamFlow& flow : flows) {
      for (double u : rng.strata(kGwMessagesPerFlow)) {
        StreamMsg msg;
        msg.size = log_uniform(u, 32 * 1024, spec.max_size);
        msg.offset = rng.below(2 * spec.max_size - msg.size + 1);
        flow.msgs.push_back(msg);
      }
    }
    spec.rounds.push_back(std::move(flows));
  }
  return std::make_unique<StreamWorkload>(std::move(spec), ~seed,
                                          plant_corrupt);
}

// fabric_fanin: a 64-node TCP fat-tree (2 clusters x (30 leaves + 2
// gateways), like the routing smoke test) with the topology and congestion
// stanzas on. 16 cluster-0 leaves stream 1..64 KiB messages to 4 cluster-1
// receivers, four senders per receiver; which leaves send, which receive
// and who pairs with whom all come from the seed. Flows hash onto the two
// gateways of each boundary, so one placement's balance alone decides its
// throughput; a pass therefore runs 32 fan-in phases (two sessions of 16),
// each with its own placement, so that a run measures the spread of
// placements rather than one draw of it.
constexpr std::uint32_t kFtLeaves = 30;
constexpr std::uint32_t kFtGateways = 2;
constexpr std::uint32_t kFtSenders = 16;
constexpr std::uint32_t kFtReceivers = 4;
constexpr std::size_t kFtRounds = 2;
constexpr std::uint32_t kFtPhases = 16;  // per round
constexpr std::size_t kFtMessagesPerFlow = 8;

std::unique_ptr<Workload> make_fabric_fanin(std::uint64_t seed,
                                            bool plant_corrupt) {
  constexpr std::uint32_t kPerCluster = kFtLeaves + kFtGateways;
  StreamSpec spec;
  spec.config.node_count = 2 * kPerCluster;
  mad::NetworkDef core;
  core.name = "ft_core_net";
  core.kind = mad::NetworkKind::kTcp;
  for (std::uint32_t c = 0; c < 2; ++c) {
    mad::NetworkDef net;
    net.name = "ft_c" + std::to_string(c) + "_net";
    net.kind = mad::NetworkKind::kTcp;
    for (std::uint32_t i = 0; i < kPerCluster; ++i) {
      net.nodes.push_back(c * kPerCluster + i);
    }
    for (std::uint32_t g = 0; g < kFtGateways; ++g) {
      const std::uint32_t gateway = c * kPerCluster + kFtLeaves + g;
      core.nodes.push_back(gateway);
      spec.gateways.push_back(gateway);
    }
    spec.config.networks.push_back(net);
    spec.config.channels.push_back(
        mad::ChannelDef{"ft_c" + std::to_string(c), net.name});
  }
  spec.config.networks.push_back(core);
  spec.config.channels.push_back(mad::ChannelDef{"ft_core", core.name});
  spec.config.topology = mad::TopologyConfig{};
  spec.config.topology->enabled = true;
  spec.config.congestion = mad::CongestionConfig{};
  spec.config.congestion->enabled = true;
  spec.vdef.name = "fanin";
  spec.vdef.hops = {"ft_c0", "ft_core", "ft_c1"};
  spec.vdef.mtu = 4 * 1024;
  spec.gateways_crossed = 2;
  spec.max_size = 64 * 1024;

  SeedRng rng(seed);
  std::vector<std::uint32_t> senders, receivers;
  for (std::uint32_t i = 0; i < kFtLeaves; ++i) {
    senders.push_back(i);
    receivers.push_back(kPerCluster + i);
  }
  const std::vector<double> size_u =
      rng.strata(kFtRounds * kFtPhases * kFtSenders * kFtMessagesPerFlow);
  std::size_t next_u = 0;
  for (std::size_t r = 0; r < kFtRounds; ++r) {
    std::vector<StreamFlow> flows;
    for (std::uint32_t phase = 0; phase < kFtPhases; ++phase) {
      rng.shuffle(senders);
      rng.shuffle(receivers);
      for (std::uint32_t s = 0; s < kFtSenders; ++s) {
        StreamFlow flow{phase, senders[s], receivers[s % kFtReceivers], {}};
        for (std::size_t k = 0; k < kFtMessagesPerFlow; ++k) {
          StreamMsg msg;
          msg.size = log_uniform(size_u[next_u++], 1024, spec.max_size);
          msg.offset = rng.below(2 * spec.max_size - msg.size + 1);
          flow.msgs.push_back(msg);
        }
        flows.push_back(std::move(flow));
      }
    }
    spec.rounds.push_back(std::move(flows));
  }
  return std::make_unique<StreamWorkload>(std::move(spec), ~seed,
                                          plant_corrupt);
}

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        bool plant_corrupt) {
  if (name == "rpc_short") {
    return std::make_unique<RpcShort>(seed, plant_corrupt);
  }
  if (name == "gateway_stream") return make_gateway_stream(seed, plant_corrupt);
  if (name == "fabric_fanin") return make_fabric_fanin(seed, plant_corrupt);
  return nullptr;
}

}  // namespace perfbench
