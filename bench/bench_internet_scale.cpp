// Experiment E8 (paper §1, §3.8, §4): end-to-end feasibility at AS scale.
//
// For growing Gao–Rexford topologies: run BGP to convergence on the
// simulated network, then have EVERY transit AS (one with >= 2 candidate
// routes for the monitored prefix) execute one PVR minimum round over its
// real Adj-RIB-In and its neighbors verify. Reports BGP convergence cost,
// total/mean PVR crypto time, and PVR wire overhead relative to BGP.
#include <chrono>
#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "bgp/speaker.h"
#include "core/pvr_speaker.h"
#include "engine/verification_engine.h"

namespace pvr::bench {
namespace {

struct ScaleRow {
  std::size_t as_count = 0;
  std::size_t links = 0;
  std::uint64_t bgp_updates = 0;
  std::uint64_t bgp_bytes = 0;
  std::size_t provers = 0;
  double pvr_total_ms = 0;
  double pvr_mean_ms = 0;
  std::size_t pvr_bytes = 0;
  double verify_total_ms = 0;
  std::size_t violations = 0;
  // Engine-backed verification of the same rounds (8 workers).
  double engine_verify_ms = 0;
  std::size_t engine_violations = 0;
};

[[nodiscard]] ScaleRow run_scale(std::size_t as_count, std::size_t key_bits,
                                 std::uint64_t seed) {
  ScaleRow row;
  row.as_count = as_count;
  const auto prefix = bgp::Ipv4Prefix::parse("203.0.113.0/24");

  crypto::Drbg topo_rng(as_count + seed, "scale-topo");
  const bgp::AsGraph graph = bgp::generate_gao_rexford(
      {.as_count = as_count, .tier1_count = 5, .extra_provider_probability = 0.3},
      topo_rng);
  row.links = graph.link_count();

  net::Simulator sim(1 + seed);
  const bgp::AsNumber origin = static_cast<bgp::AsNumber>(as_count);
  for (const bgp::AsNumber asn : graph.as_numbers()) {
    bgp::SpeakerConfig config{.asn = asn, .graph = &graph};
    if (asn == origin) config.originated = {prefix};
    sim.add_node(asn, std::make_unique<bgp::BgpSpeaker>(std::move(config)));
  }
  for (const bgp::AsNumber asn : graph.as_numbers()) {
    for (const bgp::AsNumber neighbor : graph.neighbors(asn)) {
      if (asn < neighbor) sim.connect(asn, neighbor, {.latency = 2000});
    }
  }
  sim.run();
  row.bgp_updates = sim.stats().messages_sent;
  row.bgp_bytes = sim.stats().bytes_sent;

  crypto::Drbg key_rng(11 + seed, "scale-keys");
  const core::AsKeyPairs keys =
      core::generate_keys(graph.as_numbers(), key_rng, key_bits);
  const core::VerifyContext ctx(&keys.directory);

  // One entry per prover round, kept so the same verification work can be
  // replayed through the engine afterwards.
  struct ProverRound {
    bgp::AsNumber prover;
    core::ProtocolId id;
    core::SignedWindow window;
    std::map<bgp::AsNumber, core::InputAnnouncement> announcements;
    std::vector<bgp::AsNumber> customers;
  };
  std::vector<ProverRound> prover_rounds;

  crypto::Drbg round_rng(13 + seed, "scale-rounds");
  for (const bgp::AsNumber prover : graph.as_numbers()) {
    auto& speaker = dynamic_cast<bgp::BgpSpeaker&>(sim.node(prover));
    const std::vector<bgp::Route> candidates = speaker.candidates(prefix);
    if (candidates.size() < 2) continue;  // nothing to promise about
    row.provers += 1;

    const core::ProtocolId id{.prover = prover, .prefix = prefix, .epoch = 1};
    std::map<bgp::AsNumber, std::optional<core::SignedMessage>> inputs;
    std::map<bgp::AsNumber, core::InputAnnouncement> announcements;
    for (const bgp::Route& route : candidates) {
      if (route.path.length() > 16) continue;
      const core::InputAnnouncement announcement{
          .id = id, .provider = route.next_hop, .route = route};
      announcements.emplace(route.next_hop, announcement);
      inputs[route.next_hop] = core::sign_message(
          route.next_hop, keys.private_keys.at(route.next_hop).priv,
          announcement.encode());
    }

    const auto t0 = std::chrono::steady_clock::now();
    core::SignedWindow window = seal_round(
        core::run_prover(id, core::OperatorKind::kMinimum, inputs, 16,
                         round_rng, {}),
        keys.private_keys.at(prover).priv, round_rng);
    row.pvr_total_ms += std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

    // One pvr.bundle.agg message per provider and per customer.
    const std::vector<bgp::AsNumber> customers = graph.customers_of(prover);
    for (const auto& [provider, announcement] : announcements) {
      row.pvr_bytes += window.message_for_provider(provider).encode().size();
    }
    row.pvr_bytes +=
        customers.size() * window.message_for_recipient().encode().size();

    ProverRound round{.prover = prover,
                      .id = id,
                      .window = std::move(window),
                      .announcements = announcements,
                      .customers = customers};

    const auto t1 = std::chrono::steady_clock::now();
    row.violations += verify_neighborhood(ctx, round.window,
                                          round.announcements, round.customers)
                          .evidence.size();
    row.verify_total_ms += std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t1)
                               .count();

    prover_rounds.push_back(std::move(round));
  }
  if (row.provers > 0) row.pvr_mean_ms = row.pvr_total_ms / row.provers;

  // Engine-backed path: the same per-neighborhood checks, spread over a
  // worker pool. One submitted round per prover neighborhood.
  engine::VerificationEngine engine(8);
  const auto t2 = std::chrono::steady_clock::now();
  for (const ProverRound& round : prover_rounds) {
    engine.submit(round.id, [&round, &ctx] {
      return verify_neighborhood(ctx, round.window,
                                 round.announcements, round.customers);
    });
  }
  const engine::EngineReport report = engine.drain();
  row.engine_verify_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t2)
                             .count();
  row.engine_violations = report.violations;
  return row;
}

// ---- Bundle wire cost: aggregated bundles + root gossip ------------------
//
// A Figure-1 neighborhood pushes `kWirePrefixes` concurrent rounds through
// one epoch window over the simulated network. The prover signs one Merkle
// root over every statement of the window and sends each neighbor the root
// plus its leaves with their inclusion proofs (pvr.bundle.agg); the mesh
// gossips only the small signed roots (pvr.gossip.root). proof_bytes is
// what the single signature costs in proofs (paper §3.8).

constexpr std::size_t kWireProviders = 6;
constexpr std::size_t kWirePrefixes = 12;

struct WireRow {
  std::uint64_t bundle_msgs = 0;   // direct bundle-path messages
  std::uint64_t bundle_bytes = 0;
  std::uint64_t gossip_msgs = 0;   // mesh gossip messages
  std::uint64_t gossip_bytes = 0;
  std::uint64_t proof_bytes = 0;   // Merkle proofs inside the bundle path
  std::uint64_t roots_signed = 0;
  std::uint64_t violations = 0;
  [[nodiscard]] std::uint64_t total_bytes() const {
    return bundle_bytes + gossip_bytes;
  }
};

[[nodiscard]] bgp::Route wire_route(std::size_t length, bgp::AsNumber origin_as,
                                    const bgp::Ipv4Prefix& prefix) {
  bgp::Route route = route_len(length, origin_as);
  route.prefix = prefix;
  return route;
}

[[nodiscard]] WireRow run_wire(std::uint64_t seed) {
  core::Figure1Handles handles = core::make_figure1_world(
      {.seed = 77 + seed, .provider_count = kWireProviders});
  core::Figure1World& world = *handles.world;

  std::vector<bgp::Ipv4Prefix> prefixes;
  for (std::size_t p = 0; p < kWirePrefixes; ++p) {
    prefixes.emplace_back(0xCB007100u + (static_cast<std::uint32_t>(p) << 8), 24);
  }
  world.sim.schedule(0, [&world, &prefixes] {
    for (std::size_t p = 0; p < prefixes.size(); ++p) {
      for (std::size_t i = 0; i < world.providers.size(); ++i) {
        world.node(world.providers[i])
            .provide_input(world.sim.transport(), 1, prefixes[p],
                           wire_route(2 + (p + i) % 6, world.providers[i],
                                      prefixes[p]));
      }
      world.node(world.prover).start_round(world.sim.transport(), 1, prefixes[p]);
    }
  });
  world.sim.run();

  // Submit every prefix round before one drain so distinct prefixes run on
  // distinct workers concurrently.
  engine::VerificationEngine engine(8);
  for (const bgp::Ipv4Prefix& prefix : prefixes) {
    engine::submit_world_round(
        engine, world,
        core::ProtocolId{.prover = world.prover, .prefix = prefix, .epoch = 1});
  }
  WireRow row;
  row.violations = engine.drain().violations;

  const auto bundle_stats =
      world.sim.stats().channel_group(core::kBundleAggChannel);
  const auto gossip_stats =
      world.sim.stats().channel_group(core::kGossipRootChannel);
  row.bundle_msgs = bundle_stats.messages_sent;
  row.bundle_bytes = bundle_stats.bytes_sent;
  row.gossip_msgs = gossip_stats.messages_sent;
  row.gossip_bytes = gossip_stats.bytes_sent;
  row.proof_bytes = world.node(world.prover).proof_bytes_sent();
  row.roots_signed = world.node(world.prover).roots_signed();
  return row;
}

}  // namespace
}  // namespace pvr::bench

int main(int argc, char** argv) {
  using namespace pvr;
  using namespace pvr::bench;
  const BenchArgs args = parse_bench_args(&argc, argv);
  std::printf("E8: PVR piggybacked on BGP over Gao-Rexford topologies "
              "(RSA-1024)\n\n");
  std::printf("%-8s %-7s %-12s %-11s %-8s %-13s %-12s %-11s %-11s %-6s "
              "%-10s %-6s\n",
              "ASes", "links", "bgp_updates", "bgp_bytes", "provers",
              "pvr_total_ms", "pvr_mean_ms", "pvr_bytes", "verify_ms", "viol",
              "engine_ms", "eviol");
  for (const std::size_t n : {50u, 100u, 200u, 400u}) {
    const ScaleRow row = run_scale(n, 1024, args.seed);
    std::printf("%-8zu %-7zu %-12llu %-11llu %-8zu %-13.1f %-12.2f %-11zu "
                "%-11.1f %-6zu %-10.1f %-6zu\n",
                row.as_count, row.links,
                static_cast<unsigned long long>(row.bgp_updates),
                static_cast<unsigned long long>(row.bgp_bytes), row.provers,
                row.pvr_total_ms, row.pvr_mean_ms, row.pvr_bytes,
                row.verify_total_ms, row.violations, row.engine_verify_ms,
                row.engine_violations);
  }
  std::printf("\nexpected shape: per-AS PVR cost stays a few ms (one window\n"
              "signature, §3.8) independent of topology size; wire overhead\n"
              "grows linearly with the number of verifying neighborhoods;\n"
              "0 violations with honest speakers.\n");

  // ---- Aggregated bundle wire: one signed root per window ------------------
  std::printf("\nbundle wire: %zu providers, %zu concurrent prefixes, one "
              "epoch window\n",
              static_cast<std::size_t>(pvr::bench::kWireProviders),
              static_cast<std::size_t>(pvr::bench::kWirePrefixes));
  const WireRow wire = run_wire(args.seed);
  std::printf("%-12s %-13s %-12s %-13s %-12s %-12s %-6s %-6s\n",
              "bundle_msgs", "bundle_bytes", "gossip_msgs", "gossip_bytes",
              "proof_bytes", "total_bytes", "roots", "viol");
  std::printf("%-12llu %-13llu %-12llu %-13llu %-12llu %-12llu %-6llu %-6llu\n",
              static_cast<unsigned long long>(wire.bundle_msgs),
              static_cast<unsigned long long>(wire.bundle_bytes),
              static_cast<unsigned long long>(wire.gossip_msgs),
              static_cast<unsigned long long>(wire.gossip_bytes),
              static_cast<unsigned long long>(wire.proof_bytes),
              static_cast<unsigned long long>(wire.total_bytes()),
              static_cast<unsigned long long>(wire.roots_signed),
              static_cast<unsigned long long>(wire.violations));
  std::printf("{\"bench\":\"internet_scale\",\"seed\":%llu,"
              "\"wire_prefixes\":%zu,"
              "\"agg_bundle_path_bytes\":%llu,"
              "\"agg_gossip_bytes\":%llu,\"agg_proof_bytes\":%llu,"
              "\"roots_signed\":%llu,\"violations\":%llu}\n",
              static_cast<unsigned long long>(args.seed),
              static_cast<std::size_t>(pvr::bench::kWirePrefixes),
              static_cast<unsigned long long>(wire.total_bytes()),
              static_cast<unsigned long long>(wire.gossip_bytes),
              static_cast<unsigned long long>(wire.proof_bytes),
              static_cast<unsigned long long>(wire.roots_signed),
              static_cast<unsigned long long>(wire.violations));
  pvr::bench::emit_obs_snapshot("internet_scale");
  // One window, one signature: more roots means the prover signed twice.
  return wire.violations == 0 && wire.roots_signed == 1 ? 0 : 1;
}
