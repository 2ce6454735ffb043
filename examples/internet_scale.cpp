// Internet-scale feasibility: BGP + PVR over a synthetic Gao–Rexford
// AS topology.
//
// Generates a 100-AS customer/provider/peer hierarchy, runs the BGP
// speakers to convergence on the simulated network, then picks a transit
// AS and runs a real PVR round over the candidate routes in its Adj-RIB-In
// — the piggybacking deployment the paper envisions (§3.8). Prints
// convergence and per-round overhead numbers.
#include <chrono>
#include <cstdio>
#include <memory>

#include "bgp/speaker.h"
#include "core/bundle_aggregation.h"
#include "core/min_protocol.h"
#include "core/verify_context.h"

namespace {

using namespace pvr;

}  // namespace

int main() {
  std::printf("PVR on an internet-scale topology\n\n");
  const auto prefix = bgp::Ipv4Prefix::parse("203.0.113.0/24");

  // 1. Topology.
  crypto::Drbg topo_rng(2026, "internet-scale");
  const bgp::AsGraph graph = bgp::generate_gao_rexford(
      {.as_count = 100, .tier1_count = 5, .extra_provider_probability = 0.35},
      topo_rng);
  std::printf("topology: %zu ASes, %zu links\n", graph.as_count(),
              graph.link_count());

  // 2. BGP to convergence; AS 100 (a stub) originates the prefix.
  net::Simulator sim(1);
  const bgp::AsNumber origin = 100;
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
  std::printf("BGP converged at t=%.1f ms: %llu updates, %llu bytes on the wire\n",
              static_cast<double>(sim.now()) / 1000.0,
              static_cast<unsigned long long>(sim.stats().messages_sent),
              static_cast<unsigned long long>(sim.stats().bytes_sent));
  for (const auto& [channel, stats] : sim.stats().per_channel) {
    std::printf("  %-12s %6llu msgs  %8llu bytes\n", channel.c_str(),
                static_cast<unsigned long long>(stats.messages_sent),
                static_cast<unsigned long long>(stats.bytes_sent));
  }

  // 3. Pick the transit AS with the most candidates for the prefix.
  bgp::AsNumber prover = 0;
  std::size_t best_candidates = 0;
  for (const bgp::AsNumber asn : graph.as_numbers()) {
    const auto& speaker = dynamic_cast<bgp::BgpSpeaker&>(sim.node(asn));
    const std::size_t count = speaker.candidates(prefix).size();
    if (count > best_candidates) {
      best_candidates = count;
      prover = asn;
    }
  }
  auto& speaker = dynamic_cast<bgp::BgpSpeaker&>(sim.node(prover));
  const std::vector<bgp::Route> candidates = speaker.candidates(prefix);
  std::printf("\nprover: AS%u with %zu candidate routes for %s\n", prover,
              candidates.size(), prefix.to_string().c_str());

  // 4. Keys for the prover's neighborhood (1024-bit, per §3.8).
  std::vector<bgp::AsNumber> participants = graph.neighbors(prover);
  participants.push_back(prover);
  crypto::Drbg key_rng(7, "internet-scale-keys");
  const auto t_keys = std::chrono::steady_clock::now();
  const core::AsKeyPairs keys = core::generate_keys(participants, key_rng, 1024);
  std::printf("generated %zu RSA-1024 key pairs in %.2f s\n", keys.directory.size(),
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t_keys).count());

  // 5. One PVR round over the real Adj-RIB-In: each providing neighbor
  //    signs its announcement, the prover commits/reveals/exports.
  const core::ProtocolId id{.prover = prover, .prefix = prefix, .epoch = 1};
  std::map<bgp::AsNumber, std::optional<core::SignedMessage>> inputs;
  for (const bgp::Route& route : candidates) {
    const core::InputAnnouncement announcement{
        .id = id, .provider = route.next_hop, .route = route};
    inputs[route.next_hop] =
        core::sign_message(route.next_hop,
                           keys.private_keys.at(route.next_hop).priv,
                           announcement.encode());
  }

  crypto::Drbg round_rng(3, "internet-scale-round");
  const auto t_round = std::chrono::steady_clock::now();
  const core::ProverResult result = core::run_prover(
      id, core::OperatorKind::kMinimum, inputs, /*max_len=*/16, round_rng, {});
  // One signed root over every statement of the round (a one-prefix window).
  const core::SignedWindow window =
      core::seal_window(prover, id.epoch, /*batch=*/0, /*variant_batch=*/0,
                        std::span(&result, 1), keys.private_keys.at(prover).priv,
                        round_rng)
          .honest;
  const core::SignedWindow::Round& round = window.rounds.front();
  const double prover_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_round)
          .count();

  // One pvr.bundle.agg message per provider and per customer.
  const std::vector<bgp::AsNumber> customers = graph.customers_of(prover);
  std::size_t wire_bytes = 0;
  for (const auto& [provider, input] : inputs) {
    wire_bytes += window.message_for_provider(provider).encode().size();
  }
  for (const bgp::AsNumber customer : customers) {
    if (keys.directory.contains(customer)) {
      wire_bytes += window.message_for_recipient().encode().size();
    }
  }
  std::printf("PVR round: %.2f ms prover CPU, %zu bytes of protocol traffic\n",
              prover_seconds * 1000.0, wire_bytes);

  // 6. Verify as every participating neighbor.
  const auto t_verify = std::chrono::steady_clock::now();
  // Each neighbor first accepts the window root itself; a root that does
  // not open counts as a violation.
  const core::VerifyContext ctx(&keys.directory);
  std::size_t violations = 0;
  for (const auto& [provider, input] : inputs) {
    const auto announcement = core::InputAnnouncement::decode(input->payload);
    const auto it = round.provider_reveals.find(provider);
    const auto opened = core::open_window(ctx, window.signed_root);
    if (!opened) {
      violations += 1;
      continue;
    }
    violations += core::verify_as_provider(
                      provider, announcement, *opened, round.bundle,
                      it == round.provider_reveals.end() ? nullptr : &it->second)
                      .size();
  }
  // Every customer of the prover acts as a recipient B.
  for (const bgp::AsNumber customer : customers) {
    if (!keys.directory.contains(customer)) continue;
    const auto opened = core::open_window(ctx, window.signed_root);
    if (!opened) {
      violations += 1;
      continue;
    }
    violations += core::verify_as_recipient(ctx, customer, *opened, round.bundle,
                                            &round.recipient_reveal,
                                            &round.export_statement)
                      .size();
  }
  const double verify_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_verify)
          .count();
  std::printf("verification across the neighborhood: %.2f ms, %zu violations\n",
              verify_seconds * 1000.0, violations);
  std::printf("\nconclusion: a full PVR round costs a few signatures and "
              "hashes per update\n(paper §3.8), piggybacked on ordinary BGP "
              "convergence.\n");
  return violations == 0 ? 0 : 1;
}
