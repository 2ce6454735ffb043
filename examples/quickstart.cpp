// Quickstart: one honest PVR round and one Byzantine round, end to end.
//
// Reproduces the paper's Figure-1 scenario: AS A (the prover) has promised
// its customer B to export the shortest route it receives from providers
// N1..N3. The example runs the full protocol over the simulated network —
// signed inputs, bit commitments, gossip, selective reveals, export — first
// with an honest A, then with an A that exports a longer route than it
// should. Build and run:
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "core/evidence.h"
#include "core/pvr_speaker.h"
#include "engine/verification_engine.h"

namespace {

using namespace pvr;

bgp::Route route_len(std::size_t length, bgp::AsNumber origin_as,
                     const bgp::Ipv4Prefix& prefix) {
  std::vector<bgp::AsNumber> hops;
  hops.push_back(origin_as);
  for (std::size_t i = 1; i < length; ++i) {
    hops.push_back(static_cast<bgp::AsNumber>(5000 + i));
  }
  return bgp::Route{.prefix = prefix,
                    .path = bgp::AsPath(std::move(hops)),
                    .next_hop = origin_as,
                    .local_pref = 100,
                    .med = 0,
                    .origin = bgp::Origin::kIgp,
                    .communities = {}};
}

void run_scenario(const char* title, const core::ProverMisbehavior& misbehavior) {
  std::printf("=== %s ===\n", title);

  core::Figure1Setup setup{.seed = 42};
  setup.misbehavior = misbehavior;
  core::Figure1Handles handles = core::make_figure1_world(setup);
  core::Figure1World& world = *handles.world;

  // Providers N1..N3 advertise routes of lengths 4, 2, 6; the promise says
  // B must receive the length-2 one.
  const std::vector<std::size_t> lengths = {4, 2, 6};
  world.sim.schedule(0, [&] {
    for (std::size_t i = 0; i < world.providers.size(); ++i) {
      world.node(world.providers[i])
          .provide_input(world.sim.transport(), /*epoch=*/1, handles.prefix,
                         route_len(lengths[i], world.providers[i], handles.prefix));
      std::printf("  N%zu (AS%u) provides a %zu-hop route\n", i + 1,
                  world.providers[i], lengths[i]);
    }
    world.node(world.prover).start_round(world.sim.transport(), 1, handles.prefix);
  });
  world.sim.run();

  // Finalize through the verification engine — the default path for
  // simulator-driven rounds (finalize_round is the sequential fallback).
  engine::VerificationEngine engine(4);
  engine::finalize_world_round(engine, world, handles.round_id(1));

  std::vector<bgp::AsNumber> verifiers = world.providers;
  verifiers.push_back(world.recipient);
  const core::Auditor auditor(handles.verify_ctx.get());
  bool any_violation = false;
  for (const bgp::AsNumber verifier : verifiers) {
    for (const core::Evidence& evidence : world.node(verifier).evidence()) {
      any_violation = true;
      std::printf("  DETECTED: %s\n", evidence.to_string().c_str());
      std::printf("    auditor verdict: %s\n",
                  auditor.validate(evidence) ? "evidence valid (provable)"
                                             : "not third-party provable");
    }
  }

  const auto accepted =
      world.node(world.recipient).accepted_route(handles.round_id(1));
  if (accepted) {
    std::printf("  B accepted: %s\n", accepted->to_string().c_str());
  } else {
    std::printf("  B accepted no route\n");
  }
  if (!any_violation) {
    std::printf("  all PVR checks passed; nothing leaked beyond the promise\n");
  }
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("PVR quickstart: private and verifiable routing (HotNets-X 2011)\n\n");
  run_scenario("Honest prover", {});
  run_scenario("Byzantine prover: exports a non-minimal route",
               {.export_nonminimal = true});
  run_scenario("Byzantine prover: forges bits to match the lie",
               {.export_nonminimal = true, .bits_match_lie = true});
  return 0;
}
