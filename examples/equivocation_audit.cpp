// Equivocation and the audit trail (§2.3 Evidence / Accuracy).
//
// A Byzantine prover shows different commitment bundles to different
// neighbors. Each bundle is locally self-consistent, so no single verifier
// can tell — but the neighbors gossip the prover's signed window roots
// (§3.2), the conflict surfaces, and the resulting Evidence object
// convinces a third-party auditor using nothing but the prover's own
// signatures.
// The example then shows the Accuracy half: the same accusation against an
// honest prover fails validation.
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

std::vector<core::Evidence> run_world(bool equivocate) {
  core::Figure1Setup setup{.seed = 11, .provider_count = 4};
  if (equivocate) setup.misbehavior = {.equivocate = true};
  core::Figure1Handles handles = core::make_figure1_world(setup);
  core::Figure1World& world = *handles.world;

  world.sim.schedule(0, [&] {
    const std::vector<std::size_t> lengths = {3, 4, 5, 6};
    for (std::size_t i = 0; i < world.providers.size(); ++i) {
      world.node(world.providers[i])
          .provide_input(world.sim.transport(), 1, handles.prefix,
                         route_len(lengths[i], world.providers[i], handles.prefix));
    }
    world.node(world.prover).start_round(world.sim.transport(), 1, handles.prefix);
  });
  world.sim.run();

  // Engine-default finalize: all verifiers' checks run through the
  // worker pool, findings land back on each node.
  engine::VerificationEngine engine(4);
  engine::finalize_world_round(engine, world, handles.round_id(1));

  std::vector<core::Evidence> all;
  std::vector<bgp::AsNumber> verifiers = world.providers;
  verifiers.push_back(world.recipient);
  const core::Auditor auditor(handles.verify_ctx.get());
  for (const bgp::AsNumber verifier : verifiers) {
    for (const core::Evidence& evidence : world.node(verifier).evidence()) {
      std::printf("  %s\n", evidence.to_string().c_str());
      std::printf("    third-party auditor: %s\n",
                  auditor.validate(evidence) ? "CONVINCED" : "rejects");
      all.push_back(evidence);
    }
  }

  // Accuracy: try to frame the prover with doctored evidence.
  if (!all.empty()) {
    core::Evidence framed = all.front();
    framed.messages[1].payload[10] ^= 1;  // tamper with one signed artifact
    std::printf("  tampered copy of the same evidence: auditor %s\n",
                auditor.validate(framed) ? "CONVINCED (BUG!)" : "rejects");
  }
  return all;
}

}  // namespace

int main() {
  std::printf("PVR equivocation audit example\n\n");

  std::printf("Round 1: honest prover (no gossip conflicts expected)\n");
  const auto honest = run_world(false);
  std::printf("  violations detected: %zu\n\n", honest.size());

  std::printf("Round 2: prover equivocates to half its neighbors\n");
  const auto byzantine = run_world(true);
  std::printf("  violations detected: %zu\n", byzantine.size());

  const bool ok = honest.empty() && !byzantine.empty();
  std::printf("\n%s\n", ok ? "equivocation caught; honest round clean"
                           : "UNEXPECTED OUTCOME");
  return ok ? 0 : 1;
}
