#include "scenario/multiprocess.h"

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/evidence.h"
#include "core/pvr_speaker.h"
#include "crypto/encoding.h"
#include "net/frame.h"
#include "net/simulator.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "scenario/world.h"

namespace pvr::scenario {

namespace {

constexpr std::uint8_t kGrantApp = 0;
constexpr std::uint8_t kGrantTimer = 1;
constexpr std::uint8_t kGrantDeliver = 2;
constexpr std::uint8_t kActionSend = 0;
constexpr std::uint8_t kActionSchedule = 1;

[[nodiscard]] std::pair<net::NodeId, net::NodeId> norm_pair(net::NodeId a,
                                                            net::NodeId b) {
  return a < b ? std::pair{a, b} : std::pair{b, a};
}

// Which node process owns `asn`: its index in the sorted participant list,
// round-robin over `processes`. A pure function of the plan, so every
// process computes the same map.
[[nodiscard]] std::size_t owner_of(const WorldPlan& plan, bgp::AsNumber asn,
                                   std::size_t processes) {
  const auto it = std::lower_bound(plan.participants.begin(),
                                   plan.participants.end(), asn);
  if (it == plan.participants.end() || *it != asn) {
    throw std::invalid_argument("owner_of: unknown participant");
  }
  return static_cast<std::size_t>(it - plan.participants.begin()) % processes;
}

// ---------------------------------------------------------------------------
// Child side: the lockstep transport and grant server.
// ---------------------------------------------------------------------------

// The node-process message plane. Executes ONLY inside a conductor grant:
// now() is the granted event time, and send() and schedule() record the
// handler's actions, in order, for the done reply. A sent message travels
// in that reply to the conductor, whose simulator carries it and grants its
// delivery to the owning process; a scheduled closure waits here until the
// conductor grants its timer.
class LockstepTransport final : public net::Transport {
 public:
  LockstepTransport(const WorldPlan& plan, std::size_t process_index)
      : process_index_(process_index) {
    for (const PlannedLink& link : plan.links) {
      links_.insert(norm_pair(link.a, link.b));
    }
  }

  void begin_grant(net::SimTime at) {
    now_ = at;
    actions_ = crypto::ByteWriter{};
  }
  // Every action since begin_grant, in order: the done reply's tail.
  [[nodiscard]] const std::vector<std::uint8_t>& actions() const noexcept {
    return actions_.data();
  }
  [[nodiscard]] std::function<void()> take_timer(std::uint64_t id) {
    const auto it = timers_.find(id);
    if (it == timers_.end()) {
      throw std::runtime_error("lockstep: grant for unknown timer");
    }
    std::function<void()> fn = std::move(it->second);
    timers_.erase(it);
    return fn;
  }

  void send(net::Message message) override {
    if (!links_.contains(norm_pair(message.from, message.to))) {
      throw std::logic_error("LockstepTransport::send: no link between nodes");
    }
    const std::uint64_t cookie =
        (static_cast<std::uint64_t>(process_index_ + 1) << 40) |
        next_cookie_++;
    // The send half of the cross-process flow arrow: the cookie rides with
    // the message through the conductor, so the delivery end can emit the
    // matching 'f' in its own trace shard.
    obs::TraceWriter& tracer = obs::TraceWriter::global();
    if (tracer.active()) {
      tracer.flow('s', "msg.flow", "flow", obs::Track::kSim, message.from,
                  now_, cookie);
    }
    actions_.put_u8(kActionSend);
    actions_.put_u64(cookie);
    actions_.put_bytes(net::encode_message_body(message));
  }

  [[nodiscard]] bool connected(net::NodeId a, net::NodeId b) const override {
    return links_.contains(norm_pair(a, b));
  }
  [[nodiscard]] net::SimTime now() const override { return now_; }
  void schedule(net::SimTime at, std::function<void()> fn) override {
    const std::uint64_t id = next_timer_++;
    timers_.emplace(id, std::move(fn));
    actions_.put_u8(kActionSchedule);
    actions_.put_u64(at);
    actions_.put_u64(id);
  }

 private:
  std::size_t process_index_;
  std::set<std::pair<net::NodeId, net::NodeId>> links_;
  net::SimTime now_ = 0;
  crypto::ByteWriter actions_;
  std::map<std::uint64_t, std::function<void()>> timers_;
  std::uint64_t next_timer_ = 1;
  std::uint64_t next_cookie_ = 1;
};

// Serves lockstep grants until the finish verb, then ships results.
// Returns the process exit code. A non-empty `trace_base` arms
// per-process Chrome tracing into "<trace_base>.<pid>.json" (the shard
// path travels back in the result frame for the conductor's merge).
int run_node_process(const std::string& scenario, std::uint64_t seed,
                     std::size_t rounds, std::size_t process_index,
                     std::size_t processes, std::uint16_t control_port,
                     const std::string& trace_base) {
  std::string trace_path;
  if (!trace_base.empty()) {
    trace_path = trace_base + "." + std::to_string(::getpid()) + ".json";
    if (!obs::TraceWriter::global().open(trace_path)) trace_path.clear();
  }
  const ScenarioSpec spec = named_scenario(scenario, seed, rounds);
  const WorldPlan plan = plan_world(spec);

  // The process's only socket: its control connection to the conductor.
  net::FrameConn control(net::connect_loopback(control_port));
  {
    crypto::ByteWriter hello;
    hello.put_u32(static_cast<std::uint32_t>(process_index));
    control.append(net::kFrameHello, hello.data());
    if (!control.flush_all()) return 2;
  }

  // Local shard of the world: every participant this process owns, with a
  // shard-local verify context (verdicts are identical to the simulated
  // run's; the shared precompute amortizes within the shard).
  LockstepTransport transport(plan, process_index);
  World world(spec, plan, spec.workers, [&](bgp::AsNumber asn) {
    return owner_of(plan, asn, processes) == process_index;
  });

  // Observability: the metrics baseline isolates this process's RUN work
  // (grant handlers + shard verification) from startup noise — plan_world
  // keygen runs in every process and must not be multiply counted when the
  // conductor merges the shard deltas.
  const obs::MetricsSnapshot obs_baseline =
      obs::MetricsRegistry::global().snapshot();
  const obs::Counter& rsa_verifies =
      obs::MetricsRegistry::global().hot.crypto_rsa_verifies;
  const std::uint64_t rsa_verifies_base = rsa_verifies.value();

  std::uint8_t type = 0;
  std::vector<std::uint8_t> body;
  while (true) {
    if (!control.read_one_frame(type, body)) return 2;
    if (type == net::kFrameGrant) {
      crypto::ByteReader reader(body);
      const std::uint8_t kind = reader.get_u8();
      const net::SimTime at = reader.get_u64();
      transport.begin_grant(at);
      if (kind == kGrantApp) {
        world.apply(transport, plan.app_events.at(reader.get_u32()));
      } else if (kind == kGrantTimer) {
        transport.take_timer(reader.get_u64())();
      } else if (kind == kGrantDeliver) {
        const std::uint64_t cookie = reader.get_u64();
        const net::Message message =
            net::decode_message_body(reader.get_bytes());
        obs::TraceWriter& tracer = obs::TraceWriter::global();
        if (tracer.active()) {
          // Anchor slice + finish half of the flow arrow whose 's' lives in
          // the SENDING process's shard (same cookie); cookie 0 has no 's'.
          tracer.sim_span("msg.deliver", message.to, at, at);
          if (cookie != 0) {
            tracer.flow('f', "msg.flow", "flow", obs::Track::kSim, message.to,
                        at, cookie);
          }
        }
        world.deliver(transport, message);
      } else {
        return 2;
      }
      // The done reply: the shard's gauges after the grant (open rounds
      // summed over the local nodes, their peak maximum, RSA verifies since
      // the baseline), then the grant's actions.
      std::uint64_t open_rounds = 0;
      std::uint64_t peak_open_rounds = 0;
      for (const auto& [asn, node] : world.nodes()) {
        open_rounds += node->open_rounds();
        peak_open_rounds = std::max<std::uint64_t>(peak_open_rounds,
                                                   node->peak_open_rounds());
      }
      crypto::ByteWriter done;
      done.put_u64(open_rounds);
      done.put_u64(peak_open_rounds);
      done.put_u64(rsa_verifies.value() - rsa_verifies_base);
      done.put_raw(transport.actions());
      control.append(net::kFrameDone, done.data());
      if (!control.flush_all()) return 2;
      continue;
    }
    if (type == net::kFrameFinish) break;
    return 2;
  }

  // The tail schedule over the local verifier shard. Evidence is
  // engine-order deterministic, so shards concatenate into the monolithic
  // logs.
  world.finish();
  const std::vector<net::TraceProverMeta> provers = world.prover_counters();

  crypto::ByteWriter result;
  result.put_u64(world.verify_failures());
  result.put_u32(static_cast<std::uint32_t>(provers.size()));
  for (const net::TraceProverMeta& prover : provers) prover.encode(result);
  std::vector<std::pair<std::size_t, std::size_t>> verifiers;
  for (std::size_t h = 0; h < plan.hoods.size(); ++h) {
    for (std::size_t v = 0; v < plan.hoods[h].verifiers().size(); ++v) {
      if (world.verifier(h, v) != nullptr) verifiers.emplace_back(h, v);
    }
  }
  result.put_u32(static_cast<std::uint32_t>(verifiers.size()));
  for (const auto& [h, v] : verifiers) {
    result.put_u32(static_cast<std::uint32_t>(h));
    result.put_u32(static_cast<std::uint32_t>(v));
    const std::vector<core::Evidence>& log = world.verifier(h, v)->evidence();
    result.put_u32(static_cast<std::uint32_t>(log.size()));
    for (const core::Evidence& item : log) result.put_bytes(item.encode());
  }
  // Observability shard: the run's metrics delta (conductor merges all
  // shards) and this process's trace file, flushed before the result frame
  // so the conductor can stitch immediately after reaping.
  result.put_bytes(obs::MetricsSnapshot::delta(
                       obs::MetricsRegistry::global().snapshot(), obs_baseline)
                       .encode());
  if (!trace_path.empty() && !obs::TraceWriter::global().close()) {
    trace_path.clear();
  }
  result.put_string(trace_path);
  control.append(net::kFrameResult, result.data());
  return control.flush_all() ? 0 : 2;
}

// ---------------------------------------------------------------------------
// Conductor side.
// ---------------------------------------------------------------------------

class Conductor;

// Conductor-side stand-in for a remote node: a delivery means "grant this
// message to its owner now".
class ProxyNode final : public net::Node {
 public:
  explicit ProxyNode(Conductor* conductor) noexcept : conductor_(conductor) {}
  void on_message(net::Transport& transport,
                  const net::Message& message) override;

 private:
  Conductor* conductor_;
};

struct ChildProc {
  pid_t pid = -1;
  std::unique_ptr<net::FrameConn> control;
  std::uint64_t messages_sent = 0;  // kActionSend actions mirrored so far
};

class Conductor {
 public:
  explicit Conductor(const MultiprocessOptions& options)
      : options_(options),
        spec_(named_scenario(options.scenario, options.seed, options.rounds)),
        plan_(plan_world(spec_)),
        sim_(spec_.seed) {
    if (options_.processes < 1) {
      throw std::invalid_argument("conductor: need at least one process");
    }
  }

  MultiprocessResult run();

  void deliver(const net::Message& message) {
    // The relay hop of the flow arrow: send ('s') and delivery ('f') live
    // in child shards; this step ('t') pins the conductor's grant moment
    // onto the same cookie chain in the merged timeline. Messages no child
    // sent (an adversary's replays) carry cookie 0 and no flow.
    obs::TraceWriter& tracer = obs::TraceWriter::global();
    if (tracer.active() && message.cookie != 0) {
      tracer.flow('t', "msg.flow", "flow", obs::Track::kSim, message.to,
                  sim_.now(), message.cookie);
    }
    crypto::ByteWriter grant = grant_header(kGrantDeliver);
    grant.put_u64(message.cookie);
    grant.put_bytes(net::encode_message_body(message));
    grant_and_apply(owner_of(plan_, message.to, options_.processes),
                    grant.data());
  }

 private:
  void spawn_children(std::uint16_t control_port);
  void accept_children(int control_listen);
  [[nodiscard]] crypto::ByteWriter grant_header(std::uint8_t kind) const {
    crypto::ByteWriter grant;
    grant.put_u8(kind);
    grant.put_u64(sim_.now());
    return grant;
  }
  void grant_and_apply(std::size_t child,
                       std::span<const std::uint8_t> grant_body);
  void collect_results(MultiprocessResult& out);
  void reap_children();

  MultiprocessOptions options_;
  ScenarioSpec spec_;
  WorldPlan plan_;
  net::Simulator sim_;
  std::vector<ChildProc> children_;
  obs::MetricsSnapshot obs_baseline_;
  std::vector<MultiprocessResult::StatsPoint> stats_timeline_;
  std::vector<std::string> child_trace_paths_;
};

void ProxyNode::on_message(net::Transport& transport,
                           const net::Message& message) {
  (void)transport;
  conductor_->deliver(message);
}

void Conductor::accept_children(int control_listen) {
  std::size_t connected = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (connected < options_.processes) {
    if (std::chrono::steady_clock::now() > deadline) {
      throw std::runtime_error("conductor: children did not connect");
    }
    pollfd pfd{.fd = control_listen, .events = POLLIN, .revents = 0};
    if (::poll(&pfd, 1, 1000) < 0 && errno != EINTR) {
      throw std::runtime_error("conductor: poll failed");
    }
    const int fd = net::accept_connection(control_listen);
    if (fd < 0) continue;
    auto conn = std::make_unique<net::FrameConn>(fd);
    std::uint8_t type = 0;
    std::vector<std::uint8_t> body;
    if (!conn->read_one_frame(type, body) || type != net::kFrameHello) {
      throw std::runtime_error("conductor: bad child hello");
    }
    crypto::ByteReader reader(body);
    children_.at(reader.get_u32()).control = std::move(conn);
    connected += 1;
  }
}

void Conductor::grant_and_apply(std::size_t child,
                                std::span<const std::uint8_t> grant_body) {
  ChildProc& proc = children_.at(child);
  net::FrameConn& control = *proc.control;
  control.append(net::kFrameGrant, grant_body);
  if (!control.flush_all()) {
    throw std::runtime_error("conductor: child hung up mid-grant");
  }
  std::uint8_t type = 0;
  std::vector<std::uint8_t> body;
  if (!control.read_one_frame(type, body) || type != net::kFrameDone) {
    throw std::runtime_error("conductor: missing done reply");
  }
  // The shard's gauges come first; the point's time is the granted time
  // and its send count the sends mirrored from this child.
  crypto::ByteReader reader(body);
  MultiprocessResult::StatsPoint point{
      .rank = static_cast<std::uint32_t>(child),
      .at_us = sim_.now(),
      .open_rounds = static_cast<std::int64_t>(reader.get_u64()),
      .peak_open_rounds = static_cast<std::int64_t>(reader.get_u64()),
      .rsa_verifies = reader.get_u64()};
  // Mirror the child's actions into the deterministic queue, in execution
  // order — this is what pins sequence parity with the monolithic run.
  while (!reader.exhausted()) {
    const std::uint8_t kind = reader.get_u8();
    if (kind == kActionSend) {
      proc.messages_sent += 1;
      const std::uint64_t cookie = reader.get_u64();
      net::Message message = net::decode_message_body(reader.get_bytes());
      message.cookie = cookie;
      sim_.send(std::move(message));
    } else if (kind == kActionSchedule) {
      const net::SimTime at = reader.get_u64();
      const std::uint64_t timer_id = reader.get_u64();
      sim_.schedule(at, [this, child, timer_id] {
        crypto::ByteWriter grant = grant_header(kGrantTimer);
        grant.put_u64(timer_id);
        grant_and_apply(child, grant.data());
      });
    } else {
      throw std::runtime_error("conductor: malformed action");
    }
  }
  point.messages_sent = proc.messages_sent;
  stats_timeline_.push_back(point);
}

void Conductor::collect_results(MultiprocessResult& out) {
  std::map<std::pair<std::size_t, std::size_t>, std::vector<core::Evidence>>
      evidence;
  for (std::size_t h = 0; h < plan_.hoods.size(); ++h) {
    const std::size_t verifiers = plan_.hoods[h].verifiers().size();
    for (std::size_t v = 0; v < verifiers; ++v) evidence[{h, v}];
  }
  std::map<net::NodeId, net::TraceProverMeta> provers;

  for (ChildProc& child : children_) {
    child.control->append(net::kFrameFinish, {});
    if (!child.control->flush_all()) {
      throw std::runtime_error("conductor: child hung up at finish");
    }
  }
  for (ChildProc& child : children_) {
    std::uint8_t type = 0;
    std::vector<std::uint8_t> body;
    if (!child.control->read_one_frame(type, body) ||
        type != net::kFrameResult) {
      throw std::runtime_error("conductor: missing result");
    }
    crypto::ByteReader reader(body);
    out.report.verify_failures += reader.get_u64();
    const std::uint32_t prover_count = reader.get_u32();
    for (std::uint32_t i = 0; i < prover_count; ++i) {
      const net::TraceProverMeta meta = net::TraceProverMeta::decode(reader);
      provers.emplace(meta.node, meta);
    }
    const std::uint32_t verifier_count = reader.get_u32();
    for (std::uint32_t i = 0; i < verifier_count; ++i) {
      const std::size_t hood = reader.get_u32();
      const std::size_t index = reader.get_u32();
      const std::uint32_t items = reader.get_u32();
      std::vector<core::Evidence>& log = evidence.at({hood, index});
      for (std::uint32_t item = 0; item < items; ++item) {
        log.push_back(core::Evidence::decode(reader.get_bytes()));
      }
    }
    out.child_obs.push_back(obs::MetricsSnapshot::decode(reader.get_bytes()));
    child_trace_paths_.push_back(reader.get_string());
  }
  out.trace.scenario = spec_.name;
  out.trace.seed = spec_.seed;
  out.trace.backend = "multiprocess";
  out.trace.stats = sim_.stats();
  for (const auto& [node, meta] : provers) out.trace.provers.push_back(meta);

  // Score and account exactly like the monolithic runner.
  out.report.drain_batches = 1;
  assemble_report(spec_, plan_, spec_.workers,
                  [&evidence](std::size_t h, std::size_t v)
                      -> const std::vector<core::Evidence>& {
                    return evidence.at({h, v});
                  },
                  out.trace.provers, sim_.stats(), out.report);

  // Cross-process aggregation: the conductor's own run delta (its
  // simulator drove the schedule and the scoring pass just ran) merged
  // with every child's shard delta. The kSim section of the merge must
  // equal the single-process run byte-for-byte — callers gate on it
  // against ScenarioReport::obs_sim_fingerprint.
  out.merged_obs = obs::MetricsSnapshot::delta(
      obs::MetricsRegistry::global().snapshot(), obs_baseline_);
  for (const obs::MetricsSnapshot& shard : out.child_obs) {
    out.merged_obs.merge(shard);
  }
  out.stats_timeline = std::move(stats_timeline_);
}

void Conductor::reap_children() {
  for (ChildProc& child : children_) {
    if (child.pid <= 0) continue;
    int status = 0;
    (void)::waitpid(child.pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("conductor: node process failed");
    }
  }
}

MultiprocessResult Conductor::run() {
  std::uint16_t control_port = 0;
  const int control_listen = net::listen_loopback(control_port);
  spawn_children(control_port);
  try {
    if (!options_.trace_base.empty()) {
      (void)obs::TraceWriter::global().open(options_.trace_base +
                                            ".conductor.json");
    }
    accept_children(control_listen);

    // The conductor's deterministic world, wired like every simulated run:
    // proxies stand in for the nodes, and each planned app event becomes a
    // grant to its actor's owner. The simulator carries the real messages
    // and records the delivery trace.
    MultiprocessResult result;
    sim_.set_trace(&result.trace);
    wire_simulator(
        plan_, spec_.seed, sim_,
        [this](bgp::AsNumber) -> std::unique_ptr<net::Node> {
          return std::make_unique<ProxyNode>(this);
        },
        [this](const AppEvent& event) {
          crypto::ByteWriter grant = grant_header(kGrantApp);
          grant.put_u32(
              static_cast<std::uint32_t>(&event - plan_.app_events.data()));
          grant_and_apply(owner_of(plan_, event.actor, options_.processes),
                          grant.data());
        });

    obs_baseline_ = obs::MetricsRegistry::global().snapshot();
    sim_.run();
    sim_.set_trace(nullptr);

    collect_results(result);
    reap_children();
    ::close(control_listen);

    if (!options_.trace_base.empty()) {
      std::vector<obs::TraceShard> shards;
      if (obs::TraceWriter::global().close()) {
        shards.push_back(obs::TraceShard{
            .path = options_.trace_base + ".conductor.json",
            .label = "conductor"});
      }
      for (std::size_t rank = 0; rank < child_trace_paths_.size(); ++rank) {
        if (child_trace_paths_[rank].empty()) continue;
        shards.push_back(
            obs::TraceShard{.path = child_trace_paths_[rank],
                            .label = "proc" + std::to_string(rank)});
      }
      if (!shards.empty()) {
        result.merged_trace_path = options_.trace_base + ".json";
        (void)obs::merge_traces(shards, result.merged_trace_path);
      }
    }
    return result;
  } catch (...) {
    for (ChildProc& child : children_) {
      if (child.pid > 0) {
        ::kill(child.pid, SIGKILL);
        int status = 0;
        (void)::waitpid(child.pid, &status, 0);
      }
    }
    ::close(control_listen);
    throw;
  }
}

// The --node argv contract, written by spawn_children's execl and read by
// node_process_main:
//   --node <scenario> <seed> <rounds> <index> <processes> <control_port>
//          <trace_base|->
// "-" = tracing off: execl argv slots cannot be empty strings.
void Conductor::spawn_children(std::uint16_t control_port) {
  children_.resize(options_.processes);
  for (std::size_t i = 0; i < options_.processes; ++i) {
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("conductor: fork failed");
    if (pid == 0) {
      char seed[32], rounds[32], index[32], procs[32], port[32];
      std::snprintf(seed, sizeof(seed), "%llu",
                    static_cast<unsigned long long>(options_.seed));
      std::snprintf(rounds, sizeof(rounds), "%zu", options_.rounds);
      std::snprintf(index, sizeof(index), "%zu", i);
      std::snprintf(procs, sizeof(procs), "%zu", options_.processes);
      std::snprintf(port, sizeof(port), "%u", control_port);
      const std::string trace_arg =
          options_.trace_base.empty() ? "-" : options_.trace_base;
      ::execl(options_.self_exe.c_str(), options_.self_exe.c_str(), "--node",
              options_.scenario.c_str(), seed, rounds, index, procs, port,
              trace_arg.c_str(), static_cast<char*>(nullptr));
      ::_exit(127);  // exec failed
    }
    children_[i].pid = pid;
  }
}

}  // namespace

std::optional<int> node_process_main(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], "--node") != 0) return std::nullopt;
  if (argc != 9) {
    std::fprintf(stderr, "--node: expected 7 arguments, got %d\n", argc - 2);
    return 2;
  }
  const auto number = [argv](int i) {
    return std::strtoull(argv[i], nullptr, 10);
  };
  return run_node_process(argv[2], number(3), number(4), number(5), number(6),
                          static_cast<std::uint16_t>(number(7)),
                          std::strcmp(argv[8], "-") == 0 ? "" : argv[8]);
}

MultiprocessResult run_conductor(const MultiprocessOptions& options) {
  if (options.self_exe.empty()) {
    throw std::invalid_argument("run_conductor: self_exe required");
  }
  Conductor conductor(options);
  return conductor.run();
}

}  // namespace pvr::scenario
