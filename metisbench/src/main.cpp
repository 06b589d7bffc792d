// metisbench — the end-to-end benchmark binary. Hosts a serve::Server on a
// Unix socket in the working directory, sets it up several times (store
// recovery, warm boot, cold teacher builds), drives one workload against
// it over the wire, checks every output against an in-process replay, and
// prints one JSON object with every measurement as its last line.
// Normally run through run.py, which builds it and passes the workload's
// phases from workloads.json.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "generator.h"
#include "layers.h"
#include "metis/net/client.h"
#include "metis/serve/server.h"
#include "metis/store/snapshot_store.h"
#include "metis/tree/flat_tree.h"
#include "metis/tree/tree_io.h"

namespace {

using namespace metisbench;
namespace fs = std::filesystem;
namespace net = metis::net;
namespace serve = metis::serve;

constexpr const char* kSocket = "bench.sock";

// The system under test and the shape of its inputs. Each has one value in
// use, so they are constants; what varies by workload (rates, counts) comes
// from workloads.json.
constexpr double kScale = 0.5;  // teacher budget: abr build ~1.1 s, distill ~15 ms
// With the generator and the loop thread, four threads: no more than nproc.
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kConnections = 3;  // stream connections (at most 3)...
constexpr std::size_t kSessions = 256;   // ...multiplexing the served sessions
constexpr std::size_t kStreamTrees = 16;   // warm-booted trees queries use
constexpr std::size_t kStreamLeaves = 128;
constexpr std::size_t kFeatureRows = 4096;
// Distill jobs prune to a seeded leaf budget in [kLeafMin, kLeafMax] (so
// pruning always runs and every job's tree differs); interpret jobs draw
// their seed from a pool, which bounds the in-process replays.
constexpr std::size_t kLeafMin = 16, kLeafMax = 48;
constexpr std::size_t kInterpretSeeds = 16;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  std::size_t setups = 4;
  std::vector<PhaseSpec> phases;
};

PhaseSpec parse_phase(const std::string& text) {
  PhaseSpec p;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const auto eq = item.find('=');
    if (eq == std::string::npos) throw std::invalid_argument("bad phase: " + text);
    const std::string k = item.substr(0, eq), v = item.substr(eq + 1);
    if (k == "name") p.name = v;
    else if (k == "share") p.share = std::stod(v);
    else if (k == "query_rate") p.query_rate = std::stod(v);
    else if (k == "query_abr") p.query_abr = v == "1";
    else if (k == "distill_rate") p.distill_rate = std::stod(v);
    else if (k == "interpret_rate") p.interpret_rate = std::stod(v);
    else if (k == "decisions") p.decisions = std::stoul(v);
    else if (k == "jobs") p.jobs = std::stoul(v);
    else throw std::invalid_argument("unknown phase key: " + k);
  }
  return p;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out-dir") a.out_dir = v;
    else if (k == "--setups") a.setups = std::stoul(v);
    else if (k == "--phase") a.phases.push_back(parse_phase(v));
    else throw std::invalid_argument("unknown argument: " + k);
  }
  if (a.phases.empty()) throw std::invalid_argument("no --phase given");
  for (const PhaseSpec& p : a.phases) {
    if (!p.open() && (p.decisions > 0) == (p.jobs > 0)) {
      throw std::invalid_argument("a closed phase saturates queries or jobs");
    }
  }
  return a;
}

serve::ServerConfig server_config(const std::string& store) {
  serve::ServerConfig c;
  c.unix_path = kSocket;
  c.store_dir = store;
  c.auto_deploy_distilled = true;
  // Admission caps above anything a workload keeps in flight: a BUSY reply
  // is a failed operation, and no workload is meant to have any.
  c.max_inflight_jobs = 4096;
  c.max_jobs_per_connection = 4096;
  c.service.workers = kWorkers;
  c.service.options.scale = kScale;
  return c;
}

// CPU placement. When the process may use at least two CPUs, the generator
// (this thread) gets the first one and every server thread (loop and
// Service workers) the rest, so generator and loop never share a CPU and
// every run takes the same cross-CPU wake-up path. Left alone, the
// scheduler flips between a shared and a separate CPU for the two, which
// moved query p50 by half between runs. Server threads keep the freedom to
// migrate among their CPUs: pinning the loop to a single CPU exposed it to
// that one CPU's stalls and multiplied query p99 in some runs. New threads
// inherit the creating thread's mask, so the plan is applied by re-pinning
// this thread around Server construction and start.
class CpuPlan {
 public:
  CpuPlan() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
    if (cpus.size() < 2) return;
    CPU_ZERO(&generator_);
    CPU_ZERO(&server_);
    CPU_SET(cpus[0], &generator_);
    for (std::size_t i = 1; i < cpus.size(); ++i) CPU_SET(cpus[i], &server_);
    enabled_ = true;
  }
  [[nodiscard]] bool enabled() const { return enabled_; }
  void generator() const { pin(generator_); }
  void server() const { pin(server_); }

 private:
  void pin(const cpu_set_t& set) const {
    if (enabled_) sched_setaffinity(0, sizeof(set), &set);
  }
  bool enabled_ = false;
  cpu_set_t generator_{}, server_{};
};

// One full server set-up, timed from construction (store recovery) through
// start (warm boot, listen) until the first decision, the first distill
// (cold abr teacher build) and the first interpret (cold routing build)
// have all succeeded over the wire.
struct Setup {
  std::unique_ptr<serve::Server> server;
  double seconds = 0.0;
  JobRecord distill, interpret;
  bool first_decision_ok = false;
};

Setup set_up(const Args& a, const std::string& store,
             const metis::tree::FlatTree& t00,
             const std::vector<std::vector<double>>& features,
             const GeneratorConfig& dc, const CpuPlan& cpus) {
  Setup s;
  const std::int64_t t0 = now_ns();
  cpus.server();
  s.server = std::make_unique<serve::Server>(server_config(store));
  s.server->start();
  cpus.generator();
  auto client = net::Client::connect_unix(kSocket);
  const std::uint64_t session = client.open_session("t00");
  const double decision = client.query(session, 1, features[0]);
  s.first_decision_ok = std::bit_cast<std::uint64_t>(decision) ==
                        std::bit_cast<std::uint64_t>(t00.predict(features[0]));
  s.distill.kind = JobKind::kDistill;
  s.distill.distill.max_leaves = dc.leaf_choices.front();
  s.distill.distill.seed = a.seed;
  s.interpret.kind = JobKind::kInterpret;
  s.interpret.interpret.seed = dc.interpret_seeds.front();
  const auto d = client.submit_distill("abr", s.distill.distill);
  const auto i = client.submit_interpret("routing", s.interpret.interpret);
  if (!d || !i) throw std::runtime_error("set-up job refused (BUSY)");
  for (bool d_done = false, i_done = false; !(d_done && i_done);) {
    auto done = [&](std::uint64_t id) {
      const auto st = static_cast<serve::JobStatus>(client.poll(id).status);
      if (st == serve::JobStatus::kDone) return true;
      if (serve::is_terminal(st)) {
        throw std::runtime_error("set-up job ended " +
                                 std::string(serve::to_string(st)));
      }
      return false;
    };
    d_done = d_done || done(*d);
    i_done = i_done || done(*i);
    if (!(d_done && i_done)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  s.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  s.distill.id = *d;
  s.distill.tree_text = client.distill_result(*d).tree_text;
  s.interpret.id = *i;
  s.interpret.ranking = client.interpret_result(*i);
  return s;
}

bool same_ranking(const net::InterpretResultReply& a,
                  const net::InterpretResultReply& b) {
  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  if (a.edges != b.edges || a.vertices != b.vertices ||
      a.masks.size() != b.masks.size() || bits(a.divergence) != bits(b.divergence) ||
      bits(a.mask_l1) != bits(b.mask_l1) || bits(a.entropy) != bits(b.entropy)) {
    return false;
  }
  for (std::size_t i = 0; i < a.masks.size(); ++i) {
    if (bits(a.masks[i]) != bits(b.masks[i])) return false;
  }
  return true;
}

// Output accumulation: metric name -> {value, unit, samples}.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  bool supported = true;  // percentile rule met (>= 10 samples beyond)
};
using MetricMap = std::map<std::string, Metric>;

void put(MetricMap& m, const std::string& name, double value,
         const std::string& unit, std::size_t samples = 1) {
  m[name] = Metric{value, unit, samples, true};
}

// A percentile of Samples or of a Histogram, times `scale`.
template <typename Set>
void put_pct(MetricMap& m, const std::string& name, const Set& s, double p,
             const std::string& unit, double scale = 1.0) {
  m[name] = Metric{s.percentile(p).value_or(0.0) * scale, unit, s.size(),
                   s.supports(p)};
}

std::string render(const MetricMap& m) {
  std::ostringstream os;
  os << '{';
  bool first = true;
  for (const auto& [name, metric] : m) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(name) << "\":{\"value\":"
       << json_number(metric.value) << ",\"unit\":\""
       << json_escape(metric.unit) << "\",\"samples\":" << metric.samples
       << ",\"supported\":" << (metric.supported ? "true" : "false") << '}';
  }
  os << '}';
  return os.str();
}

int run(const Args& a) {
  // ---- inputs (untimed) ----------------------------------------------------
  const auto features = make_feature_pool(a.seed, kFeatureRows);
  GeneratorConfig dc;
  dc.socket_path = kSocket;
  dc.seed = a.seed;
  dc.seconds = a.seconds;
  dc.connections = kConnections;
  dc.sessions = kSessions;
  dc.service_workers = kWorkers;
  dc.phases = a.phases;
  dc.features = &features;
  for (std::size_t l = kLeafMin; l <= kLeafMax; ++l) {
    dc.leaf_choices.push_back(l);
  }
  for (std::size_t i = 0; i < kInterpretSeeds; ++i) {
    dc.interpret_seeds.push_back(mix(a.seed * 7919ULL + i) >> 24);
  }

  // The store every set-up recovers from: seeded stream trees plus a
  // previously deployed abr tree.
  const std::string master = "store_master";
  fs::remove_all(master);
  std::map<std::string, std::unique_ptr<metis::tree::FlatTree>> stream;
  {
    metis::store::SnapshotStore store({master, 2});
    for (std::size_t i = 0; i <= kStreamTrees; ++i) {
      char name[16];
      std::snprintf(name, sizeof(name), "t%02zu", i);
      const std::string key = i == kStreamTrees ? "abr" : name;
      const auto t = make_stream_tree(mix(a.seed * 31ULL + i), kStreamLeaves);
      (void)store.publish_tree(key, t);
      if (key == "abr") continue;
      stream[key] = std::make_unique<metis::tree::FlatTree>(
          metis::tree::FlatTree::compile(t));
      dc.stream_trees.push_back(key);
      dc.known_trees[key] = stream[key].get();
    }
  }

  // ---- set-up, several times; the last server is the one measured ----------
  const CpuPlan cpus;
  Samples setup_s;
  Setup setup;
  bool setup_ok = true;
  std::vector<JobRecord> setup_jobs;  // every set-up's jobs, checked below
  for (std::size_t k = 0; k < a.setups; ++k) {
    const std::string store = "store_" + std::to_string(k);
    fs::remove_all(store);
    fs::copy(master, store, fs::copy_options::recursive);
    setup = {};
    setup = set_up(a, store, *stream.at("t00"), features, dc, cpus);
    setup_s.add(setup.seconds);
    setup_ok = setup_ok && setup.first_decision_ok;
    setup_jobs.push_back(setup.distill);
    setup_jobs.push_back(setup.interpret);
  }
  // Wait (untimed) for the set-up distill's auto-deploy, so the deploy
  // lane starts from a known abr version.
  {
    auto client = net::Client::connect_unix(kSocket);
    const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(10e9);
    for (;;) {
      const auto list = client.list_trees();
      std::uint64_t v = 0;
      for (std::size_t i = 0; i < list.names.size(); ++i) {
        if (list.names[i] == "abr") v = list.versions[i];
      }
      if (v >= 2) {
        dc.abr_version = v;
        break;
      }
      if (now_ns() > deadline) throw std::runtime_error("set-up deploy missing");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    dc.abr_tree_text = setup.distill.tree_text;
    dc.store = setup.server->snapshot_store();
  }

  // ---- the workload ----------------------------------------------------------
  GeneratorResult r = run_generator(dc);
  const double rss_mb = peak_rss_mb();
  const serve::Server::Stats stats = setup.server->stats();
  const std::size_t retained = setup.server->service().jobs().size();
  setup.server.reset();
  const std::size_t threads_after = thread_count();

  // ---- correctness: replay every job in-process ------------------------------
  metis::api::ScenarioOptions options;
  options.scale = kScale;
  Tracer tracer(a.trace);
  Tracer* trace = a.trace ? &tracer : nullptr;
  const Systems systems = build_systems(options, trace);
  std::vector<JobRecord> jobs = r.jobs;
  jobs.insert(jobs.end(), setup_jobs.begin(), setup_jobs.end());
  std::uint64_t trees_checked = 0, tree_mismatches = 0;
  std::uint64_t rankings_checked = 0, ranking_mismatches = 0;
  std::map<std::uint64_t, net::InterpretResultReply> interpret_replays;
  // Tracing overhead: each traced distill replay is followed by the same
  // step replay with a disabled tracer (back to back, so host drift cancels).
  Tracer off(false);
  double traced_ms = 0.0, untraced_ms = 0.0;
  std::string distilled_text;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const JobRecord& job = jobs[j];
    if (job.kind == JobKind::kDistill) {
      if (job.tree_text.empty()) continue;  // failed job, already counted
      const std::int64_t t0 = now_ns();
      const auto t = replay_distill(systems, job.distill, trace, j + 1);
      traced_ms += static_cast<double>(now_ns() - t0) * 1e-6;
      if (a.trace) {
        const std::int64_t t1 = now_ns();
        (void)replay_distill(systems, job.distill, &off, 0);
        untraced_ms += static_cast<double>(now_ns() - t1) * 1e-6;
      }
      distilled_text = metis::tree::serialize(t);
      trees_checked++;
      if (distilled_text != job.tree_text) tree_mismatches++;
    } else {
      if (job.ranking.edges.empty()) continue;
      const std::uint64_t seed = *job.interpret.seed;
      auto it = interpret_replays.find(seed);
      if (it == interpret_replays.end()) {
        it = interpret_replays
                 .emplace(seed, replay_interpret(systems, job.interpret, trace,
                                                 j + 1))
                 .first;
      }
      rankings_checked++;
      if (!same_ranking(it->second, job.ranking)) ranking_mismatches++;
    }
  }
  const std::uint64_t stats_mismatches =
      (stats.decisions_served != r.decisions_received + 1 ? 1 : 0) +
      (stats.busy_replies != r.busy ? 1 : 0) +
      (stats.error_replies != r.errors ? 1 : 0) +
      (stats.connections_dropped != r.torn ? 1 : 0);

  // ---- end-to-end metrics ------------------------------------------------------
  Samples distill_ms, first_ms, interpret_ms, queue_ms, deploy_ms;
  Samples lane_wait_ms;  // distills that found the deploy lane busy
  std::uint64_t jobs_attempted = 0, jobs_failed = 0, lane_distills = 0;
  for (const JobRecord& job : r.jobs) {
    jobs_attempted++;
    const bool ok = job.kind == JobKind::kDistill ? !job.tree_text.empty()
                                                  : !job.ranking.edges.empty();
    if (!ok) {
      jobs_failed++;
      continue;
    }
    if (job.closed) continue;
    auto ms = [](std::int64_t from, std::int64_t to) {
      return static_cast<double>(to - from) * 1e-6;
    };
    if (job.running_ns >= 0) queue_ms.add(ms(job.submit_ns, job.running_ns));
    if (job.kind == JobKind::kDistill) {
      lane_distills++;
      if (job.lane_waited) lane_wait_ms.add(ms(job.arrival_ns, job.submit_ns));
      distill_ms.add(ms(job.submit_ns, job.done_ns));
      if (job.decided_ns >= 0) {
        first_ms.add(ms(job.submit_ns, job.decided_ns));
        deploy_ms.add(ms(job.done_ns, job.visible_ns));
      }
    } else {
      interpret_ms.add(ms(job.submit_ns, job.result_ns));
    }
  }
  MetricMap e2e;
  put(e2e, "setup_s", *setup_s.percentile(50), "s", setup_s.size());
  put(e2e, "peak_rss_mb", rss_mb, "MB");
  put_pct(e2e, "query_p50_us", r.query_latency_ns, 50, "us", 1e-3);
  put(e2e, "query_sat_dps", r.sat_dps.interquartile_mean().value_or(0.0),
      "1/s", r.sat_dps.size());
  put_pct(e2e, "distill_p50_ms", distill_ms, 50, "ms");
  put_pct(e2e, "first_decision_p50_ms", first_ms, 50, "ms");
  put_pct(e2e, "first_decision_p90_ms", first_ms, 90, "ms");
  put_pct(e2e, "interpret_p50_ms", interpret_ms, 50, "ms");
  put_pct(e2e, "interpret_p90_ms", interpret_ms, 90, "ms");
  put(e2e, "jobs_per_s", r.jobs_per_s, "1/s");

  // ---- per-layer metrics (traced run) ------------------------------------------
  MetricMap layers;
  if (a.trace) {
    const auto self = tracer.self_ms();
    auto self_p50 = [&](const std::string& span) {
      auto it = self.find(span);
      return it == self.end() ? 0.0 : *it->second.percentile(50);
    };
    put(layers, "api.build_abr_s", self_p50("api.build_abr") * 1e-3, "s");
    put(layers, "api.build_routing_s", self_p50("api.build_routing") * 1e-3,
        "s");
    put(layers, "core.collect_round_ms", self_p50("core.collect_round"), "ms",
        self.at("core.collect_round").size());
    const Samples& samples = tracer.counts().at("core.samples");
    put(layers, "core.samples", *samples.percentile(50), "count",
        samples.size());
    put(layers, "tree.fit_ms", self_p50("tree.fit"), "ms",
        self.at("tree.fit").size());
    put(layers, "tree.prune_ms", self_p50("tree.prune"), "ms",
        self.count("tree.prune") ? self.at("tree.prune").size() : 0);
    metis::core::InterpretConfig icfg = systems.routing.interpret_defaults;
    put(layers, "core.mask_step_ms",
        self_p50("core.mask_search") / static_cast<double>(icfg.steps), "ms",
        self.at("core.mask_search").size());
    put(layers, "trace.residual_ms", self_p50("job.distill"), "ms",
        self.at("job.distill").size());
    put(layers, "trace.overhead_pct",
        (traced_ms - untraced_ms) / untraced_ms * 100.0, "%");
    const auto measured = measure_layers(
        systems, metis::tree::deserialize(distilled_text), features, master,
        ".", 1 + systems.abr.teacher->action_count(),
        [&cpus] { cpus.server(); });
    for (const LayerMetric& l : measured) put(layers, l.name, l.value, l.unit);
    const double p50 = r.query_latency_ns.percentile(50).value_or(0.0) * 1e-3;
    put(layers, "serve.query_overhead_us", p50 - layers.at("net.echo_rtt_us").value,
        "us");
    put(layers, "serve.queue_wait_ms", queue_ms.percentile(50).value_or(0.0),
        "ms", queue_ms.size());
    put(layers, "serve.deploy_wait_ms", deploy_ms.percentile(50).value_or(0.0),
        "ms", deploy_ms.size());
    put(layers, "serve.jobs_retained", static_cast<double>(retained), "count");
    put(layers, "serve.decisions_served",
        static_cast<double>(stats.decisions_served), "count");
    put(layers, "serve.busy_replies", static_cast<double>(stats.busy_replies),
        "count");
    put(layers, "serve.error_replies", static_cast<double>(stats.error_replies),
        "count");
    put(layers, "serve.connections_dropped",
        static_cast<double>(stats.connections_dropped), "count");
    // Median over 200 ms windows of each window's p99 (each window alone
    // has at least ten samples beyond its p99). A per-layer figure, not an
    // end-to-end one: host vCPU stalls move it by 10x between runs.
    put(layers, "query_p99_us",
        r.query_p99_windows_us.percentile(50).value_or(0.0), "us",
        r.query_p99_windows_us.size());
    put_pct(layers, "bench.gen_lag_p99_us", r.gen_lag_ns, 99, "us", 1e-3);
    put(layers, "bench.cpu_per_wall", r.measured_cpu_s / r.measured_wall_s,
        "ratio");
    std::ofstream(a.out_dir + "/trace-" + a.workload + "-" +
                  std::to_string(a.seed) + ".json")
        << tracer.to_json();
  }

  // ---- the record ----------------------------------------------------------------
  const std::uint64_t failed = r.busy + r.errors + r.timeouts + r.torn +
                               r.version_mismatches + jobs_failed;
  const std::uint64_t attempted = r.queries_sent + jobs_attempted + r.probes;
  const bool correct = r.fatal.empty() && setup_ok &&
                       r.decision_mismatches == 0 && tree_mismatches == 0 &&
                       ranking_mismatches == 0 && r.version_mismatches == 0 &&
                       stats_mismatches == 0 && r.decisions_checked > 0 &&
                       trees_checked > 0 && rankings_checked > 0;
  std::ostringstream os;
  os << "{\"correct\":" << (correct ? "true" : "false")
     << ",\"attempted\":" << attempted << ",\"failed\":" << failed
     << ",\"fatal\":\"" << json_escape(r.fatal) << '"'
     << ",\"end_to_end\":" << render(e2e) << ",\"per_layer\":" << render(layers)
     << ",\"gates\":{\"decisions_checked\":" << r.decisions_checked
     << ",\"decision_mismatches\":" << r.decision_mismatches
     << ",\"setup_decisions_ok\":" << (setup_ok ? "true" : "false")
     << ",\"trees_checked\":" << trees_checked
     << ",\"tree_mismatches\":" << tree_mismatches
     << ",\"rankings_checked\":" << rankings_checked
     << ",\"ranking_mismatches\":" << ranking_mismatches
     << ",\"version_mismatches\":" << r.version_mismatches
     << ",\"stats_checked\":4,\"stats_mismatches\":" << stats_mismatches << '}'
     << ",\"meta\":{\"hardware_concurrency\":"
     << std::thread::hardware_concurrency()
     << ",\"service_workers\":" << kWorkers << ",\"seed\":" << a.seed
     << ",\"cpus_pinned\":" << (cpus.enabled() ? "true" : "false")
     << ",\"max_threads\":" << std::max(r.max_threads, threads_after)
     << ",\"cpu_per_wall\":"
     << json_number(r.measured_cpu_s / r.measured_wall_s)
     << ",\"measured_wall_s\":" << json_number(r.measured_wall_s)
     << ",\"setups\":" << setup_s.size() << ",\"queries\":" << r.queries_sent
     << ",\"probes\":" << r.probes << ",\"reopens\":" << r.reopens
     << ",\"jobs\":" << jobs_attempted
     << ",\"lane_distills\":" << lane_distills
     << ",\"lane_waited\":" << lane_wait_ms.size()
     << ",\"lane_wait_share\":"
     << json_number(lane_distills == 0
                        ? 0.0
                        : static_cast<double>(lane_wait_ms.size()) /
                              static_cast<double>(lane_distills))
     << ",\"lane_wait_p50_ms\":"
     << json_number(lane_wait_ms.percentile(50).value_or(0.0))
     << ",\"late_window_replies\":" << r.late_window_replies
     << ",\"busy\":" << r.busy << ",\"errors\":" << r.errors
     << ",\"timeouts\":" << r.timeouts << ",\"torn\":" << r.torn << "}}";
  std::cout << os.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "metisbench: " << e.what() << '\n';
    return 1;
  }
}
