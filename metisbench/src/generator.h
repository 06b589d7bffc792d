// The wire generator: one thread that plays every client of a workload against
// a serve::Server over its Unix socket, using the wire codec directly so it
// never blocks. It multiplexes
//   * an open-loop decision stream (queries sent on a fixed schedule over a
//     few connections carrying many sessions, each timed from when it was
//     due) or a pipelined closed-loop stream (saturation, 192 queries
//     outstanding);
//   * open-loop job arrivals (abr distill, routing interpret) on a seeded
//     schedule, or closed-loop jobs with a fixed number outstanding;
//     distills pass one at a time through a deploy lane;
//   * the control traffic those jobs need: polls every millisecond, result
//     fetches, tree-list polls that detect each auto-deploy, and the probe
//     query that asks the newly deployed version for its first decision.
// Every decision reply is checked bitwise against the client-side
// FlatTree::compile(deserialize(tree_text)) of the version that served it.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "metis/api/runs.h"
#include "metis/net/wire.h"
#include "metis/store/snapshot_store.h"
#include "metis/tree/flat_tree.h"

namespace metisbench {

// One phase of a workload (see workloads.json). Open phases run for a share
// of --seconds; closed phases run for a fixed amount of work.
struct PhaseSpec {
  std::string name;
  double share = 0.0;           // open: fraction of --seconds
  double query_rate = 0.0;      // open: decisions/s offered (0 = none)
  bool query_abr = false;       // open: stream sessions follow each abr deploy
  double distill_rate = 0.0;    // open: abr distill arrivals/s
  double interpret_rate = 0.0;  // open: routing interpret arrivals/s
  std::size_t decisions = 0;    // closed: pipelined queries until answered
  std::size_t jobs = 0;         // closed: jobs, outstanding = Service workers

  [[nodiscard]] bool open() const { return share > 0.0; }
};

struct GeneratorConfig {
  std::string socket_path;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::size_t connections = 3;
  std::size_t sessions = 256;  // stream sessions, spread over connections
  std::size_t service_workers = 2;
  std::vector<PhaseSpec> phases;
  // Trees the query stream opens sessions on (warm-booted from the store),
  // with the client-side compiled copy each reply is checked against.
  std::vector<std::string> stream_trees;
  std::map<std::string, const metis::tree::FlatTree*> known_trees;
  // The abr version currently deployed and its tree text (from the store
  // or the last distill), so the deploy lane knows what comes next.
  std::uint64_t abr_version = 0;
  std::string abr_tree_text;
  // The server's snapshot store. After closed-loop distills deploy, it
  // names the tree the newest abr version holds; the generator then checks
  // against the matching distill's wire tree_text.
  metis::store::SnapshotStore* store = nullptr;
  // Query features (rows of the ABR interpretable-feature shape).
  const std::vector<std::vector<double>>* features = nullptr;
  // Job parameter pools drawn from the seed: a distill job's max_leaves
  // and an interpret job's seed are picked from these per job.
  std::vector<std::size_t> leaf_choices;
  std::vector<std::uint64_t> interpret_seeds;
};

enum class JobKind { kDistill, kInterpret };

// Everything the generator observed about one job.
struct JobRecord {
  JobKind kind = JobKind::kDistill;
  bool closed = false;   // submitted by a closed-loop phase
  metis::api::DistillOverrides distill;
  metis::api::InterpretOverrides interpret;
  std::int64_t arrival_ns = -1;  // open-loop: when the arrival came due
  bool lane_waited = false;      // distill that found the deploy lane busy
  std::int64_t submit_ns = -1;
  std::int64_t running_ns = -1;  // first poll reporting running (or done)
  std::int64_t done_ns = -1;     // first poll reporting done
  std::int64_t result_ns = -1;   // result received
  std::int64_t visible_ns = -1;  // new version seen in list_trees
  std::int64_t decided_ns = -1;  // first decision by the new version
  std::uint64_t id = 0;
  std::uint64_t version = 0;     // abr version this distill deployed as
  std::string tree_text;
  metis::net::InterpretResultReply ranking;
};

struct GeneratorResult {
  Histogram query_latency_ns;    // open-loop, timed from the due time
  Samples query_p99_windows_us;  // p99 of each 200 ms window of due times
  Histogram gen_lag_ns;          // how late each open-loop query was sent
  std::uint64_t late_window_replies = 0;  // left out of the window p99s
  Samples sat_dps;               // decisions/s of each 60k-decision window
  double jobs_per_s = 0.0;       // completions/s over the closed job phases
  std::vector<JobRecord> jobs;
  std::uint64_t queries_sent = 0;
  std::uint64_t decisions_received = 0;
  std::uint64_t decisions_checked = 0;
  std::uint64_t decision_mismatches = 0;
  std::uint64_t probes = 0;
  std::uint64_t busy = 0, errors = 0, timeouts = 0, torn = 0;
  std::uint64_t version_mismatches = 0;
  std::uint64_t reopens = 0;
  double measured_wall_s = 0.0;
  double measured_cpu_s = 0.0;
  std::size_t max_threads = 0;
  std::string fatal;  // non-empty when the run could not complete
};

// Runs every phase in order against the server listening on
// config.socket_path. Never throws for server misbehaviour; it is recorded
// in the result.
[[nodiscard]] GeneratorResult run_generator(const GeneratorConfig& config);

}  // namespace metisbench
