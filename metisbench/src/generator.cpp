#include "generator.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "metis/serve/job.h"
#include "metis/tree/tree_io.h"
#include "metis/util/rng.h"

namespace metisbench {
namespace {

namespace net = metis::net;
using metis::tree::FlatTree;

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
constexpr std::int64_t kPollPeriodNs = 1'000'000;  // job/deploy polls: 1 ms
// Pipelined queries outstanding in a saturation phase, over all stream
// connections: enough that the loop never idles.
constexpr std::size_t kSaturationWindow = 192;
// Window lengths of the robust summaries: the saturation rate is the
// interquartile mean over windows of 60k decisions, taken over every
// saturation burst of the run, and query p99 the median over 200 ms
// windows of due times. A window that holds a host stall (a vCPU
// descheduled for milliseconds) has a p99 in the milliseconds; short
// windows keep those a minority, so the median reports the server.
constexpr std::uint64_t kSatWindow = 60'000;
constexpr double kLatencyWindowS = 0.2;
// The 200 ms windows are histograms kept in a ring: a window is summarised
// when a reply of the window that reuses its slot arrives, 1.4 s later.
constexpr std::size_t kWindowRing = 8;
// A distill that waited in the deploy lane is submitted at a seeded offset
// in [0, kLaneHoldNs) after the lane frees. The lane frees right after a
// deploy, and deploys happen on the server's 50 ms housekeeping tick, so
// submitting at once would put every queued distill in phase with it.
constexpr double kLaneHoldNs = 50e6;

// What a request sent on a connection expects back; replies arrive in
// request order on each connection, so every connection keeps a FIFO.
enum class Expect {
  kQuery,         // stream decision
  kStreamOpen,    // stream session (slot)
  kReopenBefore,  // tree list before re-opening stream sessions
  kReopenOpen,    // re-opened stream session (slot)
  kReopenAfter,   // tree list after re-opening
  kSubmit,
  kPoll,
  kResult,
  kDeployWatch,   // tree list while waiting for a distill's deploy
  kProbeOpen,     // session on the newly deployed version
  kProbePin,      // tree list pinning the version the probe session holds
  kProbeQuery,    // the first decision of the new version
  kSettleWatch,   // tree list while closed-loop distills deploy
};

struct Pending {
  Expect expect = Expect::kQuery;
  std::size_t job = kNone;
  std::uint64_t seq = 0;
  std::size_t slot = 0;
};

struct Conn {
  int fd = -1;
  net::FrameDecoder decoder;
  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;
  std::deque<Pending> pending;
  // Stream sessions on this connection and the tree each one holds.
  std::vector<std::uint64_t> sessions;
  std::map<std::uint64_t, const FlatTree*> session_tree;
  // Sessions replaced by the last re-open: replies to queries sent on them
  // may still arrive, so they leave session_tree one re-open later.
  std::vector<std::uint64_t> retired;
  // Stream sessions still being opened, and the tree each slot asked for.
  std::size_t opening = 0;
  std::vector<std::string> opening_names;
  // Re-open on the abr key in progress (mixed), and the version seen before.
  bool reopening = false;
  std::uint64_t reopen_before = 0;
  std::vector<std::uint64_t> reopen_sessions;
};

int dial_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.data(), path.size());
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    throw std::runtime_error("connect(" + path + ") failed: " +
                             std::strerror(errno));
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

std::uint64_t abr_version_of(const net::TreeListReply& list) {
  for (std::size_t i = 0; i < list.names.size(); ++i) {
    if (list.names[i] == "abr") return list.versions[i];
  }
  return 0;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

enum class JobState { kWaiting, kSubmitted, kDone, kAwaitDeploy, kProbing,
                      kFinished, kFailed };

class Generator {
 public:
  explicit Generator(const GeneratorConfig& config)
      : cfg_(config), lane_rng_(mix(config.seed ^ 0x1a4eULL)) {
    for (std::size_t i = 0; i < cfg_.connections; ++i) {
      stream_.push_back(std::make_unique<Conn>());
      stream_.back()->fd = dial_unix(cfg_.socket_path);
    }
    control_.fd = dial_unix(cfg_.socket_path);
    abr_version_ = cfg_.abr_version;
    abr_trees_[abr_version_] = compile(cfg_.abr_tree_text);
  }

  ~Generator() {
    for (auto& c : stream_) ::close(c->fd);
    ::close(control_.fd);
  }

  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  GeneratorResult run() {
    // Between job polls the generator sleeps in ppoll(); a 1 us timer slack
    // keeps those wake-ups close to the 1 ms schedule.
    ::prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
    const double cpu0 = cpu_seconds();
    const std::int64_t wall0 = now_ns();
    for (std::size_t p = 0; p < cfg_.phases.size() && res_.fatal.empty();
         ++p) {
      run_phase(p);
    }
    if (closed_ns_ > 0) {
      res_.jobs_per_s = static_cast<double>(closed_jobs_) /
                        (static_cast<double>(closed_ns_) * 1e-9);
    }
    res_.measured_wall_s = static_cast<double>(now_ns() - wall0) * 1e-9;
    res_.measured_cpu_s = cpu_seconds() - cpu0;
    res_.jobs = std::move(jobs_);
    return std::move(res_);
  }

 private:
  // ---- phase control -------------------------------------------------------

  void run_phase(std::size_t p) {
    phase_ = p;
    const PhaseSpec& spec = cfg_.phases[p];
    res_.max_threads = std::max(res_.max_threads, thread_count());
    const bool queries = spec.query_rate > 0.0 || spec.decisions > 0;
    if (queries) open_stream_sessions(spec.open() && spec.query_abr);
    if (!res_.fatal.empty()) return;

    phase_t0_ = now_ns();
    phase_first_job_ = jobs_.size();
    q_base_ = next_seq_;
    q_sent_ = q_recv_ = 0;
    q_total_ = 0;
    q_period_ns_ = 0.0;
    closed_left_ = 0;
    closed_active_ = 0;
    arrivals_.clear();
    next_arrival_ = 0;
    std::int64_t deadline = phase_t0_;
    if (spec.open()) {
      const double secs = cfg_.seconds * spec.share;
      if (spec.query_rate > 0.0) {
        q_total_ = static_cast<std::uint64_t>(std::llround(spec.query_rate *
                                                           secs));
        q_period_ns_ = 1e9 / spec.query_rate;
        window_queries_ = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                   std::llround(spec.query_rate * kLatencyWindowS)));
      }
      schedule_arrivals(spec, secs);
      deadline += static_cast<std::int64_t>((2.0 * secs + 60.0) * 1e9);
    } else {
      deadline += static_cast<std::int64_t>(120e9);
      if (spec.jobs > 0) start_closed_jobs(spec);
      if (spec.decisions > 0) {
        q_total_ = spec.decisions;
        const std::size_t per_conn =
            std::max<std::size_t>(1, kSaturationWindow / stream_.size());
        for (std::size_t c = 0; c < stream_.size(); ++c) {
          for (std::size_t i = 0; i < per_conn && q_sent_ < q_total_; ++i) {
            send_query(*stream_[c]);
          }
        }
      }
    }

    std::int64_t next_tick = phase_t0_ + kPollPeriodNs;
    while (res_.fatal.empty()) {
      std::int64_t now = now_ns();
      if (spec.open()) {
        while (q_sent_ < q_total_ && due(q_sent_) <= now) {
          const std::int64_t d = due(q_sent_);
          Conn& c = *stream_[q_sent_ % stream_.size()];
          res_.gen_lag_ns.add(now - d);
          send_query(c);
        }
        release_arrivals(now);
      }
      if (now >= next_tick) {
        tick();
        next_tick = now + kPollPeriodNs;
      }
      if (phase_finished()) break;
      if (now > deadline) {
        res_.timeouts++;
        res_.fatal = "phase '" + spec.name + "' did not finish in time";
        break;
      }
      std::int64_t wake = next_tick;
      if (spec.open()) {
        if (q_sent_ < q_total_) wake = std::min(wake, due(q_sent_));
        if (next_arrival_ < arrivals_.size()) {
          wake = std::min(wake, arrivals_[next_arrival_].first);
        }
        if (lane_ == kNone && !lane_queue_.empty()) {
          wake = std::min(wake, lane_hold_until_);
        }
      }
      // While an open-loop stream is due, the generator polls without sleeping:
      // a sleeping generator wakes late (7 us at the median, milliseconds when
      // the host is slow to resume its vCPU), and that lateness would be
      // charged to the server. Its CPU is its own (see main.cpp).
      pump(wake, spec.open() && q_sent_ < q_total_);
    }
    // Robust summaries: host noise arrives in bursts, so each of these is
    // summarised over windows rather than as one figure over the phase.
    for (std::size_t w = 0; w < kWindowRing; ++w) close_window(w);
    std::int64_t from = phase_t0_;
    for (const std::int64_t to : sat_windows_) {
      res_.sat_dps.add(static_cast<double>(kSatWindow) /
                       (static_cast<double>(to - from) * 1e-9));
      from = to;
    }
    sat_windows_.clear();
    // The closed-loop job rate is taken over whole phases: their fixed,
    // seeded half-and-half mix of distills and interprets holds only there
    // (a window of a few completions may hold more of either kind).
    if (spec.jobs > 0 && res_.fatal.empty()) {
      closed_jobs_ += spec.jobs;
      closed_ns_ += closed_end_ - phase_t0_;
      settle_closed_deploys();
    }
  }

  // Closed-loop distills deploy as they finish, outside the deploy lane.
  // Waits until the server shows every one of them, so that the lane of a
  // later open phase knows the version its next distill deploys as, and
  // learns which of them the newest version holds, so that stream sessions
  // on the abr key can be checked after it.
  void settle_closed_deploys() {
    std::uint64_t target = abr_version_;
    for (std::size_t j = phase_first_job_; j < jobs_.size(); ++j) {
      if (jobs_[j].kind == JobKind::kDistill &&
          state_[j] == JobState::kFinished) {
        target++;
      }
    }
    const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(30e9);
    std::int64_t next_poll = now_ns();
    settled_version_ = abr_version_;
    while (res_.fatal.empty() && settled_version_ < target) {
      const std::int64_t now = now_ns();
      if (now > deadline) {
        res_.timeouts++;
        res_.fatal = "closed-loop distills did not deploy in time";
        return;
      }
      if (!watch_in_flight_ && now >= next_poll) {
        watch_in_flight_ = true;
        next_poll = now + kPollPeriodNs;
        send(control_, net::ListTreesRequest{}.encode(),
             {Expect::kSettleWatch});
      }
      pump(std::max(next_poll, now + kPollPeriodNs / 10), false);
    }
    if (settled_version_ != target) res_.version_mismatches++;
    abr_version_ = settled_version_;
    if (abr_trees_.count(abr_version_) > 0) return;
    std::uint64_t stored = 0;
    const std::string text = cfg_.store->load_payload(
        metis::store::ArtifactKind::kTree, "abr", &stored);
    for (std::size_t j = phase_first_job_; j < jobs_.size(); ++j) {
      if (stored == abr_version_ && jobs_[j].kind == JobKind::kDistill &&
          state_[j] == JobState::kFinished && jobs_[j].tree_text == text) {
        abr_trees_[abr_version_] = compile(text);
        return;
      }
    }
    res_.version_mismatches++;
  }

  bool phase_finished() const {
    if (q_recv_ < q_sent_ || q_sent_ < q_total_) return false;
    if (next_arrival_ < arrivals_.size() || !lane_queue_.empty()) return false;
    if (lane_ != kNone || closed_left_ > 0 || closed_active_ > 0) return false;
    for (const auto& c : stream_) {
      if (c->reopening) return false;
    }
    for (std::size_t j = phase_first_job_; j < jobs_.size(); ++j) {
      if (state_[j] != JobState::kFinished && state_[j] != JobState::kFailed) {
        return false;
      }
    }
    return control_.pending.empty();
  }

  [[nodiscard]] std::int64_t due(std::uint64_t k) const {
    return phase_t0_ +
           static_cast<std::int64_t>(static_cast<double>(k) * q_period_ns_);
  }

  // ---- query stream --------------------------------------------------------

  // Stream sessions connection c carries: cfg_.sessions spread as evenly
  // as the connection count allows.
  [[nodiscard]] std::size_t sessions_on(std::size_t c) const {
    return cfg_.sessions / stream_.size() +
           (c < cfg_.sessions % stream_.size() ? 1 : 0);
  }

  // Opens the stream sessions on every connection: on the "abr" key
  // (pinned to the deployed version by tree lists around the opens) or
  // spread over the warm-booted stream trees.
  void open_stream_sessions(bool on_abr) {
    std::size_t first = 0;  // index of connection c's first session
    for (std::size_t c = 0; c < stream_.size(); ++c) {
      Conn& conn = *stream_[c];
      const std::size_t n = sessions_on(c);
      conn.sessions.assign(n, 0);
      if (on_abr) {
        begin_reopen(conn);
        continue;
      }
      conn.opening = n;
      conn.opening_names.clear();
      for (std::size_t s = 0; s < n; ++s) {
        const std::string& name =
            cfg_.stream_trees[(first + s) % cfg_.stream_trees.size()];
        send(conn, net::OpenSessionRequest{name}.encode(),
             {Expect::kStreamOpen, kNone, 0, s});
        conn.opening_names.push_back(name);
      }
      first += n;
    }
    const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(30e9);
    for (;;) {
      bool busy = false;
      for (const auto& c : stream_) busy = busy || c->opening > 0 ||
                                           c->reopening;
      if (!busy || !res_.fatal.empty()) break;
      if (now_ns() > deadline) {
        res_.fatal = "stream sessions did not open";
        break;
      }
      pump(now_ns() + kPollPeriodNs, false);
    }
  }

  // Opens a fresh set of stream sessions on "abr", bracketed by tree lists
  // so the version they hold is known (see on_stream).
  void begin_reopen(Conn& conn) {
    conn.reopening = true;
    conn.reopen_sessions.assign(conn.sessions.size(), 0);
    send(conn, net::ListTreesRequest{}.encode(), {Expect::kReopenBefore});
    for (std::size_t s = 0; s < conn.sessions.size(); ++s) {
      send(conn, net::OpenSessionRequest{"abr"}.encode(),
           {Expect::kReopenOpen, kNone, 0, s});
    }
    send(conn, net::ListTreesRequest{}.encode(), {Expect::kReopenAfter});
    res_.reopens++;
  }

  void send_query(Conn& conn) {
    const std::uint64_t seq = next_seq_++;
    const std::uint64_t h = mix(seq ^ (cfg_.seed << 20));
    const std::size_t slot = h % conn.sessions.size();
    const std::size_t row = (h >> 32) % cfg_.features->size();
    net::QueryRequest q;
    q.session = conn.sessions[slot];
    q.seq = seq;
    q.features = (*cfg_.features)[row];
    send(conn, q.encode(), {Expect::kQuery, kNone, seq, row});
    q_sent_++;
    res_.queries_sent++;
  }

  void on_decision(Conn& conn, const Pending& p, const net::Frame& frame,
                   std::int64_t now) {
    const auto reply = net::DecisionReply::decode(frame);
    if (reply.seq != p.seq) {
      res_.decision_mismatches++;
      return;
    }
    res_.decisions_received++;
    check_decision(conn, reply, p.slot);
    q_recv_++;
    const PhaseSpec& spec = cfg_.phases[phase_];
    if (spec.open()) {
      const std::uint64_t k = p.seq - q_base_;
      res_.query_latency_ns.add(now - due(k));
      add_to_window(k / window_queries_, now - due(k));
    } else {
      if (q_recv_ % kSatWindow == 0) sat_windows_.push_back(now);
      if (q_sent_ < q_total_) send_query(conn);
    }
  }

  void add_to_window(std::uint64_t window, std::int64_t ns) {
    const std::size_t slot = window % kWindowRing;
    if (window_id_[slot] != window + 1) {
      if (window_id_[slot] > window + 1) {  // its slot was already reused
        res_.late_window_replies++;
        return;
      }
      close_window(slot);
      window_id_[slot] = window + 1;
    }
    windows_[slot].add(ns);
  }

  void close_window(std::size_t slot) {
    if (windows_[slot].supports(99)) {
      res_.query_p99_windows_us.add(*windows_[slot].percentile(99) * 1e-3);
    }
    windows_[slot].clear();
    window_id_[slot] = 0;
  }

  void check_decision(const Conn& conn, const net::DecisionReply& reply,
                      std::size_t row) {
    res_.decisions_checked++;
    auto it = conn.session_tree.find(reply.session);
    if (it == conn.session_tree.end() ||
        !same_bits(it->second->predict((*cfg_.features)[row]),
                   reply.decision)) {
      res_.decision_mismatches++;
    }
  }

  // ---- jobs ----------------------------------------------------------------

  std::size_t new_job(JobKind kind, bool closed) {
    const std::size_t idx = jobs_.size();
    JobRecord job;
    job.kind = kind;
    job.closed = closed;
    const std::uint64_t h = mix(cfg_.seed * 1000003ULL + idx);
    if (kind == JobKind::kDistill) {
      job.distill.max_leaves =
          cfg_.leaf_choices[h % cfg_.leaf_choices.size()];
      job.distill.seed = h >> 16;
    } else {
      job.interpret.seed =
          cfg_.interpret_seeds[h % cfg_.interpret_seeds.size()];
    }
    jobs_.push_back(std::move(job));
    state_.push_back(JobState::kWaiting);
    poll_in_flight_.push_back(false);
    return idx;
  }

  // Stratified, jittered arrival times: one arrival per slot of length
  // secs/n at a seeded offset inside it — open-loop, evenly spread, and
  // not in phase with the server's housekeeping tick.
  void schedule_arrivals(const PhaseSpec& spec, double secs) {
    metis::Rng rng(mix(cfg_.seed ^ (0xa5a5ULL + phase_)));
    auto add = [&](double rate, JobKind kind) {
      const auto n = static_cast<std::size_t>(std::llround(rate * secs));
      const double slot_ns = secs * 1e9 / static_cast<double>(std::max<std::size_t>(n, 1));
      for (std::size_t i = 0; i < n; ++i) {
        const auto t = phase_t0_ + static_cast<std::int64_t>(
                                       (static_cast<double>(i) + rng.uniform()) *
                                       slot_ns);
        arrivals_.emplace_back(t, kind);
      }
    };
    add(spec.distill_rate, JobKind::kDistill);
    add(spec.interpret_rate, JobKind::kInterpret);
    std::stable_sort(arrivals_.begin(), arrivals_.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
  }

  // Interpret arrivals are submitted when due. Distill arrivals go through
  // the deploy lane: one distill at a time from submit to its first
  // decision, so each new abr version maps to exactly one job. A distill
  // that finds the lane free is submitted when due; one that finds it busy
  // waits, and is submitted kLaneHoldNs-jittered after the lane frees.
  void release_arrivals(std::int64_t now) {
    while (next_arrival_ < arrivals_.size() &&
           arrivals_[next_arrival_].first <= now) {
      const auto [due_ns, kind] = arrivals_[next_arrival_++];
      const std::size_t j = new_job(kind, false);
      jobs_[j].arrival_ns = due_ns;
      if (kind == JobKind::kInterpret) {
        submit(j);
      } else {
        jobs_[j].lane_waited = lane_ != kNone || !lane_queue_.empty();
        lane_queue_.push_back(j);
      }
    }
    if (lane_ == kNone && !lane_queue_.empty() && now >= lane_hold_until_) {
      lane_ = lane_queue_.front();
      lane_queue_.pop_front();
      submit(lane_);
    }
  }

  void start_closed_jobs(const PhaseSpec& spec) {
    closed_kinds_.clear();
    for (std::size_t i = 0; i < spec.jobs; ++i) {
      closed_kinds_.push_back(i % 2 == 0 ? JobKind::kDistill
                                         : JobKind::kInterpret);
    }
    metis::Rng rng(mix(cfg_.seed ^ (0xc105edULL + phase_)));
    const auto perm = rng.permutation(closed_kinds_.size());
    std::vector<JobKind> shuffled;
    for (std::size_t i : perm) shuffled.push_back(closed_kinds_[i]);
    closed_kinds_ = std::move(shuffled);
    closed_left_ = spec.jobs;
    for (std::size_t i = 0; i < cfg_.service_workers && closed_left_ > 0; ++i) {
      submit_next_closed();
    }
  }

  void submit_next_closed() {
    const JobKind kind = closed_kinds_[closed_kinds_.size() - closed_left_];
    closed_left_--;
    closed_active_++;
    submit(new_job(kind, true));
  }

  void submit(std::size_t j) {
    JobRecord& job = jobs_[j];
    if (job.kind == JobKind::kDistill) {
      send(control_, net::SubmitDistillRequest{"abr", job.distill}.encode(),
           {Expect::kSubmit, j});
    } else {
      send(control_,
           net::SubmitInterpretRequest{"routing", job.interpret}.encode(),
           {Expect::kSubmit, j});
    }
    job.submit_ns = now_ns();
    state_[j] = JobState::kSubmitted;
  }

  void finish_job(std::size_t j, bool ok) {
    state_[j] = ok ? JobState::kFinished : JobState::kFailed;
    if (j == lane_) {
      lane_ = kNone;
      if (!lane_queue_.empty()) {
        lane_hold_until_ = now_ns() + static_cast<std::int64_t>(
                                          lane_rng_.uniform() * kLaneHoldNs);
      }
    }
    if (jobs_[j].closed) {
      closed_active_--;
      if (closed_left_ > 0) {
        submit_next_closed();
      } else if (closed_active_ == 0) {
        closed_end_ = now_ns();
      }
    }
  }

  // Every millisecond: poll each live job once, and watch the tree list
  // while the lane's distill waits for its deploy.
  void tick() {
    for (std::size_t j = phase_first_job_; j < jobs_.size(); ++j) {
      if (state_[j] == JobState::kSubmitted && jobs_[j].id != 0 &&
          !poll_in_flight_[j]) {
        poll_in_flight_[j] = true;
        send(control_, net::PollRequest{jobs_[j].id}.encode(),
             {Expect::kPoll, j});
      }
    }
    if (lane_ != kNone && state_[lane_] == JobState::kAwaitDeploy &&
        !watch_in_flight_) {
      watch_in_flight_ = true;
      send(control_, net::ListTreesRequest{}.encode(),
           {Expect::kDeployWatch, lane_});
    }
  }

  void on_control(const Pending& p, const net::Frame& frame,
                  std::int64_t now) {
    using net::MsgType;
    if (frame.type == MsgType::kBusy) {
      res_.busy++;
      if (p.job != kNone) finish_job(p.job, false);
      return;
    }
    if (frame.type == MsgType::kError) {
      res_.errors++;
      if (p.expect == Expect::kDeployWatch ||
          p.expect == Expect::kSettleWatch) {
        watch_in_flight_ = false;
      }
      if (p.job != kNone) {
        poll_in_flight_[p.job] = false;
        finish_job(p.job, false);
      }
      return;
    }
    switch (p.expect) {
      case Expect::kSubmit:
        jobs_[p.job].id = net::SubmittedReply::decode(frame).job;
        return;
      case Expect::kPoll: {
        poll_in_flight_[p.job] = false;
        if (state_[p.job] != JobState::kSubmitted) return;
        const auto st = net::JobStatusReply::decode(frame);
        const auto status = static_cast<metis::serve::JobStatus>(st.status);
        JobRecord& job = jobs_[p.job];
        if (status == metis::serve::JobStatus::kQueued) return;
        if (job.running_ns < 0) job.running_ns = now;
        if (status == metis::serve::JobStatus::kRunning) return;
        if (status != metis::serve::JobStatus::kDone) {
          res_.errors++;
          finish_job(p.job, false);
          return;
        }
        job.done_ns = now;
        state_[p.job] = JobState::kDone;
        send(control_, net::ResultRequest{job.id}.encode(),
             {Expect::kResult, p.job});
        return;
      }
      case Expect::kResult: {
        JobRecord& job = jobs_[p.job];
        job.result_ns = now;
        if (job.kind == JobKind::kInterpret) {
          job.ranking = net::InterpretResultReply::decode(frame);
          finish_job(p.job, true);
          return;
        }
        job.tree_text = net::DistillResultReply::decode(frame).tree_text;
        if (job.closed) {
          finish_job(p.job, true);
        } else {
          job.version = abr_version_ + 1;
          state_[p.job] = JobState::kAwaitDeploy;
        }
        return;
      }
      case Expect::kSettleWatch:
        watch_in_flight_ = false;
        settled_version_ = abr_version_of(net::TreeListReply::decode(frame));
        return;
      case Expect::kDeployWatch: {
        watch_in_flight_ = false;
        JobRecord& job = jobs_[p.job];
        const std::uint64_t v =
            abr_version_of(net::TreeListReply::decode(frame));
        if (v < job.version) return;  // not deployed yet
        if (v != job.version) {
          res_.version_mismatches++;
          finish_job(p.job, false);
          return;
        }
        job.visible_ns = now;
        abr_trees_[v] = compile(job.tree_text);
        state_[p.job] = JobState::kProbing;
        send(control_, net::OpenSessionRequest{"abr"}.encode(),
             {Expect::kProbeOpen, p.job});
        send(control_, net::ListTreesRequest{}.encode(),
             {Expect::kProbePin, p.job});
        return;
      }
      case Expect::kProbeOpen:
        probe_session_ = net::SessionOpenedReply::decode(frame).session;
        return;
      case Expect::kProbePin: {
        JobRecord& job = jobs_[p.job];
        if (abr_version_of(net::TreeListReply::decode(frame)) != job.version) {
          res_.version_mismatches++;
          finish_job(p.job, false);
          return;
        }
        const std::size_t row =
            mix(cfg_.seed ^ (p.job << 8)) % cfg_.features->size();
        net::QueryRequest q;
        q.session = probe_session_;
        q.seq = p.job;
        q.features = (*cfg_.features)[row];
        send(control_, q.encode(), {Expect::kProbeQuery, p.job, p.job, row});
        res_.probes++;
        return;
      }
      case Expect::kProbeQuery: {
        JobRecord& job = jobs_[p.job];
        const auto reply = net::DecisionReply::decode(frame);
        res_.decisions_received++;
        res_.decisions_checked++;
        const FlatTree& tree = *abr_trees_.at(job.version);
        if (reply.seq != p.seq ||
            !same_bits(tree.predict((*cfg_.features)[p.slot]),
                       reply.decision)) {
          res_.decision_mismatches++;
        }
        job.decided_ns = now;
        abr_version_ = job.version;
        finish_job(p.job, true);
        if (cfg_.phases[phase_].query_abr) {
          for (auto& c : stream_) begin_reopen(*c);
        }
        return;
      }
      default:
        res_.errors++;
        return;
    }
  }

  void on_stream(Conn& conn, const Pending& p, const net::Frame& frame,
                 std::int64_t now) {
    if (frame.type == net::MsgType::kError ||
        frame.type == net::MsgType::kBusy) {
      res_.errors++;
      if (p.expect == Expect::kQuery) q_recv_++;
      if (p.expect == Expect::kStreamOpen) conn.opening--;
      return;
    }
    switch (p.expect) {
      case Expect::kQuery:
        on_decision(conn, p, frame, now);
        return;
      case Expect::kStreamOpen: {
        const std::uint64_t id = net::SessionOpenedReply::decode(frame).session;
        conn.sessions[p.slot] = id;
        conn.session_tree[id] = cfg_.known_trees.at(conn.opening_names[p.slot]);
        conn.opening--;
        return;
      }
      case Expect::kReopenBefore:
        conn.reopen_before = abr_version_of(net::TreeListReply::decode(frame));
        return;
      case Expect::kReopenOpen:
        conn.reopen_sessions[p.slot] =
            net::SessionOpenedReply::decode(frame).session;
        return;
      case Expect::kReopenAfter: {
        const std::uint64_t after =
            abr_version_of(net::TreeListReply::decode(frame));
        if (after != conn.reopen_before) {  // a deploy raced the opens: redo
          begin_reopen(conn);
          return;
        }
        auto it = abr_trees_.find(after);
        if (it == abr_trees_.end()) {
          res_.version_mismatches++;
          conn.reopening = false;
          return;
        }
        for (const std::uint64_t id : conn.retired) conn.session_tree.erase(id);
        conn.retired = conn.sessions;
        for (std::size_t s = 0; s < conn.reopen_sessions.size(); ++s) {
          conn.sessions[s] = conn.reopen_sessions[s];
          conn.session_tree[conn.reopen_sessions[s]] = it->second.get();
        }
        conn.reopening = false;
        return;
      }
      default:
        res_.errors++;
        return;
    }
  }

  // ---- I/O -----------------------------------------------------------------

  void send(Conn& conn, const net::Frame& frame, Pending pending) {
    net::encode_frame(frame, conn.out);
    conn.pending.push_back(pending);
  }

  void flush(Conn& conn) {
    while (conn.out_off < conn.out.size()) {
      const ssize_t n =
          ::send(conn.fd, conn.out.data() + conn.out_off,
                 conn.out.size() - conn.out_off, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        res_.torn++;
        res_.fatal = "send failed: connection torn";
        return;
      }
      conn.out_off += static_cast<std::size_t>(n);
    }
    conn.out.clear();
    conn.out_off = 0;
  }

  // Flushes every connection, waits for input until `wake_ns` at the
  // latest (or only polls, when `spin`), and dispatches every complete
  // reply.
  void pump(std::int64_t wake_ns, bool spin) {
    std::vector<Conn*> all;
    for (auto& c : stream_) all.push_back(c.get());
    all.push_back(&control_);
    pollfd pfds[16];
    for (std::size_t i = 0; i < all.size(); ++i) {
      flush(*all[i]);
      pfds[i].fd = all[i]->fd;
      pfds[i].events = static_cast<short>(
          POLLIN | (all[i]->out_off < all[i]->out.size() ? POLLOUT : 0));
      pfds[i].revents = 0;
    }
    const std::int64_t wait =
        spin ? 0 : std::max<std::int64_t>(0, wake_ns - now_ns());
    timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                static_cast<long>(wait % 1'000'000'000)};
    const int ready = ::ppoll(pfds, all.size(), &ts, nullptr);
    if (ready <= 0) return;
    std::uint8_t buf[65536];
    for (std::size_t i = 0; i < all.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& conn = *all[i];
      for (;;) {
        const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), MSG_DONTWAIT);
        if (n > 0) {
          conn.decoder.feed(buf, static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        res_.torn++;
        res_.fatal = "connection closed by the server";
        return;
      }
      const std::int64_t now = now_ns();
      net::Frame frame;
      try {
        while (conn.decoder.next(frame)) {
          if (conn.pending.empty()) {
            res_.errors++;
            continue;
          }
          const Pending p = conn.pending.front();
          conn.pending.pop_front();
          if (&conn == &control_) {
            on_control(p, frame, now);
          } else {
            on_stream(conn, p, frame, now);
          }
        }
      } catch (const net::WireError& e) {
        res_.errors++;
        res_.fatal = std::string("malformed reply: ") + e.what();
        return;
      }
    }
  }

  static std::unique_ptr<FlatTree> compile(const std::string& text) {
    return std::make_unique<FlatTree>(
        FlatTree::compile(metis::tree::deserialize(text)));
  }

  const GeneratorConfig& cfg_;
  GeneratorResult res_;
  std::vector<std::unique_ptr<Conn>> stream_;
  Conn control_;

  std::size_t phase_ = 0;
  std::int64_t phase_t0_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t q_base_ = 0;
  std::uint64_t q_sent_ = 0, q_recv_ = 0, q_total_ = 0;
  double q_period_ns_ = 0.0;
  std::uint64_t window_queries_ = 1;
  std::array<Histogram, kWindowRing> windows_;
  std::array<std::uint64_t, kWindowRing> window_id_{};  // window + 1; 0 = free
  std::vector<std::int64_t> sat_windows_;  // end of each full window

  std::vector<JobRecord> jobs_;
  std::vector<JobState> state_;
  std::vector<bool> poll_in_flight_;
  std::size_t phase_first_job_ = 0;
  std::vector<std::pair<std::int64_t, JobKind>> arrivals_;
  std::size_t next_arrival_ = 0;
  std::deque<std::size_t> lane_queue_;
  std::size_t lane_ = kNone;
  std::int64_t lane_hold_until_ = 0;  // a waiting distill's earliest submit
  metis::Rng lane_rng_;
  bool watch_in_flight_ = false;
  std::uint64_t probe_session_ = 0;
  std::vector<JobKind> closed_kinds_;
  std::size_t closed_left_ = 0, closed_active_ = 0;
  std::int64_t closed_end_ = 0;
  std::size_t closed_jobs_ = 0;     // over every closed job phase
  std::int64_t closed_ns_ = 0;
  std::uint64_t settled_version_ = 0;

  std::uint64_t abr_version_ = 0;
  std::map<std::uint64_t, std::unique_ptr<FlatTree>> abr_trees_;
};

}  // namespace

GeneratorResult run_generator(const GeneratorConfig& config) {
  try {
    Generator generator(config);
    return generator.run();
  } catch (const std::exception& e) {
    GeneratorResult r;
    r.fatal = e.what();
    return r;
  }
}

}  // namespace metisbench
