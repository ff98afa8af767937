// daemon_loopback — the socket service. One thread runs net::Server; this
// thread is the load generator, driving 64 sessions over 127.0.0.1 with
// the public codec (net::EncodeFrame / net::FrameDecoder). Every session
// alternates a Delta renegotiation (answered by a Grant: the control path
// through PortController) with a 1200-byte Data chunk (answered by a
// DataAck: the metering path).
//
// The run alternates two phases in one-second cycles, so that each samples
// the host across the whole run rather than during one stretch of it. The
// open loop: requests arrive as a seeded Poisson stream at a fixed rate,
// each on a uniformly drawn session, and each reply is timed from the
// moment its request was due, so a stall also delays the requests queued
// behind it. The generator busy-polls rather than sleep until a due time:
// on a loaded virtual machine a sleeping thread wakes milliseconds late,
// which would charge the generator's lateness to the server. The closed
// loop runs on 16 sessions, each sending its next request as soon as the
// previous reply arrives: its completion rate is the saturation
// throughput. Outstanding replies are drained at the end of every phase.
//
// The server and the generator share one CPU. Across two virtual CPUs,
// every request woke a halted CPU of the other thread, and how long that
// took was set by the host's scheduler: the closed-loop rate of
// back-to-back runs differed by up to 2x. On one CPU the two hand it to
// each other, and the spinning generator yields it on every turn.
//
// A request fails when its reply is missing, malformed, a Deny or kError,
// carries rate bits other than the generator's expected grant, or (open
// loop only) arrives after the latency limit. All but the last also make
// the run incorrect.
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using rcbr::net::Frame;
using rcbr::net::FrameType;

constexpr std::size_t kSessions = 64;
constexpr std::size_t kClosedSessions = 16;
/// Open-loop offered load, requests per second (half of them Delta
/// renegotiations, half Data chunks). Well below saturation even when the
/// host is slow: at 20 000/s a slowed server (~45 000 requests/s closed
/// loop) queued replies past the latency limit.
constexpr double kOpenRatePerS = 5000;
/// One cycle of the run is an open-loop phase of kOpenShare of it, then a
/// closed-loop phase.
constexpr double kCycleS = 1.0;
constexpr double kOpenShare = 0.4;
constexpr double kBaseBps = 16e6;
constexpr double kDeltaBps = 4e6;  // base and base + delta are exact
constexpr std::uint32_t kSlotUs = 1000;
constexpr std::size_t kDataBytes = 1200;
/// An open-loop reply later than this (from its due time) is a failed
/// request. The closed loop has no latency limit: it measures throughput,
/// and one host stall there delays every in-flight request at once.
constexpr std::int64_t kLatencyLimitNs = 100'000'000;
/// A reply still missing this long after the last request is lost.
constexpr std::int64_t kGiveUpNs = 1'000'000'000;
// Set-ups (each torn down again but the last): at least 5, and until
// 0.2 s have been spent, for a steady median.
constexpr std::size_t kMinSetupReps = 5;
constexpr std::size_t kMaxSetupReps = 25;
constexpr double kMinSetupSeconds = 0.2;
constexpr std::uint64_t kScheduleStream = 4;
constexpr std::uint32_t kNoSpan = SpanLog::kNoParent;

/// One open-loop arrival: when it is due (ns after the phase starts) and
/// which session it goes to.
struct Arrival {
  std::int64_t due_ns;
  std::uint32_t session;
};

std::vector<Arrival> MakeSchedule(std::uint64_t seed, double seconds) {
  rcbr::Rng rng = rcbr::Rng::Stream(seed, kScheduleStream);
  std::vector<Arrival> out;
  out.reserve(static_cast<std::size_t>(kOpenRatePerS * seconds * 1.1) + 16);
  double t = 0;
  for (;;) {
    t += rng.Exponential(1.0 / kOpenRatePerS);
    if (t >= seconds) break;
    out.push_back({static_cast<std::int64_t>(t * 1e9),
                   static_cast<std::uint32_t>(rng.UniformInt(
                       0, static_cast<std::int64_t>(kSessions) - 1))});
  }
  return out;
}

/// net::Server on its own thread; the destructor stops and joins it.
class ServerThread {
 public:
  explicit ServerThread(const rcbr::net::ServerOptions& options)
      : server_(options) {}
  ~ServerThread() { StopAndJoin(); }
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;

  bool Start() {
    if (!server_.Start()) return false;
    thread_ = std::thread([this] {
      try {
        server_.Serve();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "server thread failed: %s\n", e.what());
        failed_ = true;
      }
    });
    return true;
  }
  void StopAndJoin() {
    if (!thread_.joinable()) return;
    server_.Stop();
    thread_.join();
  }
  /// CPU seconds the Serve() thread has used so far.
  double CpuSeconds() {
    clockid_t cid{};
    if (pthread_getcpuclockid(thread_.native_handle(), &cid) != 0) return 0;
    timespec ts{};
    clock_gettime(cid, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
  }
  /// Post-run inspection; valid after StopAndJoin().
  const rcbr::net::Server& server() const { return server_; }
  std::uint16_t port() const { return server_.port(); }
  bool failed() const { return failed_; }

 private:
  rcbr::net::Server server_;
  bool failed_ = false;  // written by the thread, read after join
  std::thread thread_;
};

/// Confines the calling thread, and every thread it starts while this is
/// in scope, to one CPU of those it may use (the last); restores the
/// original set when it goes out of scope.
class OneCpu {
 public:
  OneCpu() {
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) cpu_ = c;
    }
    if (cpu_ < 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu_, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) cpu_ = -1;
  }
  ~OneCpu() {
    if (cpu_ >= 0) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;

  /// The CPU, or -1 when the affinity could not be set.
  int cpu() const { return cpu_; }

 private:
  cpu_set_t saved_{};
  int cpu_ = -1;
};

/// A request awaiting its reply.
struct Pending {
  std::int64_t due_ns;
  std::int64_t sent_ns;
  FrameType expect;
  double expected_rate;          // kWelcome / kGrant / kStateReport
  std::uint64_t expected_total;  // kDataAck
  std::uint32_t span;            // request span of the traced run
};

struct Session {
  rcbr::net::TcpStream stream;
  rcbr::net::FrameDecoder decoder;
  std::uint64_t vci = 0;
  std::uint64_t next_seq = 1;
  std::uint32_t slot = 0;
  bool delta_next = true;
  double granted_bps = kBaseBps;  // after every request sent so far
  std::uint64_t data_total = 0;
  std::deque<Pending> pending;
  bool dead = false;
};

/// Outcome tallies of one phase.
struct PhaseStats {
  std::int64_t sent = 0;
  std::int64_t ok = 0;
  std::int64_t failed = 0;  // wrong or late
  std::int64_t wrong = 0;   // missing, undecodable or not the expected reply
  std::int64_t grants = 0;
  std::vector<double> grant_rtt_us;
  std::vector<double> late_us;
  std::vector<double> encode_ns;
  std::vector<double> decode_ns;
  /// The open loop: keep per-request samples (a fixed-size schedule, so
  /// memory does not grow with closed-loop throughput) and apply the
  /// latency limit.
  bool open_loop = true;
};

/// The load generator: the client ends of every session, all driven from
/// the calling thread.
class Generator {
 public:
  Generator() {
    data_frame_.type = FrameType::kData;
    data_frame_.data.assign(kDataBytes, 0x5a);
  }

  /// Records request spans from now on.
  void set_log(SpanLog* log) { log_ = log; }

  /// Connects every session and completes its Hello/Welcome handshake.
  bool Connect(std::uint16_t port, PhaseStats& stats) {
    sessions_ = std::vector<Session>(kSessions);
    for (std::size_t i = 0; i < kSessions; ++i) {
      Session& s = sessions_[i];
      auto stream = rcbr::net::TcpStream::Connect("127.0.0.1", port, 2000);
      if (!stream) return false;
      s.stream = std::move(*stream);
      s.vci = i + 1;
      Frame hello;
      hello.type = FrameType::kHello;
      hello.vci = s.vci;
      hello.rate_bps = kBaseBps;
      hello.slot_us = kSlotUs;
      Send(i, hello, FrameType::kWelcome, kBaseBps, 0, NowNs(), stats);
      Drain(stats);
    }
    return true;
  }

  /// Sends the session's next request of the Delta/Data alternation.
  void SendNext(std::size_t i, std::int64_t due_ns, PhaseStats& stats) {
    Session& s = sessions_[i];
    if (!s.delta_next) {
      s.delta_next = true;
      s.data_total += kDataBytes;
      Send(i, data_frame_, FrameType::kDataAck, 0, s.data_total, due_ns,
           stats);
      return;
    }
    s.delta_next = false;
    Frame delta;
    delta.type = FrameType::kDelta;
    delta.delta_bps = s.granted_bps == kBaseBps ? kDeltaBps : -kDeltaBps;
    s.granted_bps += delta.delta_bps;
    Send(i, delta, FrameType::kGrant, s.granted_bps, 0, due_ns, stats);
  }

  /// Sends a StateQuery (the reply must carry the expected grant's bits)
  /// or a Bye.
  void SendControl(std::size_t i, FrameType type, PhaseStats& stats) {
    Frame f;
    f.type = type;
    Send(i, f,
         type == FrameType::kBye ? FrameType::kByeAck
                                 : FrameType::kStateReport,
         sessions_[i].granted_bps, 0, NowNs(), stats);
  }

  /// Waits up to `timeout_ns` for replies and checks each one that
  /// arrives; `on_reply(session)` runs after each.
  template <typename OnReply>
  void Poll(std::int64_t timeout_ns, PhaseStats& stats, OnReply on_reply);

  /// Waits for every outstanding reply; what is still missing after
  /// kGiveUpNs counts as lost.
  void Drain(PhaseStats& stats) {
    const std::int64_t give_up = NowNs() + kGiveUpNs;
    while (Outstanding() > 0 && NowNs() < give_up) {
      Poll(give_up - NowNs(), stats, [](std::size_t) {});
    }
    for (Session& s : sessions_) {
      const auto lost = static_cast<std::int64_t>(s.pending.size());
      stats.failed += lost;
      stats.wrong += lost;
      s.pending.clear();
    }
  }

  std::size_t Outstanding() const {
    std::size_t n = 0;
    for (const Session& s : sessions_) n += s.pending.size();
    return n;
  }
  std::int64_t errors_seen() const { return errors_seen_; }
  /// Seconds spent encoding, sending, receiving and decoding, as opposed
  /// to waiting for a due time or a reply.
  double work_seconds() const { return 1e-9 * static_cast<double>(work_ns_); }

 private:
  void Send(std::size_t i, Frame& frame, FrameType expect,
            double expected_rate, std::uint64_t expected_total,
            std::int64_t due_ns, PhaseStats& stats);
  void OnFrame(Session& s, const Frame& frame, std::int64_t recv_ns,
               PhaseStats& stats);

  SpanLog* log_ = nullptr;
  std::vector<Session> sessions_;
  Frame data_frame_;
  std::vector<std::uint8_t> out_;
  std::vector<std::uint8_t> in_ = std::vector<std::uint8_t>(1 << 16);
  std::int64_t errors_seen_ = 0;
  std::int64_t work_ns_ = 0;
};

void Generator::Send(std::size_t i, Frame& frame, FrameType expect,
                     double expected_rate, std::uint64_t expected_total,
                     std::int64_t due_ns, PhaseStats& stats) {
  Session& s = sessions_[i];
  ++stats.sent;
  if (s.dead) {
    ++stats.failed;
    ++stats.wrong;
    return;
  }
  frame.slot = s.slot++;
  frame.seq = s.next_seq++;
  const std::int64_t t0 = NowNs();
  out_.clear();
  rcbr::net::EncodeFrame(frame, out_);
  const std::int64_t t1 = NowNs();
  const bool sent = s.stream.SendAll(out_.data(), out_.size());
  const std::int64_t t2 = NowNs();
  work_ns_ += t2 - t0;
  if (stats.open_loop) {
    stats.late_us.push_back(1e-3 * static_cast<double>(t0 - due_ns));
    stats.encode_ns.push_back(static_cast<double>(t1 - t0));
  }
  if (!sent) {
    s.dead = true;
    ++stats.failed;
    ++stats.wrong;
    return;
  }
  std::uint32_t span = kNoSpan;
  if (log_ != nullptr) {
    span = log_->Add("net.request", due_ns, due_ns, SpanLog::kNoParent, s.vci);
    log_->Add("net.encode", t0, t1, span, s.vci);
    log_->Add("net.send", t1, t2, span, s.vci);
  }
  s.pending.push_back({due_ns, t2, expect, expected_rate, expected_total,
                       span});
}

template <typename OnReply>
void Generator::Poll(std::int64_t timeout_ns, PhaseStats& stats,
                     OnReply on_reply) {
  std::vector<pollfd> pfds;
  std::vector<std::size_t> owner;
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    if (!sessions_[i].pending.empty() && !sessions_[i].dead) {
      pfds.push_back({sessions_[i].stream.fd(), POLLIN, 0});
      owner.push_back(i);
    }
  }
  if (timeout_ns < 0) timeout_ns = 0;
  timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
              static_cast<long>(timeout_ns % 1'000'000'000)};
  if (pfds.empty()) {
    nanosleep(&ts, nullptr);
    return;
  }
  if (ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) return;
  const std::int64_t work0 = NowNs();
  for (std::size_t k = 0; k < pfds.size(); ++k) {
    if ((pfds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    const std::size_t i = owner[k];
    Session& s = sessions_[i];
    const rcbr::net::RecvResult r =
        s.stream.RecvSome(in_.data(), in_.size(), 0);
    const std::int64_t recv_ns = NowNs();
    if (r.status == rcbr::net::RecvStatus::kTimeout) continue;
    if (r.status != rcbr::net::RecvStatus::kData) {
      std::fprintf(stderr, "session %llu: connection lost\n",
                   static_cast<unsigned long long>(s.vci));
      s.dead = true;
      continue;
    }
    s.decoder.Feed(in_.data(), r.bytes);
    for (;;) {
      Frame frame;
      const std::int64_t d0 = NowNs();
      const rcbr::net::DecodeStatus status = s.decoder.Next(frame);
      const std::int64_t d1 = NowNs();
      if (status == rcbr::net::DecodeStatus::kNeedMore) break;
      if (status == rcbr::net::DecodeStatus::kError) {
        std::fprintf(stderr, "session %llu: undecodable reply: %s\n",
                     static_cast<unsigned long long>(s.vci),
                     s.decoder.error_message().c_str());
        ++errors_seen_;
        s.dead = true;
        break;
      }
      if (stats.open_loop) {
        stats.decode_ns.push_back(static_cast<double>(d1 - d0));
      }
      if (log_ != nullptr && !s.pending.empty() &&
          s.pending.front().span != kNoSpan) {
        const Pending& p = s.pending.front();
        log_->Add("net.reply_wait", p.sent_ns, recv_ns, p.span, s.vci);
        log_->Add("net.decode", d0, d1, p.span, s.vci);
        log_->SetEnd(p.span, d1);
      }
      OnFrame(s, frame, recv_ns, stats);
      on_reply(i);
    }
  }
  work_ns_ += NowNs() - work0;
}

void Generator::OnFrame(Session& s, const Frame& frame, std::int64_t recv_ns,
                        PhaseStats& stats) {
  if (frame.type == FrameType::kError) {
    ++errors_seen_;
    std::fprintf(stderr, "session %llu: kError %s\n",
                 static_cast<unsigned long long>(s.vci),
                 rcbr::net::WireErrorName(
                     static_cast<rcbr::net::WireError>(frame.error_code)));
  }
  if (s.pending.empty()) {
    ++stats.wrong;  // a reply nobody asked for
    return;
  }
  const Pending p = s.pending.front();
  s.pending.pop_front();
  bool ok = frame.type == p.expect;
  if (ok && (p.expect == FrameType::kWelcome ||
             p.expect == FrameType::kGrant ||
             p.expect == FrameType::kStateReport)) {
    ok = std::memcmp(&frame.rate_bps, &p.expected_rate, sizeof(double)) == 0 &&
         frame.rung == 0;
  }
  if (ok && p.expect == FrameType::kWelcome) ok = frame.accepted;
  if (ok && p.expect == FrameType::kStateReport) ok = frame.known;
  if (ok && p.expect == FrameType::kDataAck) {
    ok = frame.total_bytes == p.expected_total;
  }
  if (!ok) {
    std::fprintf(stderr,
                 "session %llu: expected %s, got %s (rate %.17g, want "
                 "%.17g)\n",
                 static_cast<unsigned long long>(s.vci),
                 rcbr::net::FrameTypeName(p.expect),
                 rcbr::net::FrameTypeName(frame.type), frame.rate_bps,
                 p.expected_rate);
  }
  const std::int64_t rtt_ns = recv_ns - p.due_ns;
  if (!ok) ++stats.wrong;
  if (stats.open_loop && rtt_ns > kLatencyLimitNs) ok = false;  // late
  ++(ok ? stats.ok : stats.failed);
  if (p.expect == FrameType::kGrant) {
    ++stats.grants;
    if (stats.open_loop) {
      stats.grant_rtt_us.push_back(1e-3 * static_cast<double>(rtt_ns));
    }
  }
}

/// Ends a set-up: StateQuery and Bye on every session, then stops the
/// server and checks it released every reservation.
void TearDown(Generator& gen, ServerThread& daemon, PhaseStats& stats,
              Report& report) {
  for (std::size_t i = 0; i < kSessions; ++i) {
    gen.SendControl(i, FrameType::kStateQuery, stats);
  }
  gen.Drain(stats);
  for (std::size_t i = 0; i < kSessions; ++i) {
    gen.SendControl(i, FrameType::kBye, stats);
  }
  gen.Drain(stats);
  daemon.StopAndJoin();
  report.Check(!daemon.failed(), "server thread ran without an exception");
  report.Check(daemon.server().utilization_bps() == 0,
               "utilization_bps() is 0 after every session's Bye");
  report.Check(daemon.server().stats().protocol_errors == 0 &&
                   gen.errors_seen() == 0,
               "no kError and no protocol error on either side");
}

}  // namespace

void RunDaemonLoopback(const Args& args, Report& report) {
  const auto cycles = static_cast<std::size_t>(
      std::max(1.0, std::round(args.seconds / kCycleS)));
  const double cycle_s = args.seconds / static_cast<double>(cycles);
  const auto open_ns = static_cast<std::int64_t>(kOpenShare * cycle_s * 1e9);
  const double closed_s = (1.0 - kOpenShare) * cycle_s;
  const double open_s =
      1e-9 * static_cast<double>(open_ns) * static_cast<double>(cycles);

  rcbr::net::ServerOptions options;
  // Room for every session at its higher rate: no increase is denied.
  options.capacity_bps = 2.0 * kSessions * (kBaseBps + kDeltaBps);
  // Sessions idle through a closed-loop phase must not be presumed dead.
  options.client_deadline_ms = 600'000;

  const OneCpu cpu;
  if (cpu.cpu() < 0) std::fprintf(stderr, "could not pin to one CPU\n");

  // Set-up (schedule, bind, connect, Hello) several times; all but the
  // last are torn down again, which exercises the Bye checks too.
  PhaseStats control;
  control.open_loop = false;
  std::vector<double> setup_s;
  std::vector<Arrival> schedule;
  std::unique_ptr<ServerThread> daemon;
  std::unique_ptr<Generator> gen;
  double setup_total_s = 0;
  while (setup_s.size() < kMinSetupReps ||
         (setup_total_s < kMinSetupSeconds && setup_s.size() < kMaxSetupReps)) {
    if (gen) TearDown(*gen, *daemon, control, report);
    gen.reset();
    daemon.reset();
    const double t0 = Now();
    schedule = MakeSchedule(args.seed, open_s);
    daemon = std::make_unique<ServerThread>(options);
    if (!daemon->Start()) throw std::runtime_error("cannot bind 127.0.0.1");
    gen = std::make_unique<Generator>();
    if (!gen->Connect(daemon->port(), control)) {
      throw std::runtime_error("cannot connect to the server");
    }
    setup_s.push_back(Now() - t0);
    setup_total_s += setup_s.back();
  }

  SpanLog log;
  if (args.trace) log.Reserve(5 * schedule.size() + 1024);

  PhaseStats open;
  PhaseStats closed;
  closed.open_loop = false;
  double open_wall = 0;
  double open_work = 0;
  double closed_wall = 0;
  double server_cpu = 0;
  std::vector<double> cycle_grants_per_s;
  std::size_t next = 0;
  for (std::size_t c = 0; c < cycles; ++c) {
    // Open loop: the schedule's arrivals due in this cycle's window, the
    // window's start mapped to 1 ms from now.
    if (args.trace) gen->set_log(&log);
    const double work0 = gen->work_seconds();
    const double wall0 = Now();
    const std::int64_t window_end = open_ns * static_cast<std::int64_t>(c + 1);
    const std::int64_t base_ns = NowNs() + 1'000'000 - (window_end - open_ns);
    while (next < schedule.size() && schedule[next].due_ns < window_end) {
      const std::int64_t now = NowNs();
      while (next < schedule.size() && schedule[next].due_ns < window_end &&
             base_ns + schedule[next].due_ns <= now) {
        gen->SendNext(schedule[next].session, base_ns + schedule[next].due_ns,
                      open);
        ++next;
      }
      gen->Poll(0, open, [](std::size_t) {});
      sched_yield();
    }
    gen->Drain(open);
    open_wall += Now() - wall0;
    open_work += gen->work_seconds() - work0;
    gen->set_log(nullptr);

    // Closed loop on the first sessions.
    const std::int64_t grants0 = closed.grants;
    const double cpu0 = daemon->CpuSeconds();
    const double closed0 = Now();
    const std::int64_t closed_end =
        NowNs() + static_cast<std::int64_t>(closed_s * 1e9);
    for (std::size_t i = 0; i < kClosedSessions; ++i) {
      gen->SendNext(i, NowNs(), closed);
    }
    while (NowNs() < closed_end) {
      gen->Poll(closed_end - NowNs(), closed, [&](std::size_t i) {
        if (NowNs() < closed_end) gen->SendNext(i, NowNs(), closed);
      });
    }
    const double wall = Now() - closed0;
    closed_wall += wall;
    server_cpu += daemon->CpuSeconds() - cpu0;
    cycle_grants_per_s.push_back(
        static_cast<double>(closed.grants - grants0) / wall);
    gen->Drain(closed);
  }
  const double gen_busy = open_work / open_wall;
  const double server_busy = server_cpu / closed_wall;
  // The median cycle, so that a few seconds of a busy host move it less
  // than they would move the whole run's mean.
  const double grants_per_s = Median(cycle_grants_per_s);

  TearDown(*gen, *daemon, control, report);
  const rcbr::net::ServerStats& ss = daemon->server().stats();
  report.Check(ss.denies == 0 && ss.admit_denies == 0,
               "capacity covers every request: no Deny");
  report.Check(ss.rate_violations == 0, "no metering violation");

  for (const PhaseStats* p : {&control, &open, &closed}) {
    report.Attempts(p->sent, p->failed);
  }
  report.Check(open.wrong == 0 && closed.wrong == 0 && control.wrong == 0,
               "every request got exactly its expected reply");
  report.Note("cycles", static_cast<double>(cycles), "open+closed");
  report.Note("pinned_cpu", cpu.cpu(), "cpu");
  report.Note("late_replies",
              static_cast<double>(open.failed + closed.failed +
                                  control.failed - open.wrong -
                                  closed.wrong - control.wrong),
              "replies");

  const double p50 = Median(open.grant_rtt_us);
  const double p99 = Quantile(open.grant_rtt_us, 0.99);
  report.Note("open_loop_requests_per_s",
              static_cast<double>(open.sent) / open_wall, "1/s");
  report.Note("grant_rtt_p50_us", p50, "us");
  report.Note("grant_rtt_p99_us", p99, "us");
  report.Note("grant_rtt_samples", static_cast<double>(open.grant_rtt_us.size()),
              "replies");
  report.Note("gen_late_p99_us", Quantile(open.late_us, 0.99), "us");
  report.Note("grants_per_s", grants_per_s, "1/s");
  report.Note("closed_loop_requests_per_s",
              static_cast<double>(closed.ok + closed.failed) / closed_wall,
              "1/s");
  report.Note("server_busy_frac_closed", server_busy, "ratio");

  if (!args.trace) {
    report.Metric("setup_s", Median(setup_s), "s");
    report.Metric("peak_rss_mb", PeakRssMb(), "MiB");
    report.Metric("throughput_per_s", grants_per_s, "1/s");
    report.Metric("latency_p50_ms", 1e-3 * p50, "ms");
    return;
  }
  LayerMetrics m;
  m.Set("net.encode_ns", Median(open.encode_ns));
  m.Set("net.decode_ns", Median(open.decode_ns));
  m.Set("net.server.busy_frac", server_busy);
  m.Set("net.server.frames_in", static_cast<double>(ss.frames_in));
  m.Set("net.server.grants", static_cast<double>(ss.grants));
  m.Set("net.server.protocol_errors", static_cast<double>(ss.protocol_errors));
  m.Set("net.gen.late_p99_us", Quantile(open.late_us, 0.99));
  m.Set("net.gen.busy_frac", gen_busy);
  m.Set("net.grant_rtt_p99_us", p99);
  // Requests overlap in the open loop, so the table splits the summed
  // request time rather than the wall.
  const std::vector<SpanLog::LayerTime> layers = log.Summarize();
  double request_s = 0;
  for (const SpanLog::LayerTime& row : layers) {
    if (row.name == "net.request") request_s = row.total_s;
  }
  PrintWhereTimeWent(args.workload, layers, request_s,
                     "the summed open-loop request time");
  std::printf("  ratios: server busy %.4f of the closed loop, generator "
              "busy %.4f of the open loop, generator late p99 %.2f us\n",
              server_busy, gen_busy, Quantile(open.late_us, 0.99));
  WriteSpans(args, log, report);
  m.ReportTo(report);
}

}  // namespace perfbench
