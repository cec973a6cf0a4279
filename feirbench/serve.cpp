// The `serve` workload: feir_serve with three QoS tenants, driven over a
// unix socket by this process alone (one thread, one poll loop, three
// connections).  An open-loop phase sends a fixed request mix on a fixed
// schedule below capacity; a closed-loop phase then keeps one request in
// flight per connection to measure capacity.  Every result is checked after
// the timed phases against an in-process solve of the same request.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "campaign/executor.hpp"
#include "core/sharded_cg.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/session.hpp"
#include "service/shard.hpp"
#include "support/rng.hpp"

extern char** environ;

namespace feirbench {

using feir::index_t;

namespace {

constexpr int kConns = 3;            // connections == tenants
constexpr unsigned kWorkers = 2;     // server solve workers
constexpr int kCacheEntries = 3;     // per kind: two steady problems + one miss
constexpr double kOpenRate = 15.0;   // requests/s of the open-loop phase (~25% of capacity)
constexpr int kMissScales = 7;       // distinct absent problems, rotated
constexpr std::uint64_t kSeedPool = 8;  // DUE realisations per slot, rotated by round
constexpr std::uint64_t kPoolSeed = 0x5E4E;
constexpr int kOpenRounds = 8;       // open-loop rounds: the whole pool, once

/// One slot of the request round: a fixed request line (id added per send).
struct Slot {
  std::string body;     ///< the JSON request without its leading "{" and id
  std::string method;   ///< CG-family method, "" for bicgstab/gmres
  std::string family;   ///< cg | pcg | bicgstab | gmres | block_cg
  bool ranked = false;  ///< ranks: 2 with return_x
  bool miss = false;    ///< names a problem absent from the bounded cache
  int nrhs = 1;
};

/// The request round.  Small problems (scale 0.3), so the per-request layers
/// -- parse, admission, queue, dispatch, cache, event send -- weigh as much
/// as the kernels.
std::vector<Slot> make_slots(std::uint64_t seed, int round) {
  std::vector<Slot> s;
  auto add = [&](const std::string& op, const std::string& knobs, const char* method,
                 const char* family) {
    Slot sl;
    // A fixed pool of kSeedPool DUE realisations per slot; the run's seed
    // picks where in the pool the rotation starts.
    const std::uint64_t sd =
        feir::campaign::derive_job_seed(
            kPoolSeed, s.size() * kSeedPool + (static_cast<std::uint64_t>(round) + seed) % kSeedPool) %
        1000000007ULL;
    sl.body = "\"op\": \"" + op + "\", " + knobs + ", \"seed\": " + std::to_string(sd);
    sl.method = method;
    sl.family = family;
    s.push_back(sl);
  };
  const std::string e = "\"matrix\": \"ecology2\", \"scale\": 0.3";
  const std::string p = "\"matrix\": \"parabolic_fem\", \"scale\": 0.3";
  add("solve", e + ", \"solver\": \"cg\", \"method\": \"ideal\"", "ideal", "cg");
  add("solve", e + ", \"solver\": \"cg\", \"method\": \"feir\", \"mtbe_iters\": 30, \"stream\": true",
      "feir", "cg");
  add("solve", e + ", \"solver\": \"cg\", \"method\": \"afeir\", \"mtbe_iters\": 30", "afeir", "cg");
  add("solve", p + ", \"solver\": \"cg\", \"method\": \"ckpt\"", "ckpt", "cg");
  add("solve", p + ", \"solver\": \"cg\", \"method\": \"feir\", \"precond\": \"jacobi\", \"mtbe_iters\": 15",
      "feir", "cg");
  add("solve", e + ", \"solver\": \"pcg\", \"method\": \"afeir\", \"mtbe_iters\": 30, \"stream\": true",
      "afeir", "pcg");
  add("solve", p + ", \"solver\": \"pcg\", \"method\": \"ideal\"", "ideal", "pcg");
  add("solve", p + ", \"solver\": \"bicgstab\", \"mtbe_iters\": 15", "", "bicgstab");
  add("solve", p + ", \"solver\": \"gmres\"", "", "gmres");
  add("solve", e + ", \"method\": \"feir\", \"mtbe_iters\": 30, \"ranks\": 2, \"return_x\": true",
      "feir", "cg");
  s.back().ranked = true;
  add("solve", e + ", \"solver\": \"pcg\", \"method\": \"ckpt\"", "ckpt", "pcg");
  add("solve", e + ", \"solver\": \"bicgstab\", \"mtbe_iters\": 30", "", "bicgstab");
  add("solve_batch", p + ", \"method\": \"ckpt\", \"nrhs\": 4", "ckpt", "block_cg");
  s.back().nrhs = 4;
  // The miss slot: a consph scale no other request uses, rotated over
  // kMissScales values, so each round builds one problem and evicts one.
  char miss[128];
  std::snprintf(miss, sizeof miss, "\"matrix\": \"consph\", \"scale\": %.2f",
                0.2 + 0.01 * (round % kMissScales));
  add("solve", std::string(miss) + ", \"solver\": \"cg\", \"method\": \"ideal\"", "ideal", "cg");
  s.back().miss = true;
  add("solve", p + ", \"solver\": \"cg\", \"method\": \"afeir\", \"mtbe_iters\": 15", "afeir", "cg");
  // The run's seed also fixes the order of the slots within every round.
  feir::Rng rng(seed ^ 0x5E7E);
  for (std::size_t i = s.size(); i > 1; --i) std::swap(s[i - 1], s[static_cast<std::size_t>(rng() % i)]);
  return s;
}

/// Raw value of `"key": ` in a one-line JSON object ("" when absent):
/// the benchmark's own reader, not the program's parser.
std::string field(const std::string& line, const std::string& key, std::size_t from = 0) {
  const std::string pat = "\"" + key + "\": ";
  const std::size_t p = line.find(pat, from);
  if (p == std::string::npos) return "";
  std::size_t b = p + pat.size(), e = b;
  if (line[b] == '"') {
    e = line.find('"', b + 1);
    return e == std::string::npos ? "" : line.substr(b + 1, e - b - 1);
  }
  while (e < line.size() && line[e] != ',' && line[e] != '}' && line[e] != ']') ++e;
  return line.substr(b, e - b);
}

double num(const std::string& line, const std::string& key) {
  const std::string v = field(line, key);
  return v.empty() ? 0.0 : std::strtod(v.c_str(), nullptr);
}

struct Req {
  int slot = 0;
  int round = 0;
  int conn = 0;
  bool open_loop = false;
  std::string line;
  double due = 0.0, sent = 0.0, first = -1.0, done = -1.0;
  std::string result;  ///< the terminal event line
};

struct Conn {
  int fd = -1;
  std::string in;
};

class Server {
 public:
  Server(const std::string& bin, const std::string& sock) {
    const std::string workers = std::to_string(kWorkers);
    const std::string cache = std::to_string(kCacheEntries);
    std::vector<std::string> args = {bin,         "--unix",          sock,
                                     "--workers", workers,           "--cache-entries",
                                     cache,       "--queue-depth",   "256",
                                     "--tenant",  "a:ka:2:high",     "--tenant",
                                     "b:kb:1:normal", "--tenant",    "c:kc:1:low"};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, "server.log", O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    const int rc = posix_spawn(&pid_, bin.c_str(), &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) throw std::runtime_error("cannot start " + bin + ": " + std::strerror(rc));
  }
  ~Server() { stop(); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Peak resident set (VmHWM) of the server process, MB.
  double peak_rss_mb() const {
    std::ifstream f("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(f, line))
      if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
  }
  void stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    int st = 0;
    waitpid(pid_, &st, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
};

bool send_all(int fd, const std::string& s) {
  std::size_t off = 0;
  while (off < s.size()) {
    const ssize_t w = ::write(fd, s.data() + off, s.size() - off);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    off += static_cast<std::size_t>(w);
  }
  return true;
}

/// The single-threaded load generator.
class LoadGen {
 public:
  LoadGen(std::vector<Conn>& conns, Tracer& tr) : conns_(conns), tr_(tr) {}

  void send(Req& r) {
    r.sent = now_s();
    const std::size_t idx = static_cast<std::size_t>(&r - reqs_.data());
    inflight_[std::to_string(idx)] = idx;
    if (!send_all(conns_[static_cast<std::size_t>(r.conn)].fd, r.line + "\n"))
      throw std::runtime_error("server connection lost");
    ++sent_;
  }

  /// Reads every complete event line available within `timeout_s`.
  void pump(double timeout_s) {
    std::vector<pollfd> pf;
    for (const Conn& c : conns_) pf.push_back({c.fd, POLLIN, 0});
    timespec ts{};
    timeout_s = std::max(0.0, timeout_s);
    ts.tv_sec = static_cast<time_t>(timeout_s);
    ts.tv_nsec = static_cast<long>((timeout_s - static_cast<double>(ts.tv_sec)) * 1e9);
    if (ppoll(pf.data(), pf.size(), &ts, nullptr) <= 0) return;
    char buf[65536];
    for (std::size_t i = 0; i < pf.size(); ++i) {
      if ((pf[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const ssize_t n = ::read(pf[i].fd, buf, sizeof buf);
      if (n <= 0) throw std::runtime_error("server closed a connection");
      std::string& in = conns_[i].in;
      in.append(buf, static_cast<std::size_t>(n));
      std::size_t nl;
      while ((nl = in.find('\n')) != std::string::npos) {
        on_line(in.substr(0, nl));
        in.erase(0, nl + 1);
      }
    }
  }

  std::vector<Req> reqs_;
  std::size_t inflight() const { return inflight_.size(); }
  std::uint64_t sent_ = 0, received_ = 0, errors_ = 0;

 private:
  void on_line(const std::string& line) {
    const double t = now_s();
    const auto it = inflight_.find(field(line, "id").substr(1));
    if (it == inflight_.end()) return;
    Req& r = reqs_[it->second];
    if (r.first < 0) r.first = t;
    const std::string ev = field(line, "event");
    if (ev == "progress") return;
    r.done = t;
    r.result = line;
    if (ev == "result")
      ++received_;
    else
      ++errors_;
    tr_.add("service.request", r.open_loop ? r.due : r.sent, t,
            static_cast<long long>(it->second));
    inflight_.erase(it);
  }

  std::vector<Conn>& conns_;
  Tracer& tr_;
  std::map<std::string, std::size_t> inflight_;
};

std::vector<double> decode_x(const std::string& hex) {
  std::vector<double> x;
  for (std::size_t p = 0; p + 16 <= hex.size(); p += 16) {
    std::uint64_t bits = std::strtoull(hex.substr(p, 16).c_str(), nullptr, 16);
    double v;
    std::memcpy(&v, &bits, sizeof v);
    x.push_back(v);
  }
  return x;
}

}  // namespace

RunResult run_serve(const Options& opt, Tracer& tr, Checks& checks) {
  RunResult out;
  // Unix socket paths are short; the socket lives in the output directory,
  // addressed relative to it.
  if (chdir(opt.out_dir.c_str()) != 0) throw std::runtime_error("cannot enter " + opt.out_dir);
  ::unlink("feir.sock");
  int sp_start = tr.begin("service.server_start");
  Server server(opt.serve_bin, "feir.sock");
  std::vector<Conn> conns(kConns);
  const char* tenants[kConns][2] = {{"a", "ka"}, {"b", "kb"}, {"c", "kc"}};
  for (int i = 0; i < kConns; ++i) {
    feir::service::Client cl;
    std::string err;
    const double deadline = now_s() + 20.0;
    while (!cl.connect_unix("feir.sock", &err)) {
      if (now_s() > deadline) throw std::runtime_error("server did not listen: " + err);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (!cl.authenticate(tenants[i][0], tenants[i][1], &err))
      throw std::runtime_error("auth failed: " + err);
    conns[static_cast<std::size_t>(i)].fd = cl.detach();
  }
  tr.end(sp_start);

  LoadGen d(conns, tr);
  const std::size_t K = make_slots(opt.seed, 0).size();
  auto make_req = [&](std::size_t idx, bool open) {
    Req r;
    r.slot = static_cast<int>(idx % K);
    r.round = static_cast<int>(idx / K);
    r.conn = static_cast<int>(idx % kConns);
    r.open_loop = open;
    return r;
  };
  auto finalize_line = [&](Req& r, std::size_t idx) {
    r.line = "{\"id\": \"r" + std::to_string(idx) + "\", " +
             make_slots(opt.seed, r.round)[static_cast<std::size_t>(r.slot)].body + "}";
  };
  // LoadGen::send keys requests by their index in reqs_; the reserve keeps
  // every Req at one address for the whole run.
  const std::size_t max_reqs =
      K * (2 * kSeedPool + 2) + static_cast<std::size_t>(opt.seconds * 300.0);
  d.reqs_.reserve(max_reqs);
  // warm_rounds > 0: exactly that many rounds, untimed; else fill `seconds`.
  auto closed_loop = [&](double seconds, std::size_t warm_rounds) {
    const double t0 = now_s();
    std::size_t issued = 0;
    std::vector<int> busy(kConns, 0);
    const std::size_t first = d.reqs_.size();
    auto issue = [&](int conn) {
      const std::size_t idx = d.reqs_.size();
      if (idx >= max_reqs) throw std::runtime_error("request budget exceeded");
      Req r = make_req(idx, false);
      r.conn = conn;
      r.round = static_cast<int>(issued / K);
      r.slot = static_cast<int>(issued % K);
      finalize_line(r, idx);
      d.reqs_.push_back(r);
      d.send(d.reqs_.back());
      ++issued;
      busy[static_cast<std::size_t>(conn)] = static_cast<int>(idx) + 1;
    };
    for (int c = 0; c < kConns; ++c) issue(c);
    while (d.inflight() > 0) {
      d.pump(0.05);
      for (int c = 0; c < kConns; ++c) {
        const int b = busy[static_cast<std::size_t>(c)];
        if (b == 0 || d.reqs_[static_cast<std::size_t>(b - 1)].done < 0) continue;
        busy[static_cast<std::size_t>(c)] = 0;
        const bool more = warm_rounds > 0 ? issued < warm_rounds * K
                                          : (now_s() - t0 < seconds || issued % K != 0);
        if (more) issue(c);
      }
    }
    return std::make_pair(first, now_s() - t0);
  };

  // Warm-up: one pass over the whole realisation pool, so set-up builds
  // every steady cache entry and does the same work whatever the seed.
  {
    SpanScope sp(tr, "service.warmup");
    closed_loop(0.0, kSeedPool);
  }
  const double setup = now_s();

  // --- open loop: request i is due at t0 + i / rate; kOpenRounds whole
  // rounds (8 s at the defaults), then the closed loop fills the run.
  const std::size_t n_open = static_cast<std::size_t>(kOpenRounds) * K;
  const double open_s = static_cast<double>(n_open) / kOpenRate;
  const std::size_t open_first = d.reqs_.size();
  const double t_open = now_s() + 0.01;
  double backlog = 0.0;
  for (std::size_t i = 0; i < n_open; ++i) {
    const std::size_t idx = d.reqs_.size();
    Req r = make_req(i, true);
    finalize_line(r, idx);
    r.due = t_open + static_cast<double>(i) / kOpenRate;
    while (now_s() < r.due) d.pump(r.due - now_s());
    d.reqs_.push_back(r);
    d.send(d.reqs_.back());
  }
  backlog = static_cast<double>(d.inflight());
  while (d.inflight() > 0) d.pump(0.05);

  // --- closed loop: capacity.
  const auto [closed_first, closed_s] = closed_loop(std::max(1.0, opt.seconds - open_s), 0);
  const std::size_t closed_end = d.reqs_.size();

  // --- server-side counts against the client's.
  std::string stats;
  for (int attempt = 0; attempt < 100; ++attempt) {
    send_all(conns[0].fd, "{\"op\": \"stats\", \"id\": \"stats\"}\n");
    stats.clear();
    while (stats.empty()) {
      std::string& in = conns[0].in;
      std::size_t nl;
      while (stats.empty() && (nl = in.find('\n')) != std::string::npos) {
        const std::string line = in.substr(0, nl);
        in.erase(0, nl + 1);
        if (field(line, "event") == "stats") stats = line;
      }
      if (stats.empty()) {
        char buf[65536];
        const ssize_t n = ::read(conns[0].fd, buf, sizeof buf);
        if (n <= 0) throw std::runtime_error("stats: connection lost");
        in.append(buf, static_cast<std::size_t>(n));
      }
    }
    // The server counts a completion just after it sends the result line.
    if (static_cast<std::uint64_t>(num(stats, "completed")) == d.received_) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const double server_rss = server.peak_rss_mb();
  for (Conn& c : conns) ::close(c.fd);
  server.stop();
  ::unlink("feir.sock");
  checks.expect(static_cast<std::uint64_t>(num(stats, "requests")) == d.sent_,
                "serve: server requests == client sent");
  checks.expect(static_cast<std::uint64_t>(num(stats, "completed")) == d.received_,
                "serve: server completed == client received");
  checks.expect(d.errors_ == 0, "serve: no error events");

  // --- verification: every result against an in-process solve of the same
  // request (iterations), and returned x against the residual loop.
  feir::service::SessionManager sessions;
  std::map<std::string, std::string> reference;  // request body -> iteration signature
  auto signature = [](const std::string& line) {
    std::string sig = field(line, "converged") + "/" + field(line, "iterations");
    for (std::size_t p = line.find("\"col\": "); p != std::string::npos;
         p = line.find("\"col\": ", p + 1))
      sig += "/" + field(line, "iterations", p);
    return sig;
  };
  for (std::size_t i = open_first; i < closed_end; ++i) {
    Req& r = d.reqs_[i];
    const std::string body = r.line.substr(r.line.find(',') + 2);
    auto it = reference.find(body);
    if (it == reference.end()) {
      SpanScope sp(tr, "check.reference", static_cast<long long>(i));
      const feir::service::ParsedRequest pr = feir::service::parse_request(r.line);
      if (!checks.expect(pr.ok, "serve: request parses")) continue;
      const feir::service::SessionManager::Prepared prep = sessions.prepare(pr.req.spec);
      const feir::TestbedProblem& tp = prep.backend->problem->problem;
      std::string sig;
      if (pr.req.ranks > 0) {
        std::vector<double> x(static_cast<std::size_t>(tp.A.n), 0.0);
        const feir::ShardedCgResult sr = feir::sharded_cg_solve(
            tp.A, tp.b.data(), x.data(),
            feir::service::shard_options_from_spec(pr.req.spec, pr.req.ranks));
        sig = std::string(sr.converged ? "true" : "false") + "/" + std::to_string(sr.iterations);
      } else {
        const feir::campaign::JobResult jr = feir::campaign::CampaignExecutor::run_job(
            pr.req.spec, tp, prep.precond ? prep.precond->M.get() : nullptr,
            prep.precond ? prep.precond->bj : nullptr);
        sig = std::string(jr.converged ? "true" : "false") + "/" + std::to_string(jr.iterations);
        for (const auto& c : jr.columns) sig += "/" + std::to_string(c.iterations);
      }
      it = reference.emplace(body, sig).first;
    }
    bool ok = checks.expect(field(r.result, "event") == "result", "serve: result event");
    ok &= checks.expect(field(r.result, "converged") == "true", "serve: converged");
    ok &= checks.expect(signature(r.result) == it->second,
                        "serve: iterations equal the in-process solve (" + body + ")");
    if (make_slots(opt.seed, r.round)[static_cast<std::size_t>(r.slot)].ranked) {
      const feir::service::ParsedRequest pr = feir::service::parse_request(r.line);
      const auto tp = sessions.prepare(pr.req.spec).backend->problem;
      const std::vector<double> x = decode_x(field(r.result, "x"));
      ok &= checks.expect(x.size() == static_cast<std::size_t>(tp->problem.A.n),
                          "serve: return_x length");
      if (ok) {
        const Verification v = verify_solution(tp->problem.A, tp->problem.b.data(), x.data(),
                                               &tp->problem.x_true);
        ok &= checks.expect(v.relres <= kTol * kResidualSlack, "serve: return_x residual");
        ok &= checks.expect(v.error <= kMaxError, "serve: return_x error vs x_true");
      }
    }
    ++out.attempted;
    if (!ok) ++out.failed;
  }

  // --- metrics.  Latency: open loop, from when each request was due.
  std::vector<double> lat, first_ms, ranked, miss;
  std::map<std::string, std::vector<double>> by_method, by_family;
  double lag = 0.0, result_bytes = 0.0, errors = 0.0;
  std::map<std::string, double> iters_by_method;
  double restarts = 0, rollbacks = 0, checkpoints = 0, contrib = 0, recov = 0;
  for (std::size_t i = open_first; i < open_first + n_open; ++i) {
    const Req& r = d.reqs_[i];
    const Slot sl = make_slots(opt.seed, r.round)[static_cast<std::size_t>(r.slot)];
    const double l = r.done - r.due;
    lat.push_back(l);
    first_ms.push_back(1e3 * (r.first - r.due));
    lag = std::max(lag, r.sent - r.due);
    result_bytes += static_cast<double>(r.result.size());
    if (!sl.method.empty()) by_method[sl.method].push_back(l);
    by_family[sl.family].push_back(l);
    if (sl.ranked) ranked.push_back(l);
    if (sl.miss) miss.push_back(l);
  }
  double closed_iters = 0.0;
  for (std::size_t i = open_first; i < closed_end; ++i) {
    const Req& r = d.reqs_[i];
    const Slot sl = make_slots(opt.seed, r.round)[static_cast<std::size_t>(r.slot)];
    const double it = num(r.result, "iterations") * sl.nrhs;
    if (i >= closed_first) closed_iters += it;
    iters_by_method[sl.method] += it;
    errors += num(r.result, "errors_injected");
    const std::size_t sp = r.result.find("\"stats\": ");
    const std::string st = sp == std::string::npos ? "" : r.result.substr(sp);
    restarts += num(st, "restarts");
    rollbacks += num(st, "rollbacks");
    checkpoints += num(st, "checkpoints");
    contrib += num(st, "contrib_recomputes");
    for (const char* k : {"lincomb_recoveries", "diag_solves", "spmv_recomputes",
                          "alt_q_recoveries", "residual_recomputes", "x_recoveries",
                          "precond_reapplies", "redo_updates", "contrib_recomputes"})
      recov += num(st, k);
  }
  const double n_closed = static_cast<double>(closed_end - closed_first);
  checks.expect(errors > 0, "serve: DUEs were injected");

  Metrics& e = out.end_to_end;
  e.set("setup_s", setup, "s");
  e.set("latency_p50_s", quantile(lat, 0.5), "s");
  e.set("latency_p90_s", quantile(lat, 0.9), "s");
  e.set("solves_per_s", n_closed / closed_s, "1/s");
  e.set("iters_per_s", closed_iters / closed_s, "1/s");
  e.set("ideal_s", median(by_method["ideal"]), "s");
  e.set("feir_s", median(by_method["feir"]), "s");
  e.set("afeir_s", median(by_method["afeir"]), "s");
  e.set("ckpt_s", median(by_method["ckpt"]), "s");
  e.set("peak_rss_mb", server_rss, "MB");

  Metrics& l = out.per_layer;
  l.set("service.first_event_ms", median(first_ms), "ms");
  l.set("service.result_bytes", n_open ? result_bytes / static_cast<double>(n_open) : 0.0, "B");
  l.set("service.generator_lag_ms", 1e3 * lag, "ms");
  l.set("service.backlog", backlog, "count");
  l.set("shard.ranked_s", median(ranked), "s");
  l.set("campaign.cache_hits", num(stats, "hits"), "count");
  l.set("campaign.cache_builds", num(stats, "misses"), "count");
  l.set("campaign.cache_evictions",
        num(stats, "misses") - num(stats, "problems") - num(stats, "backends") -
            num(stats, "preconds"),
        "count");
  l.set("campaign.cache_build_s", median(miss), "s");
  l.set("core.iterations.ideal", iters_by_method["ideal"], "count");
  l.set("core.iterations.feir", iters_by_method["feir"], "count");
  l.set("core.iterations.afeir", iters_by_method["afeir"], "count");
  l.set("core.iterations.ckpt", iters_by_method["ckpt"], "count");
  l.set("core.recoveries", recov, "count");
  l.set("core.restarts", restarts, "count");
  l.set("core.rollbacks", rollbacks, "count");
  l.set("core.checkpoints", checkpoints, "count");
  l.set("core.contrib_recomputes", contrib, "count");
  const double ideal = median(by_method["ideal"]);
  for (const char* m : {"feir", "afeir", "ckpt"})
    l.set(std::string("core.") + m + "_slowdown", ideal > 0 ? median(by_method[m]) / ideal : 0.0,
          "ratio");
  for (const char* f : {"cg", "pcg", "bicgstab", "gmres", "block_cg"})
    l.set(std::string("core.") + f + "_s", median(by_family[f]), "s");
  l.set("fault.errors_injected", errors, "count");
  if (tr.on()) {
    const auto P = sessions.cache().problem("ecology2", 0.3);
    run_probes(P->problem.A, P->problem.b, tr, l);
  }
  return out;
}

}  // namespace feirbench
