// The in-process workloads, `clean` and `faulty`: a fixed round of resilient
// solves over three Fig. 4 stand-ins, repeated round-robin until the run's
// time is spent.  Each solve calls a core solver class's solve(x) directly;
// its x is then checked by the benchmark's own residual loop.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "campaign/cache.hpp"
#include "campaign/injection.hpp"
#include "campaign/jobspec.hpp"
#include "core/resilient_bicgstab.hpp"
#include "core/resilient_block_cg.hpp"
#include "core/resilient_cg.hpp"
#include "core/resilient_gmres.hpp"
#include "core/resilient_pipelined_cg.hpp"
#include "support/rng.hpp"

namespace feirbench {

using feir::index_t;
using feir::Method;
using feir::campaign::PrecondKind;

namespace {

enum class Family { Cg, Pipelined, Bicgstab, Gmres, BlockCg };

const char* family_name(Family f) {
  switch (f) {
    case Family::Cg: return "cg";
    case Family::Pipelined: return "pcg";
    case Family::Bicgstab: return "bicgstab";
    case Family::Gmres: return "gmres";
    case Family::BlockCg: return "block_cg";
  }
  return "?";
}

bool cg_family(Family f) {
  return f == Family::Cg || f == Family::Pipelined || f == Family::BlockCg;
}

/// One problem of the round, with its cached resources.
struct Problem {
  std::string name;
  double scale = 1.0;
  double mtbe_iters = 0.0;  ///< faulty: mean iterations between DUEs
  std::shared_ptr<const feir::campaign::ResourceCache::ProblemEntry> entry;
  std::shared_ptr<const feir::campaign::ResourceCache::BackendEntry> sell;
  std::map<PrecondKind, std::shared_ptr<const feir::campaign::ResourceCache::PrecondEntry>>
      pre;
  const feir::TestbedProblem& tp() const { return entry->problem; }
};

struct Spec {
  int prob = 0;
  Family fam = Family::Cg;
  PrecondKind pk = PrecondKind::None;
  Method method = Method::Ideal;
  bool sell = false;
  index_t nrhs = 1;
  double mtbe_iters = 0.0;
  std::uint64_t seed = 1;
  index_t max_iter = 100000;
  bool capped_ckpt = false;  ///< faulty ckpt: expected to hit its cap (FOUND (a))
  std::string tag;
  std::string group;  ///< (problem, family, precond): FEIR/AFEIR vs Ideal pairing
};

struct Outcome {
  bool converged = false;
  index_t iterations = 0;
  double wall = 0.0;
  double solver_seconds = 0.0;
  std::uint64_t errors = 0;
  feir::RecoveryStats stats;
  feir::Runtime::StateTimes states;
  std::uint64_t tasks = 0;
  bool has_states = false;
  std::vector<double> x;  ///< n x nrhs, row-major for block solves
};

/// Fault-domain injection for one single-RHS solve, bound after construction.
struct Injector {
  std::unique_ptr<feir::campaign::IterationInjector> inj;
  std::function<void(const feir::IterRecord&)> hook() {
    return [this](const feir::IterRecord& rec) {
      if (inj) inj->on_iteration(rec.iter);
    };
  }
  void bind(feir::FaultDomain& d, double mtbe, std::uint64_t seed) {
    if (mtbe > 0) inj = std::make_unique<feir::campaign::IterationInjector>(d, mtbe, seed);
  }
  std::uint64_t count() const { return inj ? inj->count() : 0; }
};

template <typename Solver>
void solve_single(Solver& solver, Injector& inj, const Spec& s, Outcome& o) {
  inj.bind(solver.domain(), s.mtbe_iters, s.seed);
  const auto r = solver.solve(o.x.data());
  o.converged = r.converged;
  o.iterations = r.iterations;
  o.solver_seconds = r.seconds;
  o.stats = r.stats;
  o.errors = inj.count();
  if constexpr (std::is_same_v<std::decay_t<decltype(r)>, feir::ResilientCgResult>) {
    o.states = r.states;
    o.tasks = r.tasks;
    o.has_states = true;
  }
}

/// Runs one spec: constructs the core solver and calls solve(x).  `wall`
/// covers construction and solve, the time a caller waits for x.
Outcome run_spec(const Spec& s, const Problem& P) {
  const feir::TestbedProblem& tp = P.tp();
  const feir::SparseMatrix S = s.sell ? P.sell->S : feir::SparseMatrix(tp.A);
  const feir::Preconditioner* M =
      s.pk == PrecondKind::None ? nullptr : P.pre.at(s.pk)->M.get();
  Outcome o;
  o.x.assign(static_cast<std::size_t>(tp.A.n * s.nrhs), 0.0);
  Injector inj;
  const double t0 = now_s();
  switch (s.fam) {
    case Family::Cg: {
      feir::ResilientCgOptions opts;
      opts.method = s.method;
      opts.tol = kTol;
      opts.max_iter = s.max_iter;
      opts.threads = 1;
      opts.on_iteration = inj.hook();
      feir::ResilientCg solver(S, tp.b.data(), opts, M);
      solve_single(solver, inj, s, o);
      break;
    }
    case Family::Pipelined: {
      feir::ResilientPipelinedCgOptions opts;
      opts.method = s.method;
      opts.tol = kTol;
      opts.max_iter = s.max_iter;
      opts.threads = 1;
      opts.on_iteration = inj.hook();
      feir::ResilientPipelinedCg solver(S, tp.b.data(), opts);
      solve_single(solver, inj,
                                                                                 s, o);
      break;
    }
    case Family::Bicgstab: {
      feir::ResilientBicgstabOptions opts;
      opts.tol = kTol;
      opts.max_iter = s.max_iter;
      opts.threads = 1;
      opts.on_iteration = inj.hook();
      feir::ResilientBicgstab solver(S, tp.b.data(), opts, M);
      solve_single(solver, inj, s, o);
      break;
    }
    case Family::Gmres: {
      feir::ResilientGmresOptions opts;
      opts.tol = kTol;
      opts.max_iter = s.max_iter;
      opts.threads = 1;
      opts.on_iteration = inj.hook();
      feir::ResilientGmres solver(S, tp.b.data(), opts, M);
      solve_single(solver, inj, s, o);
      break;
    }
    case Family::BlockCg: {
      const std::vector<double> B = feir::campaign::block_rhs(tp.b, s.nrhs, s.seed);
      std::vector<std::unique_ptr<feir::campaign::IterationInjector>> injs(
          static_cast<std::size_t>(s.nrhs));
      feir::ResilientBlockCgOptions opts;
      opts.method = s.method;
      opts.tol = kTol;
      opts.max_iter = s.max_iter;
      opts.threads = 1;
      opts.on_col_iteration = [&injs](index_t col, const feir::IterRecord& rec) {
        if (injs[static_cast<std::size_t>(col)])
          injs[static_cast<std::size_t>(col)]->on_iteration(rec.iter);
      };
      feir::ResilientBlockCg solver(S, B.data(), s.nrhs, opts);
      if (s.mtbe_iters > 0)
        for (index_t j = 0; j < s.nrhs; ++j)
          injs[static_cast<std::size_t>(j)] =
              std::make_unique<feir::campaign::IterationInjector>(
                  solver.domain(j), s.mtbe_iters,
                  feir::campaign::derive_job_seed(s.seed, static_cast<std::uint64_t>(j)));
      const feir::ResilientBlockCgResult r = solver.solve(o.x.data());
      o.converged = r.converged;
      o.iterations = r.iterations;
      o.solver_seconds = r.seconds;
      o.stats = r.stats;
      o.states = r.states;
      o.tasks = r.tasks;
      o.has_states = true;
      for (const auto& in : injs)
        if (in) o.errors += in->count();
      break;
    }
  }
  o.wall = now_s() - t0;
  return o;
}

/// Checks one finished solve's x with the benchmark's own residual loop.
/// Returns false when any check fails.
bool verify_outcome(const Spec& s, const Problem& P, const Outcome& o, Checks& checks) {
  const feir::TestbedProblem& tp = P.tp();
  bool ok = checks.expect(o.converged, s.tag + ": converged");
  if (s.nrhs == 1) {
    const Verification v = verify_solution(tp.A, tp.b.data(), o.x.data(), &tp.x_true);
    ok &= checks.expect(v.relres <= kTol * kResidualSlack, s.tag + ": true residual");
    ok &= checks.expect(v.error <= kMaxError, s.tag + ": error vs x_true");
    return ok;
  }
  // Block solve: column 0 is the testbed b (x_true known); columns j > 0 are
  // the scaled family, checked by residual alone.
  const auto n = static_cast<std::size_t>(tp.A.n);
  const auto k = static_cast<std::size_t>(s.nrhs);
  const std::vector<double> B = feir::campaign::block_rhs(tp.b, s.nrhs, s.seed);
  std::vector<double> b(n), x(n);
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      b[i] = B[i * k + j];
      x[i] = o.x[i * k + j];
    }
    const Verification v = verify_solution(tp.A, b.data(), x.data(), j == 0 ? &tp.x_true : nullptr);
    ok &= checks.expect(v.relres <= kTol * kResidualSlack,
                        s.tag + ": true residual col " + std::to_string(j));
    if (j == 0) ok &= checks.expect(v.error <= kMaxError, s.tag + ": error vs x_true");
  }
  return ok;
}

std::uint64_t recoveries(const feir::RecoveryStats& st) {
  return st.lincomb_recoveries + st.diag_solves + st.spmv_recomputes + st.alt_q_recoveries +
         st.residual_recomputes + st.x_recoveries + st.precond_reapplies + st.redo_updates +
         st.contrib_recomputes;
}

/// Base seed of the fixed DUE realisations (see make_round).
constexpr std::uint64_t kPoolSeed = 0xFE1B;

/// The fixed round.  Three stand-ins whose CSR arrays exceed a 2 MiB L2:
/// parabolic_fem (2.1 MB), consph (8.3 MB), ecology2 (2.1 MB), each at
/// scale 1.  AFEIR runs without a preconditioner only: its preconditioned-CG
/// contribution race is an open fault (ROADMAP item 1).  Block-Jacobi is
/// left to the traced probe: with page-sized dense blocks one solve takes
/// ~1.2 s, twenty times its jacobi neighbour.  Counts are chosen so
/// every per-method median and the overall p50/p90 fall inside one spec's
/// cluster of samples, not on the gap between two.
std::vector<Spec> make_round(const std::vector<Problem>& probs, bool faulty,
                             std::uint64_t seed) {
  std::vector<Spec> round;
  auto add = [&](int prob, Family fam, PrecondKind pk, Method m, bool sell, index_t nrhs = 1) {
    Spec s;
    s.prob = prob;
    s.fam = fam;
    s.pk = pk;
    s.method = m;
    s.sell = sell;
    s.nrhs = nrhs;
    s.group = probs[static_cast<std::size_t>(prob)].name + "/" + family_name(fam) + "/" +
              feir::campaign::precond_name(pk) + (nrhs > 1 ? "/nrhs" + std::to_string(nrhs) : "");
    s.tag = s.group + "/" + feir::method_cli_name(m);
    round.push_back(s);
  };
  const Method all[] = {Method::Ideal, Method::Feir, Method::Afeir, Method::Checkpoint};
  const Method no_afeir[] = {Method::Ideal, Method::Feir, Method::Checkpoint};
  // CG-family, unpreconditioned: every method.
  for (Method m : all) {
    add(0, Family::Cg, PrecondKind::None, m, true);
    add(1, Family::Cg, PrecondKind::None, m, false);
    add(2, Family::Cg, PrecondKind::None, m, true);
    add(0, Family::Pipelined, PrecondKind::None, m, false);
    add(1, Family::Pipelined, PrecondKind::None, m, true);
  }
  // CG-family, preconditioned: no AFEIR.
  for (Method m : no_afeir) {
    add(0, Family::Cg, PrecondKind::Jacobi, m, false);
    add(0, Family::Cg, PrecondKind::GaussSeidel, m, true);
    add(1, Family::Cg, PrecondKind::Jacobi, m, true);
    add(2, Family::Cg, PrecondKind::Jacobi, m, true);
  }
  // Other families (their own recovery; no method axis).
  add(0, Family::Bicgstab, PrecondKind::None, Method::Feir, false);
  add(1, Family::Bicgstab, PrecondKind::None, Method::Feir, true);
  add(0, Family::Gmres, PrecondKind::None, Method::Feir, true);
  add(1, Family::Gmres, PrecondKind::None, Method::Feir, false);
  // One block-CG batch.
  add(0, Family::BlockCg, PrecondKind::None, Method::Feir, true, 4);

  // Seeds: each spec's DUE process (and block RHS family) is one fixed
  // realisation, so every run does the same work and the spread between
  // runs measures the machine, not the draw.  The run's seed picks the
  // interleaving.  The capped ckpt solves of `faulty` thus fail the same
  // way on every run (FOUND (a)).
  for (std::size_t i = 0; i < round.size(); ++i) {
    Spec& s = round[i];
    s.seed = feir::campaign::derive_job_seed(kPoolSeed, i);
    if (faulty) s.mtbe_iters = probs[static_cast<std::size_t>(s.prob)].mtbe_iters;
    if (faulty && s.method == Method::Checkpoint && cg_family(s.fam)) s.capped_ckpt = true;
  }
  // A seeded, fixed-for-the-run interleaving of the round.
  feir::Rng rng(seed ^ 0xB0B0);
  for (std::size_t i = round.size(); i > 1; --i)
    std::swap(round[i - 1], round[static_cast<std::size_t>(rng() % i)]);
  return round;
}

/// How many times Ideal's iterations a capped ckpt solve may run.
constexpr index_t kCkptCap = 4;

}  // namespace

RunResult run_inprocess(const Options& opt, bool faulty, Tracer& tr, Checks& checks) {
  RunResult out;
  feir::campaign::ResourceCache cache;
  std::vector<Problem> probs = {{"parabolic_fem", 1.0, 25.0, {}, {}, {}},
                                {"consph", 1.0, 20.0, {}, {}, {}},
                                {"ecology2", 1.0, 150.0, {}, {}, {}}};
  // --- set-up: generation, SELL conversion, preconditioner factorisation.
  for (Problem& P : probs) {
    {
      SpanScope sp(tr, "sparse.generate");
      P.entry = cache.problem(P.name, P.scale);
    }
    if (!P.entry->error.empty()) throw std::runtime_error(P.entry->error);
    {
      SpanScope sp(tr, "sparse.convert");
      P.sell = cache.backend(P.name, P.scale, feir::SparseFormat::Sell);
    }
    for (PrecondKind pk : {PrecondKind::Jacobi, PrecondKind::GaussSeidel}) {
      SpanScope sp(tr, "precond.build");
      P.pre[pk] = cache.precond(P.name, P.scale, pk,
                                static_cast<index_t>(feir::kDoublesPerPage));
    }
  }
  std::vector<Spec> round = make_round(probs, faulty, opt.seed);

  // Warm-up (untimed, inside set-up): one fault-free Ideal solve per group
  // pins the reference iteration counts that the FEIR/AFEIR bound and the
  // ckpt cap are taken against.
  std::map<std::string, index_t> ideal_iters;
  for (const Spec& s : round) {
    if (ideal_iters.count(s.group)) continue;
    Spec w = s;
    w.method = Method::Ideal;
    w.mtbe_iters = 0.0;
    SpanScope sp(tr, "warmup." + w.group);
    const Outcome o = run_spec(w, probs[static_cast<std::size_t>(w.prob)]);
    checks.expect(o.converged, w.group + ": warm-up Ideal converged");
    ideal_iters[s.group] = o.iterations;
  }
  for (Spec& s : round)
    if (s.capped_ckpt) s.max_iter = kCkptCap * ideal_iters[s.group];

  // --- timed rounds.
  const double setup = now_s();
  std::vector<double> lat;                       // verified solves
  std::map<Method, std::vector<double>> by_method;  // CG family
  std::map<std::string, std::vector<double>> by_family, by_tag;
  double iters_total = 0.0, solve_time = 0.0;
  std::uint64_t errors = 0, verified = 0;
  feir::RecoveryStats stats;
  feir::Runtime::StateTimes states;
  std::uint64_t tasks = 0;
  std::map<Method, double> method_iters;
  long long solve_id = 0;
  double t_end = setup;
  while (true) {
    for (const Spec& s : round) {
      const Problem& P = probs[static_cast<std::size_t>(s.prob)];
      Outcome o;
      {
        SpanScope sp(tr, std::string("core.solve.") + family_name(s.fam), ++solve_id);
        o = run_spec(s, P);
      }
      ++out.attempted;
      errors += o.errors;
      stats += o.stats;
      if (cg_family(s.fam)) {
        by_method[s.method].push_back(o.wall);
        method_iters[s.method] += static_cast<double>(o.iterations * s.nrhs);
      }
      if (o.has_states) {
        states.useful += o.states.useful;
        states.runtime += o.states.runtime;
        states.idle += o.states.idle;
        tasks += o.tasks;
        // One solver worker: its state times should cover the solve's wall.
        const double sum = o.states.useful + o.states.runtime + o.states.idle;
        checks.expect(std::abs(sum - o.solver_seconds) <=
                          kStateTimeSlack * o.solver_seconds + 1e-3,
                      s.tag + ": state times cover the solve");
      }
      if (s.capped_ckpt && !o.converged) {
        // FOUND (a): the default 1000-iteration period never checkpoints
        // before the next DUE, so every error rolls back to the start.
        ++out.failed;
        checks.expect(o.iterations == s.max_iter, s.tag + ": ckpt ran to its cap");
        by_tag[s.tag].push_back(o.wall);
        continue;
      }
      bool ok;
      {
        SpanScope sp(tr, "check.verify", solve_id);
        ok = verify_outcome(s, P, o, checks);
      }
      if (s.method == Method::Feir || s.method == Method::Afeir)
        ok &= checks.expect(within_ideal_bound(o.iterations, ideal_iters[s.group]),
                            s.tag + ": iterations within Ideal + 10% + 6");
      if (!ok) continue;
      ++verified;
      lat.push_back(o.wall);
      by_family[family_name(s.fam)].push_back(o.wall);
      by_tag[s.tag].push_back(o.wall);
      iters_total += static_cast<double>(o.iterations * s.nrhs);
      solve_time += o.wall;
    }
    t_end = now_s();
    if (t_end - setup >= opt.seconds) break;
  }
  const double timed = t_end - setup;
  for (const auto& kv : by_tag)
    std::fprintf(stderr, "feirbench: %-40s n=%zu median %.4f s\n", kv.first.c_str(),
                 kv.second.size(), median(kv.second));
  if (faulty)
    checks.expect(errors > 0, "faulty: DUEs were injected");
  else
    checks.expect(errors == 0, "clean: no DUEs were injected");

  Metrics& e = out.end_to_end;
  e.set("setup_s", setup, "s");
  e.set("latency_p50_s", quantile(lat, 0.5), "s");
  e.set("latency_p90_s", quantile(lat, 0.9), "s");
  e.set("solves_per_s", static_cast<double>(verified) / timed, "1/s");
  e.set("iters_per_s", solve_time > 0 ? iters_total / solve_time : 0.0, "1/s");
  e.set("ideal_s", median(by_method[Method::Ideal]), "s");
  e.set("feir_s", median(by_method[Method::Feir]), "s");
  e.set("afeir_s", median(by_method[Method::Afeir]), "s");
  e.set("ckpt_s", median(by_method[Method::Checkpoint]), "s");
  e.set("peak_rss_mb", self_peak_rss_mb(), "MB");

  Metrics& l = out.per_layer;
  l.set("sparse.generate_s", tr.total("sparse.generate"), "s");
  l.set("sparse.convert_s", tr.total("sparse.convert"), "s");
  l.set("precond.build_s", tr.total("precond.build"), "s");
  l.set("runtime.tasks", static_cast<double>(tasks), "count");
  l.set("runtime.useful_s", states.useful, "s");
  l.set("runtime.overhead_s", states.runtime, "s");
  l.set("runtime.idle_s", states.idle, "s");
  l.set("core.iterations.ideal", method_iters[Method::Ideal], "count");
  l.set("core.iterations.feir", method_iters[Method::Feir], "count");
  l.set("core.iterations.afeir", method_iters[Method::Afeir], "count");
  l.set("core.iterations.ckpt", method_iters[Method::Checkpoint], "count");
  l.set("core.recoveries", static_cast<double>(recoveries(stats)), "count");
  l.set("core.restarts", static_cast<double>(stats.restarts), "count");
  l.set("core.rollbacks", static_cast<double>(stats.rollbacks), "count");
  l.set("core.checkpoints", static_cast<double>(stats.checkpoints), "count");
  l.set("core.contrib_recomputes", static_cast<double>(stats.contrib_recomputes), "count");
  // Fig. 4 slowdown: per (problem, family, precond) group, the method's
  // median over Ideal's median, then the median over groups.
  for (Method m : {Method::Feir, Method::Afeir, Method::Checkpoint}) {
    std::vector<double> ratios;
    for (const Spec& s : round) {
      if (s.method != m || !cg_family(s.fam)) continue;
      const auto mine = by_tag.find(s.tag);
      const auto ideal = by_tag.find(s.group + "/ideal");
      if (mine != by_tag.end() && ideal != by_tag.end())
        ratios.push_back(median(mine->second) / median(ideal->second));
    }
    l.set(std::string("core.") + feir::method_cli_name(m) + "_slowdown", median(ratios),
          "ratio");
  }
  for (const char* f : {"cg", "pcg", "bicgstab", "gmres", "block_cg"})
    l.set(std::string("core.") + f + "_s", median(by_family[f]), "s");
  l.set("fault.errors_injected", static_cast<double>(errors), "count");
  const feir::campaign::ResourceCache::Stats cs = cache.stats();
  l.set("campaign.cache_hits", static_cast<double>(cs.hits), "count");
  l.set("campaign.cache_builds", static_cast<double>(cs.misses), "count");
  l.set("campaign.cache_evictions",
        static_cast<double>(cs.misses - (cs.problems + cs.backends + cs.preconds)), "count");
  l.set("campaign.cache_build_s",
        tr.total("sparse.generate") + tr.total("sparse.convert") + tr.total("precond.build"),
        "s");
  if (tr.on()) run_probes(probs[0].tp().A, probs[0].tp().b, tr, l);
  return out;
}

}  // namespace feirbench
