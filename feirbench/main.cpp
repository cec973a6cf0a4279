// feirbench: end-to-end and per-layer benchmark of feir.
//
//   feirbench --workload clean|faulty|serve --seed N --seconds S --trace 0|1
//             [--serve-bin PATH] [--out-dir DIR]
//
// Prints one JSON object as the last line of stdout:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics and a
// Chrome trace-event file in DIR (--trace 1).  feirbench/run.py builds and
// runs it; see feirbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"
#include "core/resilient_cg.hpp"
#include "sparse/generators.hpp"

namespace feirbench {
namespace {

/// Every per-layer metric, in BENCHMARK.json order.  A workload that does not
/// exercise a layer reports 0 for it (README, "Per-layer metrics").
const char* const kPerLayer[][2] = {
    {"sparse.generate_s", "s"},          {"sparse.convert_s", "s"},
    {"sparse.spmv_csr_us", "us"},        {"sparse.spmv_sell_us", "us"},
    {"sparse.spmm_us", "us"},            {"sparse.spmv_gbps", "GB/s"},
    {"sparse.stream_triad_gbps", "GB/s"}, {"sparse.spmv_frac_stream", "ratio"},
    {"precond.build_s", "s"},            {"precond.apply_jacobi_us", "us"},
    {"precond.apply_blockjacobi_us", "us"}, {"precond.apply_gs_us", "us"},
    {"runtime.tasks", "count"},          {"runtime.useful_s", "s"},
    {"runtime.overhead_s", "s"},         {"runtime.idle_s", "s"},
    {"runtime.tasks_per_s", "1/s"},      {"runtime.handoff_us_1w", "us"},
    {"runtime.handoff_us_2w", "us"},     {"core.iterations.ideal", "count"},
    {"core.iterations.feir", "count"},   {"core.iterations.afeir", "count"},
    {"core.iterations.ckpt", "count"},   {"core.recoveries", "count"},
    {"core.restarts", "count"},          {"core.rollbacks", "count"},
    {"core.checkpoints", "count"},       {"core.contrib_recomputes", "count"},
    {"core.relation_us", "us"},          {"core.checkpoint_save_ms", "ms"},
    {"core.feir_slowdown", "ratio"},     {"core.afeir_slowdown", "ratio"},
    {"core.ckpt_slowdown", "ratio"},     {"core.cg_s", "s"},
    {"core.pcg_s", "s"},                 {"core.bicgstab_s", "s"},
    {"core.gmres_s", "s"},               {"core.block_cg_s", "s"},
    {"fault.errors_injected", "count"},  {"campaign.cache_hits", "count"},
    {"campaign.cache_builds", "count"},  {"campaign.cache_evictions", "count"},
    {"campaign.cache_build_s", "s"},     {"service.parse_us", "us"},
    {"service.first_event_ms", "ms"},    {"service.result_bytes", "B"},
    {"service.generator_lag_ms", "ms"},  {"service.backlog", "count"},
    {"qos.admit_us", "us"},              {"shard.wire_us", "us"},
    {"shard.halo_bytes", "B"},           {"shard.ranked_s", "s"},
    {"solvers.plain_cg_s", "s"},
};

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr, "feirbench: %s\n", msg.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    if (i + 1 >= argc) usage("missing value for " + f);
    const std::string v = argv[++i];
    if (f == "--workload") o.workload = v;
    else if (f == "--seed") o.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (f == "--seconds") o.seconds = std::strtod(v.c_str(), nullptr);
    else if (f == "--trace") o.trace = v == "1";
    else if (f == "--serve-bin") o.serve_bin = v;
    else if (f == "--out-dir") o.out_dir = v;
    else usage("unknown flag " + f);
  }
  if (o.workload != "clean" && o.workload != "faulty" && o.workload != "serve")
    usage("--workload must be clean, faulty or serve");
  if (!(o.seconds > 0.0)) usage("--seconds must be > 0");
  if (o.out_dir.empty()) o.out_dir = ".";
  if (o.workload == "serve" && o.serve_bin.empty()) usage("serve needs --serve-bin");
  return o;
}

}  // namespace

bool self_test(Checks& checks) {
  // A real solve whose x passes, then perturbed copies that must not.
  const feir::TestbedProblem tp = feir::make_testbed("parabolic_fem", 0.15);
  feir::ResilientCgOptions opts;
  opts.method = feir::Method::Ideal;
  opts.tol = kTol;
  opts.threads = 1;
  std::vector<double> x(static_cast<std::size_t>(tp.A.n), 0.0);
  feir::ResilientCg solver(feir::SparseMatrix(tp.A), tp.b.data(), opts);
  const feir::ResilientCgResult r = solver.solve(x.data());
  const Verification good = verify_solution(tp.A, tp.b.data(), x.data(), &tp.x_true);
  bool ok = checks.expect(good.relres <= kTol * kResidualSlack && good.error <= kMaxError,
                          "self-test: the unperturbed x passes");
  std::vector<double> bad = x;
  bad[bad.size() / 2] *= 1.0 + 1e-6;
  const Verification v1 = verify_solution(tp.A, tp.b.data(), bad.data(), &tp.x_true);
  ok &= checks.expect(v1.relres > kTol * kResidualSlack, "self-test: perturbed x fails the residual");
  bad = x;
  for (double& xi : bad) xi *= 1.0 + 1e-4;  // residual ~1e-4, error 1e-4
  const Verification v2 = verify_solution(tp.A, tp.b.data(), bad.data(), &tp.x_true);
  ok &= checks.expect(v2.error > kMaxError, "self-test: scaled x fails the x_true error");
  bad[0] = std::nan("");
  ok &= checks.expect(verify_solution(tp.A, tp.b.data(), bad.data(), &tp.x_true).relres >
                          kTol * kResidualSlack,
                      "self-test: NaN in x fails the residual");
  const long long it = r.iterations;
  ok &= checks.expect(within_ideal_bound(it, it), "self-test: Ideal's own count passes");
  ok &= checks.expect(!within_ideal_bound(it + it / 10 + 7, it),
                      "self-test: iterations past Ideal + 10% + 6 fail");
  return ok;
}

}  // namespace feirbench

int main(int argc, char** argv) {
  using namespace feirbench;
  const Options opt = parse(argc, argv);
  Tracer tr(opt.trace);
  Checks checks;
  RunResult res;
  try {
    {
      SpanScope sp(tr, "check.self_test");
      self_test(checks);
    }
    if (opt.workload == "serve")
      res = run_serve(opt, tr, checks);
    else
      res = run_inprocess(opt, opt.workload == "faulty", tr, checks);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "feirbench: %s\n", ex.what());
    return 1;
  }
  Metrics* m = &res.end_to_end;
  if (opt.trace) {
    // Keep measured values; fill the layers this workload does not reach.
    for (const auto& pl : kPerLayer) res.per_layer.set_if_absent(pl[0], 0.0, pl[1]);
    m = &res.per_layer;
    const std::string path = opt.out_dir + "/trace-" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".json";
    if (!tr.write_chrome(path)) std::fprintf(stderr, "feirbench: cannot write %s\n", path.c_str());
    std::fprintf(stderr, "feirbench: %zu spans -> %s\n", tr.size(), path.c_str());
  }
  std::fprintf(stderr, "feirbench: %llu checks, %llu failed\n",
               static_cast<unsigned long long>(checks.count()),
               static_cast<unsigned long long>(checks.failures()));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              checks.all_ok() ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed), m->json().c_str());
  return 0;
}
