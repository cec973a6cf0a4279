// Layer probes of the traced run: each times repeated calls into one layer
// of the program on the workload's own matrix, outside the timed solves.
#include "bench.hpp"
#include "core/checkpoint.hpp"
#include "core/relations.hpp"
#include "distsim/partition.hpp"
#include "precond/blockjacobi.hpp"
#include "precond/gs.hpp"
#include "precond/precond.hpp"
#include "qos/qos.hpp"
#include "runtime/runtime.hpp"
#include "service/protocol.hpp"
#include "shard/wire.hpp"
#include "solvers/cg.hpp"
#include "sparse/matrix.hpp"
#include "sparse/sell.hpp"

namespace feirbench {

using feir::index_t;

namespace {

/// Median wall time of `reps` calls of fn, in seconds, each call one span.
template <typename Fn>
double time_median(Tracer& tr, const char* span, int reps, Fn&& fn) {
  std::vector<double> t;
  t.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    SpanScope sp(tr, span, i);
    const double t0 = now_s();
    fn();
    t.push_back(now_s() - t0);
  }
  return median(t);
}

double stream_triad_gbps(Tracer& tr) {
  // 3 x 32 MiB: four times the 8 MiB of summed L2 (the VM-reported 300 MiB
  // L3 cannot be exceeded within this benchmark's memory budget).
  const std::size_t n = 4u << 20;
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  const double s = 3.0;
  const double t = time_median(tr, "sparse.stream_triad", 9, [&] {
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
  });
  if (a[n / 2] != 7.0) return 0.0;  // the loop ran and was not elided
  return 3.0 * 8.0 * static_cast<double>(n) / t / 1e9;
}

}  // namespace

void run_probes(const feir::CsrMatrix& A, const std::vector<double>& b, Tracer& tr,
                Metrics& m) {
  const auto n = static_cast<std::size_t>(A.n);
  std::vector<double> x(n, 1.0), y(n, 0.0);

  // --- sparse kernels, placed against the measured triad bandwidth.
  const double csr = time_median(tr, "sparse.spmv_csr", 101, [&] { feir::spmv(A, x.data(), y.data()); });
  const feir::SellMatrix sell = feir::sell_from_csr(A);
  const double sl = time_median(tr, "sparse.spmv_sell", 101, [&] { feir::spmv(sell, x.data(), y.data()); });
  const index_t k = 4;
  std::vector<double> X(n * k, 1.0), Y(n * k, 0.0);
  const double mm = time_median(tr, "sparse.spmm", 51, [&] { feir::spmm(A, X.data(), Y.data(), k); });
  // Computed bytes of one CSR SpMV: values + column indices + row pointers +
  // one read of x and one write of y (x reuse through cache assumed).
  const double bytes = static_cast<double>(A.nnz()) * 12.0 + static_cast<double>(n + 1) * 4.0 +
                       static_cast<double>(n) * 16.0;
  const double gbps = bytes / csr / 1e9;
  const double triad = stream_triad_gbps(tr);
  m.set("sparse.spmv_csr_us", csr * 1e6, "us");
  m.set("sparse.spmv_sell_us", sl * 1e6, "us");
  m.set("sparse.spmm_us", mm * 1e6, "us");
  m.set("sparse.spmv_gbps", gbps, "GB/s");
  m.set("sparse.stream_triad_gbps", triad, "GB/s");
  m.set("sparse.spmv_frac_stream", triad > 0 ? gbps / triad : 0.0, "ratio");

  // --- preconditioner application.
  const feir::BlockLayout layout(A.n, static_cast<index_t>(feir::kDoublesPerPage));
  std::vector<double> diag(n);
  for (index_t i = 0; i < A.n; ++i) diag[static_cast<std::size_t>(i)] = A.at(i, i);
  const feir::JacobiPreconditioner jac(diag, layout.block_rows);
  const feir::BlockJacobi bj(A, layout);
  const feir::BlockGaussSeidel gs(feir::SparseMatrix(A), layout);
  m.set("precond.apply_jacobi_us",
        1e6 * time_median(tr, "precond.apply.jacobi", 101, [&] { jac.apply(x.data(), y.data()); }),
        "us");
  m.set("precond.apply_blockjacobi_us",
        1e6 * time_median(tr, "precond.apply.blockjacobi", 21, [&] { bj.apply(x.data(), y.data()); }),
        "us");
  m.set("precond.apply_gs_us",
        1e6 * time_median(tr, "precond.apply.gs", 21, [&] { gs.apply(x.data(), y.data()); }),
        "us");

  // --- runtime: empty-task hand-off and a CG-iteration-shaped graph.
  for (unsigned w : {1u, 2u}) {
    feir::Runtime rt(w);
    const double h = time_median(tr, "runtime.handoff", 2001, [&] {
      rt.submit([] {}, {});
      rt.taskwait();
    });
    m.set("runtime.handoff_us_" + std::to_string(w) + "w", h * 1e6, "us");
  }
  {
    // Per iteration: 8 chunk tasks (q = A d), a reduction, 8 chunk updates
    // (x, g), a reduction -- the dependency shape of one CG iteration.
    feir::Runtime rt(1);
    const int chunks = 8, iters = 400;
    std::vector<double> q(chunks), d(chunks), g(chunks);
    double alpha = 0.0, beta = 0.0;
    const double t0 = now_s();
    {
      SpanScope sp(tr, "runtime.cg_shaped_batch");
      for (int it = 0; it < iters; ++it) {
        for (int c = 0; c < chunks; ++c)
          rt.submit([&q, &d, c] { q[c] = 2.0 * d[c] + 1.0; },
                    {feir::in(d.data(), c), feir::out(q.data(), c)});
        std::vector<feir::Dep> red;
        for (int c = 0; c < chunks; ++c) red.push_back(feir::in(q.data(), c));
        red.push_back(feir::out(&alpha));
        rt.submit([&alpha, &q] { alpha = q[0] * 1e-9; }, red);
        for (int c = 0; c < chunks; ++c)
          rt.submit([&g, &q, &alpha, c] { g[c] -= alpha * q[c]; },
                    {feir::in(&alpha), feir::in(q.data(), c), feir::inout(g.data(), c)});
        std::vector<feir::Dep> red2;
        for (int c = 0; c < chunks; ++c) red2.push_back(feir::in(g.data(), c));
        red2.push_back(feir::out(&beta));
        rt.submit([&beta, &g] { beta = g[0] * 1e-9; }, red2);
        for (int c = 0; c < chunks; ++c)
          rt.submit([&d, &g, &beta, c] { d[c] = g[c] + beta * d[c]; },
                    {feir::in(&beta), feir::in(g.data(), c), feir::inout(d.data(), c)});
      }
      rt.taskwait();
    }
    const double t = now_s() - t0;
    m.set("runtime.tasks_per_s", static_cast<double>(iters * (3 * chunks + 2)) / t, "1/s");
  }

  // --- core: Table-1 relations on one lost page, and a checkpoint save.
  {
    feir::DiagBlockSolver solver(A, layout);
    const index_t blk = layout.num_blocks() / 2;
    std::vector<double> d(n, 0.5), q(n, 0.0), g(n, 0.0), xx(n, 1.0);
    feir::spmv(A, d.data(), q.data());
    for (std::size_t i = 0; i < n; ++i) g[i] = b[i] - q[i];
    // First call factorises the diagonal block; the timed calls reuse it,
    // as repeated recoveries within one solve do.
    feir::relation_x_rhs(solver, blk, b.data(), g.data(), xx.data());
    const double rel = time_median(tr, "core.relation", 201, [&] {
      feir::relation_spmv_lhs(A, layout, blk, d.data(), q.data());
      feir::relation_residual_lhs(A, layout, blk, xx.data(), b.data(), g.data());
      feir::relation_x_rhs(solver, blk, b.data(), g.data(), xx.data());
    });
    m.set("core.relation_us", rel * 1e6, "us");
    feir::Checkpointer ck(A.n, feir::CheckpointOptions{});
    index_t it = 0;
    const double save = time_median(tr, "core.checkpoint_save", 51,
                                    [&] { ck.save(++it, xx.data(), d.data()); });
    m.set("core.checkpoint_save_ms", save * 1e3, "ms");
  }

  // --- service parse, QoS admission, shard wire codec and halo plan.
  {
    const std::string line =
        "{\"op\": \"solve\", \"id\": \"r17\", \"matrix\": \"ecology2\", \"scale\": 0.3, "
        "\"solver\": \"cg\", \"method\": \"feir\", \"precond\": \"jacobi\", \"seed\": 42, "
        "\"mtbe_iters\": 40, \"stream\": true}";
    bool ok = true;
    const double p = time_median(tr, "service.parse", 2001, [&] {
      ok &= feir::service::parse_request(line).ok;
    });
    m.set("service.parse_us", ok ? p * 1e6 : 0.0, "us");

    feir::qos::TenantSpec a, c;
    a.id = "a";
    a.key = "ka";
    a.weight = 2.0;
    c.id = "b";
    c.key = "kb";
    feir::qos::QosManager qm({a, c});
    int t = 0;
    const double adm = time_median(tr, "qos.admit", 2001, [&] {
      t ^= 1;
      if (qm.try_admit(t) == feir::qos::QosManager::Admit::Ok)
        qm.finish(t, feir::qos::QosManager::Outcome::Completed, 1e-3, 10);
    });
    m.set("qos.admit_us", adm * 1e6, "us");

    std::vector<std::pair<index_t, double>> parts;
    for (index_t pg = 0; pg < layout.num_blocks(); ++pg)
      parts.push_back({pg, 1.0 / static_cast<double>(pg + 1)});
    std::vector<std::pair<index_t, double>> back;
    const double w = time_median(tr, "shard.wire", 501, [&] {
      const std::string msg = feir::shard::encode_parts("eps", 7, parts);
      feir::shard::decode_parts(msg, "eps", 7, &back);
    });
    m.set("shard.wire_us", back == parts ? w * 1e6 : 0.0, "us");

    feir::RowPartition part;
    part.n = A.n;
    part.ranks = 2;
    const feir::HaloPlan plan = feir::build_halo_plan(A, part);
    double doubles = 0.0;
    for (const auto& peers : plan.recv_counts)
      for (const auto& pc : peers) doubles += static_cast<double>(pc.second);
    m.set("shard.halo_bytes", 8.0 * doubles, "B");
  }

  // --- the non-resilient single-thread reference CG on the same problem.
  {
    feir::SolveOptions so;
    so.tol = kTol;
    const double cg = time_median(tr, "solvers.plain_cg", 5, [&] {
      std::vector<double> x0(n, 0.0);
      feir::cg_solve(A, b.data(), x0.data(), so);
    });
    m.set("solvers.plain_cg_s", cg, "s");
  }
}

}  // namespace feirbench
