// Shared pieces of the feir end-to-end benchmark: the clock, the in-memory
// span recorder, the metric sink, the correctness ledger and the
// independent residual check.  Everything here is the benchmark's own code;
// the program under test is reached only through its public entry points.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sparse/csr.hpp"

namespace feirbench {

/// Seconds since process start (static initialisation of this binary).
double now_s();

/// Median, or a linearly interpolated quantile q in [0, 1]; 0 for empty input.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// One interval around a call into a layer of the program.
struct Span {
  std::string name;
  double t0 = 0.0, t1 = 0.0;
  int parent = -1;      ///< index of the enclosing span, -1 at top level
  long long id = 0;     ///< solve or request id
};

/// In-memory span recorder; written as Chrome trace-event JSON at the end.
/// Single-threaded: every span is opened and closed on the benchmark's own
/// thread.  When off, begin/end cost one branch.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }
  int begin(const std::string& name, long long id = 0);
  void end(int span);
  /// Records a finished interval (open-loop requests end out of order).
  void add(const std::string& name, double t0, double t1, long long id, int parent = -1);
  std::vector<double> durations(const std::string& name) const;
  double total(const std::string& name) const;
  bool write_chrome(const std::string& path) const;
  std::size_t size() const { return spans_.size(); }

 private:
  bool on_;
  int cur_ = -1;
  std::vector<Span> spans_;
};

class SpanScope {
 public:
  SpanScope(Tracer& t, const std::string& name, long long id = 0)
      : t_(t), i_(t.begin(name, id)) {}
  ~SpanScope() { t_.end(i_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& t_;
  int i_;
};

/// Named metrics in output order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  void set_if_absent(const std::string& name, double value, const std::string& unit);
  std::string json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// Correctness ledger: every check the benchmark makes lands here.
class Checks {
 public:
  /// Records one check; returns `ok`.
  bool expect(bool ok, const std::string& what);
  bool all_ok() const { return failures_ == 0; }
  std::uint64_t failures() const { return failures_; }
  std::uint64_t count() const { return count_; }

 private:
  std::uint64_t count_ = 0;
  std::uint64_t failures_ = 0;
};

/// Relative residual ||b - A x|| / ||b|| by the benchmark's own loop over the
/// CSR arrays, and the relative error against a known solution (when given).
struct Verification {
  double relres = 0.0;
  double error = 0.0;
};
Verification verify_solution(const feir::CsrMatrix& A, const double* b, const double* x,
                             const std::vector<double>* x_true);

/// Acceptance thresholds of the checks (README, "Checks").
inline constexpr double kTol = 1e-10;
/// True relative residual: the solvers stop on a recursive residual, which
/// drifts from the true one by a few ulps times the iteration count.
inline constexpr double kResidualSlack = 10.0;
/// Forward error against the testbed's x_true.
inline constexpr double kMaxError = 1e-5;
/// FEIR/AFEIR iteration bound relative to Ideal (tests/resilient_cg_test.cpp).
inline bool within_ideal_bound(long long iters, long long ideal_iters) {
  return static_cast<double>(iters) <= 1.1 * static_cast<double>(ideal_iters) + 6.0;
}
/// Per-worker state times (useful + overhead + idle) against workers x wall.
inline constexpr double kStateTimeSlack = 0.25;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serve_bin;  ///< path of the feir_serve binary (serve workload)
  std::string out_dir;    ///< where the traced run writes its trace JSON
};

/// What a workload hands back to main for printing.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics end_to_end;
  Metrics per_layer;
};

RunResult run_inprocess(const Options& opt, bool faulty, Tracer& tr, Checks& checks);
RunResult run_serve(const Options& opt, Tracer& tr, Checks& checks);
/// Layer probes for the traced run: kernels, runtime hand-off, relations,
/// checkpoint, parse, admission, wire codec.  Adds to `m`.
void run_probes(const feir::CsrMatrix& A, const std::vector<double>& b, Tracer& tr,
                Metrics& m);
/// Perturbs x and iteration counts and confirms each check rejects them.
bool self_test(Checks& checks);

/// Peak resident set of this process, MB.
double self_peak_rss_mb();

}  // namespace feirbench
