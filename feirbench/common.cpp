#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.hpp"

namespace feirbench {

namespace {
const auto kStart = std::chrono::steady_clock::now();
}

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - kStart).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

int Tracer::begin(const std::string& name, long long id) {
  if (!on_) return -1;
  spans_.push_back({name, now_s(), 0.0, cur_, id});
  cur_ = static_cast<int>(spans_.size()) - 1;
  return cur_;
}

void Tracer::end(int span) {
  if (span < 0) return;
  Span& s = spans_[static_cast<std::size_t>(span)];
  s.t1 = now_s();
  cur_ = s.parent;
}

void Tracer::add(const std::string& name, double t0, double t1, long long id, int parent) {
  if (on_) spans_.push_back({name, t0, t1, parent, id});
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name) out.push_back(s.t1 - s.t0);
  return out;
}

double Tracer::total(const std::string& name) const {
  double t = 0.0;
  for (double d : durations(name)) t += d;
  return t;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Complete events ("X"), microseconds; the parent index rides in args so
    // self time can be recomputed from the file.
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, \"parent\": %d, "
                 "\"id\": %lld}}",
                 i == 0 ? "" : ",\n", s.name.c_str(), s.t0 * 1e6, (s.t1 - s.t0) * 1e6, i,
                 s.parent, s.id);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  for (auto& it : items_)
    if (it.first == name) {
      it.second = {value, unit};
      return;
    }
  items_.push_back({name, {value, unit}});
}

void Metrics::set_if_absent(const std::string& name, double value, const std::string& unit) {
  for (const auto& it : items_)
    if (it.first == name) return;
  items_.push_back({name, {value, unit}});
}

std::string Metrics::json() const {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < items_.size(); ++i) {
    const double v = std::isfinite(items_[i].second.first) ? items_[i].second.first : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + items_[i].first + "\": {\"value\": " + buf + ", \"unit\": \"" +
           items_[i].second.second + "\"}";
  }
  return out + "}";
}

bool Checks::expect(bool ok, const std::string& what) {
  ++count_;
  if (!ok) {
    // Only the first few, so a systematic failure does not flood stderr.
    if (failures_ < 20) std::fprintf(stderr, "feirbench: CHECK FAILED: %s\n", what.c_str());
    ++failures_;
  }
  return ok;
}

Verification verify_solution(const feir::CsrMatrix& A, const double* b, const double* x,
                             const std::vector<double>* x_true) {
  double rr = 0.0, bb = 0.0;
  for (feir::index_t i = 0; i < A.n; ++i) {
    double s = b[i];
    for (feir::index_t k = A.row_ptr[static_cast<std::size_t>(i)];
         k < A.row_ptr[static_cast<std::size_t>(i) + 1]; ++k)
      s -= A.vals[static_cast<std::size_t>(k)] *
           x[A.col_idx[static_cast<std::size_t>(k)]];
    rr += s * s;
    bb += b[i] * b[i];
  }
  Verification v;
  v.relres = bb > 0.0 ? std::sqrt(rr / bb) : std::sqrt(rr);
  if (x_true != nullptr) {
    double ee = 0.0, tt = 0.0;
    for (feir::index_t i = 0; i < A.n; ++i) {
      const double d = x[i] - (*x_true)[static_cast<std::size_t>(i)];
      ee += d * d;
      tt += (*x_true)[static_cast<std::size_t>(i)] * (*x_true)[static_cast<std::size_t>(i)];
    }
    v.error = tt > 0.0 ? std::sqrt(ee / tt) : std::sqrt(ee);
  }
  // NaN anywhere must fail the check, never pass it.
  if (!std::isfinite(v.relres)) v.relres = 1e300;
  if (!std::isfinite(v.error)) v.error = 1e300;
  return v;
}

double self_peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace feirbench
