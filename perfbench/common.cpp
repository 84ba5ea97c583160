#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <tuple>

#include "bench.hpp"
#include "core/token_dropping.hpp"
#include "graph/properties.hpp"

namespace perfbench {

using namespace dec;

// ------------------------------------------------------------------ report

void Report::fail(const std::string& what) {
  correct = false;
  std::printf("check failed: %s\n", what.c_str());
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // %.17g keeps every digit of the measured value. A non-finite value
    // prints as inf/nan, which is not JSON, so run.py rejects the run.
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

// ------------------------------------------------------------------- stats

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

void Reservoir::add(double x) {
  ++seen_;
  if (seen_ <= v_.size()) {
    v_[seen_ - 1] = x;
    return;
  }
  const std::uint64_t j = splitmix64(rng_++) % seen_;
  if (j < v_.size()) v_[j] = x;
}

std::vector<double> Reservoir::values() const {
  const auto n = static_cast<std::ptrdiff_t>(
      std::min<std::uint64_t>(seen_, v_.size()));
  return {v_.begin(), v_.begin() + n};
}

// ----------------------------------------------------------------- tracing

Tracer& tracer() {
  static Tracer t;
  return t;
}

namespace {
thread_local std::uint64_t tl_open_span = 0;  // innermost open span id
}  // namespace

Tracer::Buffer& Tracer::local_buffer() {
  thread_local Buffer* buf = nullptr;
  if (buf == nullptr) {
    const std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buf = buffers_.back().get();
    buf->spans.reserve(1 << 16);
  }
  return *buf;
}

void Tracer::record(const Span& s) { local_buffer().spans.push_back(s); }

std::vector<Span> Tracer::spans() const {
  // Called after every recording thread has joined.
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& b : buffers_) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  return all;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans()) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"request\": %llu, \"start_ns\": %lld, \"end_ns\": %lld}\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t request) {
  Tracer& t = tracer();
  on_ = t.enabled();
  if (!on_) return;
  span_.name = name;
  span_.id = t.next_id();
  span_.parent = tl_open_span;
  span_.request = request;
  saved_parent_ = tl_open_span;
  tl_open_span = span_.id;
  span_.start_ns = t.now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!on_) return;
  Tracer& t = tracer();
  span_.end_ns = t.now_ns();
  tl_open_span = saved_parent_;
  t.record(span_);
}

// ----------------------------------------------------------- output checks

namespace {

std::string check_edge_coloring(const Graph& g, const std::vector<Color>& c,
                                int palette) {
  if (!is_complete_proper_edge_coloring(g, c)) {
    return "edge coloring incomplete or improper";
  }
  if (palette_size(c) > palette) return "colors exceed the reported palette";
  return {};
}

}  // namespace

std::string certify(const SolverRequest& req, const SolverResult& res) {
  if (res.status != SolverStatus::kOk) {
    return std::string("status ") + to_string(res.status);
  }
  if (const auto* r = std::get_if<CongestColoringResult>(&res.output)) {
    const Graph& g = *req.graph;
    std::string err = check_edge_coloring(g, r->colors, r->palette);
    if (!err.empty()) return err;
    const double eps = std::get<CongestColoringJob>(req.params).eps;
    if (r->palette > (8.0 + eps) * g.max_degree() && g.num_edges() > 0) {
      return "palette " + std::to_string(r->palette) + " exceeds (8+eps)Δ";
    }
    return {};
  }
  if (const auto* r = std::get_if<BipartiteColoringResult>(&res.output)) {
    return check_edge_coloring(*req.graph, r->colors, r->palette);
  }
  if (const auto* r = std::get_if<TokenDroppingResult>(&res.output)) {
    const auto& job = std::get<TokenDroppingJob>(req.params);
    const auto sum = [](const std::vector<int>& v) {
      return std::accumulate(v.begin(), v.end(), std::int64_t{0});
    };
    if (sum(r->tokens) != sum(job.initial_tokens)) {
      return "token count not conserved";
    }
    if (*std::max_element(r->tokens.begin(), r->tokens.end()) >
        job.params.k) {
      return "a node holds more than k tokens";
    }
    if (max_bound_violation(*req.digraph, job.params, *r) > 1e-9) {
      return "Theorem 4.3 slack bound violated";
    }
    return {};
  }
  return "unexpected solver output";
}

namespace {

auto key(const CongestColoringResult& r) {
  return std::tie(r.colors, r.palette, r.rounds, r.levels, r.tail_degree);
}
auto key(const BipartiteColoringResult& r) {
  return std::tie(r.colors, r.palette, r.rounds, r.levels,
                  r.leaf_degree_bound, r.chi);
}
auto key(const TokenDroppingResult& r) {
  return std::tie(r.tokens, r.edge_passive, r.phases, r.rounds,
                  r.tokens_moved, r.max_message_bits);
}
// The benchmark never requests these two solvers; std::visit needs a key.
auto key(const BalancedOrientationResult&) { return std::tuple<>(); }
auto key(const Defective2ECResult&) { return std::tuple<>(); }

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h = (h ^ b[i]) * 1099511628211ull;
    }
  }
  void i64(std::int64_t v) { bytes(&v, sizeof v); }
  template <class T>
  void ints(const std::vector<T>& v) {
    for (const T x : v) i64(static_cast<std::int64_t>(x));
  }
};

}  // namespace

bool identical(const SolverResult& a, const SolverResult& b) {
  if (a.output.index() != b.output.index()) return false;
  const bool same = std::visit(
      [&](const auto& ra) {
        using T = std::decay_t<decltype(ra)>;
        return key(ra) == key(std::get<T>(b.output));
      },
      a.output);
  return same && a.ledger.breakdown() == b.ledger.breakdown();
}

std::uint64_t digest(const SolverResult& r) {
  Fnv f;
  f.i64(static_cast<std::int64_t>(r.output.index()));
  if (const auto* c = std::get_if<CongestColoringResult>(&r.output)) {
    f.ints(c->colors);
    f.i64(c->palette);
    f.i64(c->levels);
    f.i64(c->tail_degree);
  } else if (const auto* b = std::get_if<BipartiteColoringResult>(&r.output)) {
    f.ints(b->colors);
    f.i64(b->palette);
  } else if (const auto* t = std::get_if<TokenDroppingResult>(&r.output)) {
    f.ints(t->tokens);
    f.ints(t->edge_passive);
  }
  f.i64(result_rounds(r));
  for (const auto& [name, rounds] : r.ledger.breakdown()) {
    f.bytes(name.data(), name.size());
    f.i64(rounds);
  }
  return f.h;
}

std::int64_t result_rounds(const SolverResult& r) {
  return std::visit([](const auto& out) -> std::int64_t {
    if constexpr (requires { out.rounds; }) {
      return out.rounds;
    } else {
      return 0;
    }
  }, r.output);
}

int result_palette(const SolverResult& r) {
  if (const auto* c = std::get_if<CongestColoringResult>(&r.output)) {
    return c->palette;
  }
  if (const auto* b = std::get_if<BipartiteColoringResult>(&r.output)) {
    return b->palette;
  }
  return 0;
}

}  // namespace perfbench
