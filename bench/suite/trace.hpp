// In-memory span recorder for the suite's traced pass.
//
// Spans are recorded at the driver's own call sites (around its calls into
// the library's public API), kept in memory, and written as JSON lines at
// exit: name, id, parent id (-1 = root), request id, start and end seconds
// on one steady clock. A disabled tracer records nothing; Span objects then
// cost one branch each.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace distbc::suite {

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Seconds since the tracer was created.
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(clock::now() - origin_).count();
  }

  /// Opens a span starting at `start` (seconds on now()'s clock); returns
  /// its id, or -1 when disabled.
  int open(const char* name, int parent, std::uint64_t request, double start) {
    if (!enabled_) return -1;
    spans_.push_back({name, parent, request, start, start});
    return static_cast<int>(spans_.size() - 1);
  }
  int open(const char* name, int parent, std::uint64_t request) {
    return enabled_ ? open(name, parent, request, now()) : -1;
  }

  void close(int id, double end) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end = end;
  }
  void close(int id) {
    if (id >= 0) close(id, now());
  }

  /// Writes every span as one JSON object per line; false on I/O failure.
  [[nodiscard]] bool write(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Record& span = spans_[i];
      std::fprintf(file,
                   "{\"name\":\"%s\",\"id\":%zu,\"parent\":%d,"
                   "\"request\":%llu,\"start\":%.9f,\"end\":%.9f}\n",
                   span.name, i, span.parent,
                   static_cast<unsigned long long>(span.request), span.start,
                   span.end);
    }
    return std::fclose(file) == 0;
  }

  /// Measured cost of recording one span (open + close), in seconds: the
  /// basis of the traced pass's overhead estimate.
  [[nodiscard]] static double span_cost_s() {
    constexpr int kSpans = 100000;
    Tracer probe(true);
    const double start = probe.now();
    for (int i = 0; i < kSpans; ++i) probe.close(probe.open("x", -1, 0));
    return (probe.now() - start) / kSpans;
  }

 private:
  using clock = std::chrono::steady_clock;
  struct Record {
    const char* name;  // static storage (string literals)
    int parent;
    std::uint64_t request;
    double start;
    double end;
  };

  bool enabled_;
  clock::time_point origin_ = clock::now();
  std::vector<Record> spans_;
};

/// Scoped span: opens on construction, closes on destruction.
class Span {
 public:
  Span(Tracer& tracer, const char* name, int parent, std::uint64_t request)
      : tracer_(tracer), id_(tracer.open(name, parent, request)) {}
  ~Span() { tracer_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace distbc::suite
