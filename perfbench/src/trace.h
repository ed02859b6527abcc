/// \file trace.h
/// \brief In-memory spans around the benchmark's calls into each layer,
/// written out as Chrome trace-event JSON when the run ends.
///
/// Spans are recorded only in a traced run and only while the calling
/// thread has tracing switched on (the traced run alternates traced and
/// untraced operations to measure the tracing overhead). A span's layer is
/// the part of its name before the first dot.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start = 0.0;  ///< NowSeconds() at entry.
  double end = 0.0;
  int64_t id = 0;
  int64_t parent = 0;  ///< 0 = no parent.
  int64_t op = -1;     ///< Operation id; -1 outside measured operations.
  int64_t lane = 0;    ///< Trace row (thread, or request for async spans).
  std::vector<std::pair<std::string, double>> args;
};

class Tracer {
 public:
  /// The process-wide tracer; disabled until Enable().
  static Tracer& Get();

  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  /// Switches recording on or off for the calling thread and tags its
  /// spans with operation id `op` until the next call.
  void SetThreadState(bool active, int64_t op);
  /// True when the calling thread records spans now.
  bool active() const;
  int64_t current_op() const;

  int64_t NextId();
  /// Stores a finished span (thread-safe).
  void Record(Span span);

  /// Writes every recorded span as Chrome trace-event JSON.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  int64_t next_id_ = 1;
};

/// Records one span around its scope on the calling thread; nested scopes
/// become its children. Inert when the thread is not tracing.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Arg(const char* key, double value);
  bool recording() const { return recording_; }
  int64_t id() const { return span_.id; }

 private:
  bool recording_ = false;
  Span span_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
