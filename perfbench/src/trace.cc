#include "trace.h"

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

#include "common.h"

namespace perfbench {

namespace {

struct ThreadTraceState {
  bool active = false;
  int64_t op = -1;
  /// Open spans of this thread, innermost last.
  std::vector<int64_t> stack;
};

ThreadTraceState& ThisThread() {
  thread_local ThreadTraceState state;
  return state;
}

int64_t ThreadLane() {
  return static_cast<int64_t>(
      std::hash<std::thread::id>()(std::this_thread::get_id()) % 1000);
}

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::SetThreadState(bool active, int64_t op) {
  ThisThread().active = enabled_ && active;
  ThisThread().op = op;
}

bool Tracer::active() const { return ThisThread().active; }

int64_t Tracer::current_op() const { return ThisThread().op; }

int64_t Tracer::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char buf[96];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << s.name
        << "\", \"cat\": \"" << layer << "\", \"ph\": \"X\", \"pid\": 1";
    std::snprintf(buf, sizeof(buf), ", \"tid\": %lld, \"ts\": %.3f",
                  static_cast<long long>(s.lane), s.start * 1e6);
    out << buf;
    std::snprintf(buf, sizeof(buf), ", \"dur\": %.3f", (s.end - s.start) * 1e6);
    out << buf << ", \"args\": {\"id\": " << s.id << ", \"parent\": "
        << s.parent << ", \"op\": " << s.op;
    for (const auto& [key, value] : s.args) {
      std::snprintf(buf, sizeof(buf), "%.17g", value);
      out << ", \"" << key << "\": " << buf;
    }
    out << "}}";
  }
  out << "\n]}\n";
  std::ofstream file(path);
  file << out.str();
  return static_cast<bool>(file);
}

ScopedSpan::ScopedSpan(const char* name) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.active()) return;
  recording_ = true;
  ThreadTraceState& state = ThisThread();
  span_.name = name;
  span_.id = tracer.NextId();
  span_.parent = state.stack.empty() ? 0 : state.stack.back();
  span_.op = state.op;
  span_.lane = ThreadLane();
  state.stack.push_back(span_.id);
  span_.start = NowSeconds();
}

ScopedSpan::~ScopedSpan() {
  if (!recording_) return;
  span_.end = NowSeconds();
  ThisThread().stack.pop_back();
  Tracer::Get().Record(std::move(span_));
}

void ScopedSpan::Arg(const char* key, double value) {
  if (recording_) span_.args.emplace_back(key, value);
}

}  // namespace perfbench
