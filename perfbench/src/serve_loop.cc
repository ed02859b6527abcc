#include "serve_loop.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <thread>

#include "trace.h"

namespace perfbench {

using namespace lmfao;

namespace {

/// How often the generator looks for finished responses between sends;
/// bounds the error of a measured completion time.
constexpr double kPollSeconds = 200e-6;

struct Outstanding {
  CompletedRequest request;
  std::future<Response> future;
};

void SleepUntil(double when) {
  const double wait = when - NowSeconds();
  if (wait > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
}

void RecordRequestSpan(const CompletedRequest& r, bool probe) {
  Span span;
  span.name = "serve.request";
  span.start = r.due;
  span.end = r.done;
  span.id = Tracer::Get().NextId();
  span.op = probe ? -1 : r.index;
  span.lane = 1000 + r.index;
  span.args = {{"class", static_cast<double>(r.cls)},
               {"late_ms", (r.sent - r.due) * 1e3},
               {"queue_ms", r.response.queue_seconds * 1e3},
               {"exec_ms", r.response.exec_seconds * 1e3},
               {"ok", r.response.status.ok() ? 1.0 : 0.0}};
  Tracer::Get().Record(std::move(span));
}

}  // namespace

OpenLoopResult RunOpenLoop(Server* server, const OpenLoopOptions& options) {
  OpenLoopResult result;
  std::vector<Outstanding> outstanding;
  const double interval = 1.0 / options.rate_per_second;
  const double first_due = NowSeconds() + interval;
  const double measured_from = first_due + options.warmup_seconds;
  const double last_due = measured_from + options.seconds;
  int64_t next = 0;
  for (;;) {
    const double due = first_due + static_cast<double>(next) * interval;
    const bool sending = due < last_due;
    if (!sending && outstanding.empty()) break;
    if (sending && NowSeconds() >= due) {
      Outstanding o;
      Request request = options.make(next);
      o.request.index = next;
      o.request.cls = request.cls;
      o.request.text = request.text;
      o.request.due = due;
      o.request.warmup = due < measured_from;
      o.request.sent = NowSeconds();
      o.future = server->Submit(std::move(request));
      if (!o.request.warmup) {
        result.late_ms_max =
            std::max(result.late_ms_max, (o.request.sent - due) * 1e3);
      }
      outstanding.push_back(std::move(o));
      ++next;
      continue;
    }
    for (size_t i = 0; i < outstanding.size();) {
      Outstanding& o = outstanding[i];
      if (o.future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      o.request.done = NowSeconds();
      o.request.response = o.future.get();
      if (options.trace && !o.request.warmup && o.request.index % 2 == 0) {
        RecordRequestSpan(o.request, options.probe);
      }
      result.completed.push_back(std::move(o.request));
      outstanding[i] = std::move(outstanding.back());
      outstanding.pop_back();
    }
    const double wake = NowSeconds() + kPollSeconds;
    SleepUntil(sending ? std::min(due, wake) : wake);
  }
  std::sort(result.completed.begin(), result.completed.end(),
            [](const CompletedRequest& a, const CompletedRequest& b) {
              return a.index < b.index;
            });
  result.wall_seconds =
      result.completed.empty()
          ? 0.0
          : std::max_element(result.completed.begin(), result.completed.end(),
                             [](const CompletedRequest& a,
                                const CompletedRequest& b) {
                               return a.done < b.done;
                             })
                    ->done -
                measured_from;
  return result;
}

void RecordServerStats(const ServerStats& stats, RawRecord* raw) {
  const ClassStats total = stats.Totals();
  raw->Set("serve.shed", static_cast<double>(total.shed_queue_full +
                                             total.shed_watermark));
  raw->Set("serve.retries", static_cast<double>(total.retries));
  raw->Set("serve.degraded", static_cast<double>(total.degraded));
  raw->Set("serve.queue_highwater",
           static_cast<double>(stats.total_queue_depth_highwater));
}

bool Replayer::Matches(const std::string& key, const QueryBatch& batch,
                       const ParamPack& params, const Response& response) {
  if (!response.status.ok()) return false;
  auto it = prepared_.find(key);
  if (it == prepared_.end()) {
    it = prepared_
             .emplace(key, ValueOrDie(engine_.Prepare(batch), "prepare replay"))
             .first;
  }
  auto& replay = replays_[{key, response.epoch.rows}];
  if (replay.empty()) {
    replay = ValueOrDie(it->second.ExecuteAt(response.epoch, params),
                        "replay at epoch")
                 .results;
  }
  return CompareResults(response.results, replay, kRelTol).mismatched == 0;
}

bool ProbeServe(const ProbeTarget& target, int requests,
                double rate_per_second, RawRecord* raw) {
  Engine engine(target.catalog, target.tree, BaseOptions(target.threads));
  ServerOptions server_options;
  server_options.num_workers = 1;
  Server server(&engine, target.catalog, server_options);
  CheckOk(server.RegisterBatch("probe", *target.batch, target.params),
          "register probe batch");
  OpenLoopOptions options;
  options.rate_per_second = rate_per_second;
  options.seconds = requests / rate_per_second;
  options.trace = Tracer::Get().enabled();
  options.probe = true;
  options.make = [&](int64_t) {
    Request request;
    request.cls = RequestClass::kPreparedExecute;
    request.batch = "probe";
    request.params = target.params;
    return request;
  };
  const OpenLoopResult loop = RunOpenLoop(&server, options);
  server.Shutdown();
  Replayer replayer(target.catalog, target.tree);
  bool ok = true;
  for (const CompletedRequest& r : loop.completed) {
    ok = replayer.Matches("probe", *target.batch, target.params, r.response) &&
         ok;
  }
  RecordServerStats(server.stats(), raw);
  raw->Set("serve.late_ms_max", loop.late_ms_max);
  return ok;
}

}  // namespace perfbench
