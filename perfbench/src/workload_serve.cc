#include <utility>

#include "probes.h"
#include "query/parser.h"
#include "serve_loop.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace lmfao;

namespace {

constexpr int64_t kSalesRows = 100000;
constexpr int kWorkers = 3;
constexpr int kSetupReps = 3;
/// Requests per second, about half of what three workers sustain on this
/// mix (see README.md).
constexpr double kRatePerSecond = 20.0;
/// A response slower than this (from its due time) does not count as
/// goodput.
constexpr double kLatencyLimitMs = 250.0;
/// Before each delta-refresh request the generator appends 0.1% of Sales,
/// so every refresh has rows to fold in (with fewer appends most refreshes
/// found nothing new, and the class median flipped between a no-op and a
/// delta pass). A process grows Sales by about 7% this way.
constexpr size_t kAppendRows = kSalesRows / 1000;
constexpr int kTrainReps = 20;
/// Traffic before the measured window: the first second of load runs
/// several times slower while the workers' allocator arenas grow.
constexpr double kWarmupSeconds = 2.0;

/// The ad-hoc request texts, drawn uniformly.
const char* const kAdHocTexts[] = {
    "SELECT store, SUM(units) FROM D GROUP BY store",
    "SELECT family, SUM(units), SUM(units * price) FROM D GROUP BY family",
    "SELECT cluster, stype, SUM(1) FROM D GROUP BY cluster, stype",
    "SELECT SUM(1), SUM(units), SUM(units^2) FROM D WHERE promo = 1",
    "SELECT city, SUM(txns) FROM D GROUP BY city",
};
constexpr int kNumAdHocTexts = sizeof(kAdHocTexts) / sizeof(kAdHocTexts[0]);

Response Await(Server* server, Request request) {
  return server->Submit(std::move(request)).get();
}

Request PreparedRequest() {
  Request request;
  request.cls = RequestClass::kPreparedExecute;
  request.batch = "cov";
  return request;
}

}  // namespace

void RunServe(const Args& args, RawRecord* raw) {
  auto db = MakeFavoritaData(kSalesRows, args.seed);
  const FeatureSet features = FavoritaFeatures(*db);
  const CovarianceBatch cov = ValueOrDie(
      BuildCovarianceBatch(features, db->catalog), "covariance batch");
  std::vector<QueryBatch> adhoc;
  for (const char* text : kAdHocTexts) {
    adhoc.push_back(
        ValueOrDie(ParseQueryBatch(text, db->catalog), "parse ad-hoc text"));
  }
  if (!ResetPeakRss()) raw->Set("peak_rss_reset_failed", 1);
  Tracer& tracer = Tracer::Get();

  // Set-up: engine, server and registration to the first served answer.
  std::vector<Response> checked;  // Set-up and training responses.
  std::unique_ptr<Engine> engine;
  std::unique_ptr<Server> server;
  for (int r = 0; r < kSetupReps; ++r) {
    if (server) {
      server->Shutdown();
      server.reset();
      RecordPlanCache(*engine, raw);
      engine.reset();
    }
    const double start = NowSeconds();
    engine = std::make_unique<Engine>(&db->catalog, &db->tree, BaseOptions(1));
    ServerOptions options;
    options.num_workers = kWorkers;
    server = std::make_unique<Server>(engine.get(), &db->catalog, options);
    CheckOk(server->RegisterBatch("cov", cov.batch), "register batch");
    checked.push_back(Await(server.get(), PreparedRequest()));
    raw->Add("setup_s", NowSeconds() - start);
  }

  // Measured open loop: 70% prepared, 20% delta refresh, 10% ad-hoc, with
  // appends between requests.
  Rng mix(args.seed ^ 0x5e12e);
  Rng rows(args.seed ^ 0xa99e4d);
  OpenLoopOptions loop_options;
  const double rate = args.rate > 0.0 ? args.rate : kRatePerSecond;
  loop_options.rate_per_second = rate;
  loop_options.warmup_seconds = kWarmupSeconds;
  loop_options.seconds = args.seconds;
  loop_options.trace = args.trace;
  // Classes are dealt from shuffled decks of ten (7 prepared, 2 delta, 1
  // ad-hoc), so every run has the mix exactly; independent draws moved the
  // share of fast classes, and with it the median, from run to run.
  int deck[10] = {0, 0, 0, 0, 0, 0, 0, 1, 1, 2};
  loop_options.make = [&](int64_t index) {
    const int dealt = static_cast<int>(index % 10);
    if (dealt == 0) {
      for (int i = 9; i > 0; --i) {
        std::swap(deck[i], deck[mix.Uniform(static_cast<uint64_t>(i) + 1)]);
      }
    }
    if (deck[dealt] == 0) return PreparedRequest();
    Request request;
    if (deck[dealt] == 1) {
      ScopedSpan span("storage.append");
      span.Arg("rows", static_cast<double>(kAppendRows));
      const double start = NowSeconds();
      CheckOk(AppendCopiedRows(&db->catalog, db->sales, kAppendRows, &rows),
              "append rows");
      raw->Add("append_ms", (NowSeconds() - start) * 1e3);
      raw->Increment("storage.appended_rows",
                     static_cast<double>(kAppendRows));
      request.cls = RequestClass::kDeltaRefresh;
      request.batch = "cov";
    } else {
      request.cls = RequestClass::kAdHoc;
      request.text = kAdHocTexts[mix.Uniform(kNumAdHocTexts)];
    }
    return request;
  };
  tracer.SetThreadState(args.trace, -1);
  const OpenLoopResult loop = RunOpenLoop(server.get(), loop_options);
  tracer.SetThreadState(false, -1);
  raw->Add("peak_rss_mib", PeakRssMib());
  raw->Set("serve.late_ms_max", loop.late_ms_max);
  raw->Set("measured_seconds", loop.wall_seconds);

  // Training through the server, unloaded: request the covariance batch,
  // then assemble sigma and fit the ridge model.
  for (int r = 0; r < kTrainReps; ++r) {
    tracer.SetThreadState(args.trace, -1);
    const double start = NowSeconds();
    Response response = Await(server.get(), PreparedRequest());
    const bool trained =
        response.status.ok() &&
        TimedRidge(cov, features, response.results).ok();
    raw->Add("train_s", NowSeconds() - start);
    tracer.SetThreadState(false, -1);
    // A failed response counts when it is checked below.
    if (response.status.ok() && !trained) raw->Increment("failed");
    checked.push_back(std::move(response));
  }
  server->Shutdown();
  RecordServerStats(server->stats(), raw);
  RecordPlanCache(*engine, raw);

  // Check every response against a sequential replay at its epoch.
  Replayer replayer(&db->catalog, &db->tree);
  for (const Response& response : checked) {
    const bool ok = replayer.Matches("cov", cov.batch, {}, response);
    if (!ok) raw->Increment("mismatches");
    CountOperation(ok, raw);
  }
  for (const CompletedRequest& r : loop.completed) {
    bool ok = false;
    if (r.cls == RequestClass::kAdHoc) {
      int which = 0;
      while (which < kNumAdHocTexts && r.text != kAdHocTexts[which]) ++which;
      ok = which < kNumAdHocTexts &&
           replayer.Matches(r.text, adhoc[which], {}, r.response);
    } else {
      ok = replayer.Matches("cov", cov.batch, {}, r.response);
    }
    if (r.response.status.ok() && !ok) raw->Increment("mismatches");
    CountOperation(ok, raw);
    if (r.warmup) continue;
    const double ms = r.latency_ms();
    raw->Add(args.trace && r.index % 2 == 0 ? "op_ms_traced" : "op_ms", ms);
    if (r.cls == RequestClass::kDeltaRefresh) raw->Add("refresh_ms", ms);
    raw->Add("serve.queue_ms", r.response.queue_seconds * 1e3);
    raw->Add("serve.exec_ms", r.response.exec_seconds * 1e3);
    if (ok && ms <= kLatencyLimitMs) raw->Increment("ok_ops");
  }

  if (args.trace) {
    tracer.SetThreadState(true, -1);
    std::string text;
    for (const char* t : kAdHocTexts) text += std::string(t) + ";\n";
    if (!ProbeParse(text, db->catalog, kNumAdHocTexts, 20)) {
      raw->Increment("mismatches");
    }
    ProbeTarget target;
    target.catalog = &db->catalog;
    target.tree = &db->tree;
    target.batch = &cov.batch;
    target.threads = 1;
    ProbeCompilePhases(target, 3);
    ProbeExecute(target, 3);
    Engine sequential(&db->catalog, &db->tree, BaseOptions(1));
    const PreparedBatch prepared =
        ValueOrDie(sequential.Prepare(cov.batch), "prepare probe");
    const std::vector<QueryResult> reference =
        ValueOrDie(prepared.Execute(), "probe reference").results;
    if (!ProbeSortedFetches(target, reference, 2)) {
      raw->Increment("mismatches");
    }
    ProbeCart(target, features);
    RunRefreshLoop(&db->catalog, prepared, {}, db->sales, kAppendRows, 5,
                   "probe_refresh_ms", &rows, raw);
    tracer.SetThreadState(false, -1);
  }
}

}  // namespace perfbench
