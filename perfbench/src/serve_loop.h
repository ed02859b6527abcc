/// \file serve_loop.h
/// \brief An open-loop request generator for the serving front-end.
///
/// Requests are due at a fixed rate whatever the server does; each one is
/// timed from its due time to the moment the generator sees its response,
/// so a stall also charges the requests queued behind it. The generator
/// thread both sends and collects (it polls outstanding responses between
/// due times), so the loop adds one thread to the server's workers.

#ifndef PERFBENCH_SERVE_LOOP_H_
#define PERFBENCH_SERVE_LOOP_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "probes.h"
#include "serve/server.h"

namespace perfbench {

struct OpenLoopOptions {
  double rate_per_second = 10.0;
  /// Requests due in this first stretch warm the server up (allocator
  /// arenas, caches); they are answered and checked but not measured.
  double warmup_seconds = 0.0;
  /// Requests are due during this many seconds after the warm-up; the loop
  /// then waits for the outstanding ones.
  double seconds = 1.0;
  /// Builds request `index` (on the generator thread, at its due time).
  std::function<lmfao::Request(int64_t index)> make;
  /// Traced runs record a `serve.request` span for every other request.
  bool trace = false;
  /// A probe's requests are not measured operations (their spans carry no
  /// operation id).
  bool probe = false;
};

struct CompletedRequest {
  int64_t index = 0;
  lmfao::RequestClass cls = lmfao::RequestClass::kPreparedExecute;
  std::string text;  ///< Ad-hoc text, if any.
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;
  bool warmup = false;
  lmfao::Response response;

  double latency_ms() const { return (done - due) * 1e3; }
};

struct OpenLoopResult {
  std::vector<CompletedRequest> completed;
  /// From the first measured due time to the last response.
  double wall_seconds = 0.0;
  /// Most the generator sent a measured request after its due time.
  double late_ms_max = 0.0;
};

OpenLoopResult RunOpenLoop(lmfao::Server* server,
                           const OpenLoopOptions& options);

/// Copies the server counters into `raw` (`serve.*` scalars).
void RecordServerStats(const lmfao::ServerStats& stats, RawRecord* raw);

/// Checks served responses by replaying each through a sequential
/// PreparedBatch::ExecuteAt at the response's epoch (one replay per batch
/// and epoch).
class Replayer {
 public:
  Replayer(const lmfao::Catalog* catalog, const lmfao::JoinTree* tree)
      : engine_(catalog, tree, BaseOptions(1)) {}
  /// True when `response` is OK and matches the replay of `batch` (named
  /// `key`) under `params`.
  bool Matches(const std::string& key, const lmfao::QueryBatch& batch,
               const lmfao::ParamPack& params,
               const lmfao::Response& response);

 private:
  lmfao::Engine engine_;
  std::map<std::string, lmfao::PreparedBatch> prepared_;
  std::map<std::pair<std::string, std::vector<size_t>>,
           std::vector<lmfao::QueryResult>>
      replays_;
};

/// Serving probe: registers the target batch with a one-worker server and
/// sends `requests` prepared requests open-loop at `rate_per_second`.
/// Returns false when a response fails or its replay disagrees.
bool ProbeServe(const ProbeTarget& target, int requests,
                double rate_per_second, RawRecord* raw);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_LOOP_H_
