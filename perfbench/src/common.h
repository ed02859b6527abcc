/// \file common.h
/// \brief Shared pieces of the benchmark binary: arguments, the raw-sample
/// record it hands to run.py, peak-memory probes, result comparison and the
/// data helpers the three workloads share.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "data/favorita.h"
#include "data/retailer.h"
#include "engine/engine.h"
#include "ml/feature.h"
#include "util/random.h"
#include "util/status.h"

namespace perfbench {

/// Command-line arguments of the benchmark binary.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// serve-mixed request rate override (requests per second); 0 keeps the
  /// workload's fixed rate. For measuring capacity, not for recorded runs.
  double rate = 0.0;
  /// Whether to run the once-per-run cross-checks against the scan
  /// baseline (run.py splits a run over several processes and asks only
  /// the first one for them).
  bool cross_check = true;
  /// Where the raw samples go (JSON, read by run.py).
  std::string out_path;
  /// Where the Chrome trace goes (trace runs only).
  std::string trace_path;
};

/// Threads any workload may keep busy at once: its engine threads or server
/// workers, plus the calling thread that drives the load.
constexpr int kThreadBudget = 4;

/// Raw figures of one run: sample series and scalars, written as one JSON
/// object. run.py derives every reported metric from it.
class RawRecord {
 public:
  void Add(const std::string& series, double value) {
    series_[series].push_back(value);
  }
  void Set(const std::string& key, double value) { scalars_[key] = value; }
  void Increment(const std::string& key, double delta = 1.0) {
    scalars_[key] += delta;
  }
  void SetMax(const std::string& key, double value);
  bool Write(const std::string& path) const;

 private:
  std::map<std::string, std::vector<double>> series_;
  std::map<std::string, double> scalars_;
};

/// Seconds on the steady clock since the first call in this process.
double NowSeconds();

/// Starts the process's peak-RSS high-water mark afresh at its current RSS,
/// so reference computations run earlier do not set the reported peak.
/// Returns false when the kernel refuses.
bool ResetPeakRss();
/// Peak resident memory (VmHWM) in MiB.
double PeakRssMib();

/// How a result set compares with a reference.
struct Comparison {
  /// Queries outside the relative tolerance (or with a different shape).
  int mismatched = 0;
  /// Queries whose payload bits differ anywhere (even within tolerance).
  int bitdiff = 0;
};
Comparison CompareResults(const std::vector<lmfao::QueryResult>& got,
                          const std::vector<lmfao::QueryResult>& want,
                          double rel_tol);

/// The tolerance the repository promises for real-float data.
constexpr double kRelTol = 1e-9;

/// Engine options every workload starts from: the JIT is pinned off (the
/// ambient LMFAO_JIT must not change what is measured) and the scheduler
/// runs `threads` threads.
lmfao::EngineOptions BaseOptions(int threads);

/// Dataset generators; the seed feeds the generator.
std::unique_ptr<lmfao::RetailerData> MakeRetailerData(int64_t inventory_rows,
                                                      uint64_t seed);
std::unique_ptr<lmfao::FavoritaData> MakeFavoritaData(int64_t sales_rows,
                                                      uint64_t seed);
/// The learning tasks of the paper on each dataset.
lmfao::FeatureSet RetailerFeatures(const lmfao::RetailerData& db);
lmfao::FeatureSet FavoritaFeatures(const lmfao::FavoritaData& db);

/// Appends `n` copies of a random contiguous run of committed rows of
/// `rel` (join-compatible by construction). The caller must be the only
/// thread that appends.
lmfao::Status AppendCopiedRows(lmfao::Catalog* catalog, lmfao::RelationId rel,
                               size_t n, lmfao::Rng* rng);

/// Aborts the process with `what` when `status` is not OK: the benchmark
/// has no partial result worth printing after a failed set-up step.
void CheckOk(const lmfao::Status& status, const char* what);
template <typename T>
T ValueOrDie(lmfao::StatusOr<T> value, const char* what) {
  CheckOk(value.status(), what);
  return std::move(value).value();
}

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
