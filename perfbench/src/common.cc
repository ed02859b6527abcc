#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "baseline/naive_engine.h"

namespace perfbench {

using namespace lmfao;

void RawRecord::SetMax(const std::string& key, double value) {
  auto it = scalars_.find(key);
  if (it == scalars_.end() || value > it->second) scalars_[key] = value;
}

namespace {

void WriteNumber(std::ostream& out, double v) {
  if (!std::isfinite(v)) {
    out << "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out << buf;
}

}  // namespace

bool RawRecord::Write(const std::string& path) const {
  std::ostringstream out;
  out << "{\"series\": {";
  bool first = true;
  for (const auto& [name, values] : series_) {
    out << (first ? "" : ", ") << '"' << name << "\": [";
    for (size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out << ", ";
      WriteNumber(out, values[i]);
    }
    out << ']';
    first = false;
  }
  out << "}, \"scalars\": {";
  first = true;
  for (const auto& [name, value] : scalars_) {
    out << (first ? "" : ", ") << '"' << name << "\": ";
    WriteNumber(out, value);
    first = false;
  }
  out << "}}\n";
  std::ofstream file(path);
  file << out.str();
  return static_cast<bool>(file);
}

double NowSeconds() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

bool ResetPeakRss() {
  // "5" resets the peak-RSS high-water mark (proc(5), clear_refs).
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

namespace {

bool BitIdentical(const QueryResult& a, const QueryResult& b) {
  if (a.group_by != b.group_by || a.data.width() != b.data.width() ||
      a.data.size() != b.data.size()) {
    return false;
  }
  const size_t bytes = sizeof(double) * static_cast<size_t>(a.data.width());
  bool same = true;
  a.data.ForEach([&](const TupleKey& key, const double* payload) {
    if (!same) return;
    const double* other = b.data.Lookup(key);
    same = other != nullptr && std::memcmp(payload, other, bytes) == 0;
  });
  return same;
}

}  // namespace

Comparison CompareResults(const std::vector<QueryResult>& got,
                          const std::vector<QueryResult>& want,
                          double rel_tol) {
  Comparison c;
  if (got.size() != want.size()) {
    c.mismatched = static_cast<int>(std::max(got.size(), want.size()));
    c.bitdiff = c.mismatched;
    return c;
  }
  for (size_t q = 0; q < got.size(); ++q) {
    if (BitIdentical(got[q], want[q])) continue;
    ++c.bitdiff;
    if (!ResultsEquivalent(got[q], want[q], rel_tol)) ++c.mismatched;
  }
  return c;
}

EngineOptions BaseOptions(int threads) {
  EngineOptions options;
  options.jit.mode = JitMode::kOff;
  options.scheduler.num_threads = threads;
  return options;
}

std::unique_ptr<RetailerData> MakeRetailerData(int64_t inventory_rows,
                                               uint64_t seed) {
  RetailerOptions options;
  options.num_inventory = inventory_rows;
  options.num_locations = 100;
  options.num_dates = 200;
  options.num_items = 2000;
  options.num_zips = 50;
  options.seed = seed;
  return ValueOrDie(MakeRetailer(options), "generate Retailer");
}

std::unique_ptr<FavoritaData> MakeFavoritaData(int64_t sales_rows,
                                               uint64_t seed) {
  FavoritaOptions options;
  options.num_sales = sales_rows;
  // 54 stores (the real dataset's count) rather than the generator's 18:
  // with 18, the random store attributes (type, cluster) cover a different
  // share of their domains for every seed, and the covariance outputs, and
  // with them execute time, vary by up to 40% between seeds.
  options.num_stores = 54;
  options.seed = seed;
  return ValueOrDie(MakeFavorita(options), "generate Favorita");
}

FeatureSet RetailerFeatures(const RetailerData& db) {
  FeatureSet features;
  features.label = db.inventoryunits;
  for (AttrId a : db.continuous) {
    if (a != db.inventoryunits) features.continuous.push_back(a);
  }
  features.categorical = db.categorical;
  return features;
}

FeatureSet FavoritaFeatures(const FavoritaData& db) {
  FeatureSet features;
  features.label = db.units;
  features.continuous = {db.txns, db.price};
  features.categorical = {db.stype, db.family, db.promo, db.cluster};
  return features;
}

Status AppendCopiedRows(Catalog* catalog, RelationId rel, size_t n, Rng* rng) {
  const size_t committed = catalog->CommittedRows(rel);
  if (committed == 0 || n == 0) return Status::OK();
  n = std::min(n, committed);
  const size_t lo = rng->Uniform(committed - n + 1);
  // The caller is the only appender, so the committed prefix cannot move
  // under this read.
  return catalog->Append(rel, catalog->relation(rel).SliceRows(lo, lo + n));
}

void CheckOk(const Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
               status.ToString().c_str());
  std::exit(2);
}

}  // namespace perfbench
