//===- bench/BenchJson.h - The one bench row writer --------------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every bench with a checked-in baseline (bench/BENCH_<name>.baseline.json)
/// writes its results as one JSON array of rows:
///
///   {"config": str, "exact": {name: int}, "host": {name: number}}
///
/// `exact` holds simulated cycles and deterministic counts:
/// scripts/bench_compare.py fails on any difference, in either direction.
/// `host` holds wall-clock ns and RSS KB, all lower-is-better; they depend
/// on the machine, so the compare script only warns on them.
///
//===----------------------------------------------------------------------===//

#ifndef RIO_BENCH_BENCHJSON_H
#define RIO_BENCH_BENCHJSON_H

#include "support/OutStream.h"

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace rio {

using BenchFields = std::vector<std::pair<const char *, uint64_t>>;

struct BenchRow {
  std::string Config;
  BenchFields Exact;
  BenchFields Host;
};

/// Writes \p Rows to \p Path, one row per line, and says so on stdout.
/// Returns false (after printing why) if the file cannot be written.
inline bool writeBenchJson(const char *Path,
                           const std::vector<BenchRow> &Rows) {
  std::FILE *F = std::fopen(Path, "w");
  if (!F) {
    errs().printf("cannot write %s\n", Path);
    return false;
  }
  auto Object = [F](const BenchFields &Fields) {
    std::fputc('{', F);
    for (size_t Idx = 0; Idx != Fields.size(); ++Idx)
      std::fprintf(F, "%s\"%s\": %llu", Idx ? ", " : "", Fields[Idx].first,
                   (unsigned long long)Fields[Idx].second);
    std::fputc('}', F);
  };
  std::fprintf(F, "[\n");
  for (size_t Idx = 0; Idx != Rows.size(); ++Idx) {
    std::fprintf(F, "  {\"config\": \"%s\", \"exact\": ",
                 Rows[Idx].Config.c_str());
    Object(Rows[Idx].Exact);
    std::fprintf(F, ", \"host\": ");
    Object(Rows[Idx].Host);
    std::fprintf(F, "}%s\n", Idx + 1 == Rows.size() ? "" : ",");
  }
  std::fprintf(F, "]\n");
  if (std::fclose(F) != 0) {
    errs().printf("cannot write %s\n", Path);
    return false;
  }
  outs().printf("wrote %s\n", Path);
  return true;
}

} // namespace rio

#endif // RIO_BENCH_BENCHJSON_H
