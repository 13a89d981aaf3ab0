//===- harness/BenchJson.h - Bench result files with declared fields ---------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one writer of the BENCH_*.json result files. Every field is declared
/// once, by the call that writes it, as *exact* — a simulated result that
/// must stay bit-identical across commits — or *host* — wall clock, RSS,
/// anything the host machine decides. The file carries those declarations
/// next to its rows, and scripts/bench_compare.py gates from them alone:
/// exact fields fail on any change, host fields are shown and warned on.
///
///   {"exact": ["cycles", ...], "host": ["host_ns", ...],
///    "rows": [
///     {"config": "crafty", "cycles": 2311526, "host_ns": 80239},
///     ...]}
///
//===----------------------------------------------------------------------===//

#ifndef RIO_HARNESS_BENCHJSON_H
#define RIO_HARNESS_BENCHJSON_H

#include <cstdint>
#include <string>
#include <vector>

namespace rio {

class BenchJson {
public:
  /// Starts the row named \p Config. Every row writes the same fields in
  /// the same order as the first.
  BenchJson &row(const std::string &Config);
  BenchJson &exact(const char *Key, uint64_t Value);
  BenchJson &host(const char *Key, uint64_t Value);
  BenchJson &host(const char *Key, double Value);

  /// Writes the file; reports to stderr and returns false on failure.
  bool write(const char *Path) const;

private:
  BenchJson &field(const char *Key, bool Exact, const std::string &Text);

  struct Decl {
    std::string Key;
    bool Exact;
  };
  std::vector<Decl> Decls;
  std::vector<std::string> Rows;
  size_t NextField = 0;
};

} // namespace rio

#endif // RIO_HARNESS_BENCHJSON_H
