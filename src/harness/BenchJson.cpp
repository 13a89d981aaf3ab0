//===- harness/BenchJson.cpp - Bench result files with declared fields -------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "harness/BenchJson.h"

#include <cassert>
#include <cstdio>

using namespace rio;

BenchJson &BenchJson::row(const std::string &Config) {
  assert((Rows.empty() || NextField == Decls.size()) &&
         "previous row left a declared field unwritten");
  Rows.push_back("{\"config\": \"" + Config + "\"");
  NextField = 0;
  return *this;
}

BenchJson &BenchJson::field(const char *Key, bool Exact,
                            const std::string &Text) {
  assert(!Rows.empty() && "field written before the first row");
  if (Rows.size() == 1)
    Decls.push_back({Key, Exact});
  assert(NextField < Decls.size() && Decls[NextField].Key == Key &&
         Decls[NextField].Exact == Exact &&
         "rows must write the fields the first row declared, in order");
  ++NextField;
  Rows.back() += std::string(", \"") + Key + "\": " + Text;
  return *this;
}

BenchJson &BenchJson::exact(const char *Key, uint64_t Value) {
  return field(Key, true, std::to_string(Value));
}

BenchJson &BenchJson::host(const char *Key, uint64_t Value) {
  return field(Key, false, std::to_string(Value));
}

BenchJson &BenchJson::host(const char *Key, double Value) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.3f", Value);
  return field(Key, false, Buf);
}

bool BenchJson::write(const char *Path) const {
  auto Names = [&](bool Exact) {
    std::string List;
    for (const Decl &D : Decls)
      if (D.Exact == Exact)
        List += (List.empty() ? "\"" : ", \"") + D.Key + "\"";
    return List;
  };
  std::string Out = "{\"exact\": [" + Names(true) + "],\n \"host\": [" +
                    Names(false) + "],\n \"rows\": [\n";
  for (size_t Idx = 0; Idx != Rows.size(); ++Idx)
    Out += "  " + Rows[Idx] + (Idx + 1 == Rows.size() ? "}\n" : "},\n");
  Out += "]}\n";

  std::FILE *F = std::fopen(Path, "w");
  bool Ok = F && std::fwrite(Out.data(), 1, Out.size(), F) == Out.size();
  if (F)
    Ok = std::fclose(F) == 0 && Ok;
  if (!Ok)
    std::fprintf(stderr, "cannot write %s\n", Path);
  return Ok;
}
