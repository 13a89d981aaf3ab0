//===- support/Compiler.h - Portability and diagnostics helpers ----------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small compiler portability helpers shared by every library in the tree.
///
//===----------------------------------------------------------------------===//

#ifndef RIO_SUPPORT_COMPILER_H
#define RIO_SUPPORT_COMPILER_H

#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace rio {

/// Marks a point in the program that can never be reached; aborts with a
/// message if it is. Used instead of assert(false) so that release builds
/// still trap instead of running off the end of a function.
[[noreturn]] inline void unreachableInternal(const char *Msg, const char *File,
                                             unsigned Line) {
  std::fprintf(stderr, "UNREACHABLE executed at %s:%u: %s\n", File, Line, Msg);
  std::abort();
}

} // namespace rio

#define RIO_UNREACHABLE(msg) ::rio::unreachableInternal(msg, __FILE__, __LINE__)

/// Branch-weight and layout hints for host hot paths (the interpreter
/// loop); RIO_COLD keeps a rare path out of line. They never change
/// behaviour, only code layout.
#if defined(__GNUC__) || defined(__clang__)
#define RIO_LIKELY(x) __builtin_expect(!!(x), 1)
#define RIO_UNLIKELY(x) __builtin_expect(!!(x), 0)
#define RIO_ALWAYS_INLINE inline __attribute__((always_inline))
#define RIO_COLD __attribute__((noinline, cold))
#else
#define RIO_LIKELY(x) (x)
#define RIO_UNLIKELY(x) (x)
#define RIO_ALWAYS_INLINE inline
#define RIO_COLD
#endif

#endif // RIO_SUPPORT_COMPILER_H
