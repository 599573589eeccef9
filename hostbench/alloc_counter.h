// Exact heap-allocation counting for the benchmark binary.
//
// alloc_counter.cpp replaces the global operator new family, so every
// allocation the process makes — testbed, generators, guard — bumps one
// counter. The benchmark reads differences of allocations() around the
// work it measures. The simulator is single-threaded and so is the
// benchmark, so the counter is a plain integer.
#pragma once

#include <cstdint>

namespace hostbench {

/// Heap allocations counted since process start.
[[nodiscard]] std::uint64_t allocations();

/// While one of these is alive, allocations are not counted. The output
/// checks wrap themselves in it, so their decodes do not inflate the
/// allocation figures of the code under test.
class UncountedScope {
 public:
  UncountedScope();
  ~UncountedScope();
  UncountedScope(const UncountedScope&) = delete;
  UncountedScope& operator=(const UncountedScope&) = delete;
};

}  // namespace hostbench
