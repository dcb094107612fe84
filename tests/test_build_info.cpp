// Guards on the build configuration itself: the library hard-requires C++20
// (std::source_location in util/error.hpp, std::numbers in util/rng.cpp),
// and the OpenMP state of parallel_for must be visible in test reports so a
// silently-serial build is caught in CI, not in a bench regression.  The
// floating-point contraction setting is checked too (the bit-identity
// oracles depend on it), and so is the function alignment that keeps speed
// comparisons independent of code layout.
#include <string>

#include <gtest/gtest.h>

#include "util/parallel.hpp"

namespace r4ncl {
namespace {

TEST(BuildInfo, CompiledAsCpp20OrLater) {
  static_assert(__cplusplus >= 202002L, "r4ncl requires C++20");
  EXPECT_GE(__cplusplus, 202002L);
}

TEST(BuildInfo, ReportsOpenMpState) {
  RecordProperty("openmp_enabled", openmp_enabled() ? 1 : 0);
  if (openmp_enabled()) {
    SUCCEED() << "parallel_for dispatches via OpenMP";
  } else {
    SUCCEED() << "parallel_for uses the std::thread fallback (OpenMP absent "
                 "at build time)";
  }
}

TEST(BuildInfo, ThreadCountIsSane) {
  EXPECT_GE(num_threads(), 1);
}

// The bit-identity oracles (test_bptt_identity, test_hot_path, the golden
// digests) compare differently shaped float loops, which agree only when
// every product is rounded before it is added.  GCC and Clang fuse a*b + c
// into an FMA wherever the ISA has one unless -ffp-contract=off is in force,
// so the library must have been configured with it as the last word.
TEST(BuildInfo, FpContractOff) {
  const std::string flags = R4NCL_EFFECTIVE_CXX_FLAGS;
  RecordProperty("effective_cxx_flags", flags);
#if defined(__GNUC__)
  const std::size_t last = flags.rfind("-ffp-contract=");
  ASSERT_NE(last, std::string::npos)
      << "-ffp-contract=off is missing from the library's compile flags; the "
         "bit-identity suites are not protected against FMA contraction: "
      << flags;
  EXPECT_EQ(flags.substr(last, flags.find(' ', last) - last), "-ffp-contract=off")
      << "a later -ffp-contract= overrides the tree-wide -ffp-contract=off: " << flags;
#else
  GTEST_SKIP() << "-ffp-contract is a GCC/Clang flag; compiler flags: " << flags;
#endif
}

// Speed comparisons between two builds of the library compare code only when
// its layout is pinned: without function alignment, adding one object file
// shifts every later hot function's offset within its cache line, which was
// seen to move unchanged pre-training and evaluation code by 13-21%.  Every
// module therefore compiles with -falign-functions=64 as the last word.
TEST(BuildInfo, FunctionAlignment) {
  const std::string flags = R4NCL_EFFECTIVE_CXX_FLAGS;
  RecordProperty("effective_cxx_flags", flags);
#if defined(__GNUC__)
  const std::size_t last = flags.rfind("-falign-functions");
  ASSERT_NE(last, std::string::npos)
      << "-falign-functions=64 is missing from the library's compile flags: " << flags;
  EXPECT_EQ(flags.substr(last, flags.find(' ', last) - last), "-falign-functions=64")
      << "a later -falign-functions overrides the library's -falign-functions=64: " << flags;
#else
  GTEST_SKIP() << "-falign-functions is a GCC/Clang flag; compiler flags: " << flags;
#endif
}

}  // namespace
}  // namespace r4ncl
