// Build-system sanity checks: the generated version header is visible and
// coherent, and invalid (n, m) ECC geometries are rejected at every public
// entry point that accepts one (paper footnote 1: m must be odd; the block
// grid requires m to divide n).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "arch/params.hpp"
#include "core/array_code.hpp"
#include "core/geometry.hpp"
#include "oracle/check_memory.hpp"
#include "pimecc/version.hpp"

namespace {

// ------------------------------------------------------------ version macros

TEST(BuildSanity, VersionMacrosAreCoherent) {
  static_assert(PIMECC_VERSION_MAJOR >= 0);
  static_assert(PIMECC_VERSION_MINOR >= 0);
  static_assert(PIMECC_VERSION_PATCH >= 0);
  const std::string expected = std::to_string(PIMECC_VERSION_MAJOR) + "." +
                               std::to_string(PIMECC_VERSION_MINOR) + "." +
                               std::to_string(PIMECC_VERSION_PATCH);
  EXPECT_EQ(expected, PIMECC_VERSION_STRING);
  EXPECT_EQ(expected, pimecc::version());
}

TEST(BuildSanity, LanguageStandardIsCxx20) {
  static_assert(__cplusplus >= 202002L, "pimecc requires C++20");
  SUCCEED();
}

// ------------------------------------------- invalid (n, m) pair rejection

TEST(BuildSanity, ArrayCodeAcceptsPaperGeometry) {
  const pimecc::ecc::ArrayCode code(1020, 15);
  EXPECT_EQ(code.n(), 1020u);
  EXPECT_EQ(code.m(), 15u);
  EXPECT_EQ(code.blocks_per_side(), 68u);
}

TEST(BuildSanity, ArrayCodeRejectsEvenBlockSize) {
  EXPECT_THROW(pimecc::ecc::ArrayCode(16, 4), std::invalid_argument);
  EXPECT_THROW(pimecc::ecc::ArrayCode(1020, 10), std::invalid_argument);
}

TEST(BuildSanity, ArrayCodeRejectsNonDividingBlockSize) {
  EXPECT_THROW(pimecc::ecc::ArrayCode(16, 3), std::invalid_argument);
  EXPECT_THROW(pimecc::ecc::ArrayCode(1020, 7), std::invalid_argument);
}

TEST(BuildSanity, ArrayCodeRejectsZeroSizes) {
  EXPECT_THROW(pimecc::ecc::ArrayCode(0, 15), std::invalid_argument);
  EXPECT_THROW(pimecc::ecc::ArrayCode(15, 0), std::invalid_argument);
}

TEST(BuildSanity, DiagonalGeometryRejectsEvenOrZeroBlockSize) {
  EXPECT_THROW(pimecc::ecc::DiagonalGeometry(4), std::invalid_argument);
  EXPECT_THROW(pimecc::ecc::DiagonalGeometry(0), std::invalid_argument);
  EXPECT_NO_THROW(pimecc::ecc::DiagonalGeometry(15));
}

TEST(BuildSanity, ArchParamsValidateRejectsInvalidGeometry) {
  pimecc::arch::ArchParams p;
  EXPECT_NO_THROW(p.validate());  // paper defaults: n = 1020, m = 15

  p.m = 12;  // even
  EXPECT_THROW(p.validate(), std::invalid_argument);

  p.m = 7;  // odd but does not divide 1020
  EXPECT_THROW(p.validate(), std::invalid_argument);

  p.m = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(BuildSanity, CheckMemoryRejectsInvalidParams) {
  pimecc::arch::ArchParams p;
  p.n = 60;
  p.m = 10;  // even
  EXPECT_THROW(pimecc::arch::CheckMemory{p}, std::invalid_argument);

  p.m = 7;  // does not divide 60
  EXPECT_THROW(pimecc::arch::CheckMemory{p}, std::invalid_argument);

  p.m = 0;  // must throw before blocks_per_side() divides by m
  EXPECT_THROW(pimecc::arch::CheckMemory{p}, std::invalid_argument);
}

}  // namespace
