// Tests for the designer constraint frontend.
#include <gtest/gtest.h>

#include "common/error.h"
#include "frontend/constraint.h"

namespace db {
namespace {

TEST(Constraint, Defaults) {
  const DesignConstraint c = ParseConstraint("");
  EXPECT_EQ(c.device, "zynq-7045");
  EXPECT_EQ(c.budget, BudgetLevel::kMedium);
  EXPECT_EQ(c.bit_width, 16);
  EXPECT_EQ(c.frac_bits, 8);
  EXPECT_DOUBLE_EQ(c.frequency_mhz, 100.0);
}

TEST(Constraint, ParseAllFields) {
  const DesignConstraint c = ParseConstraint(
      "device: \"zynq-7020\"\nbudget: LOW\nbit_width: 12\nfrac_bits: 6\n"
      "frequency_mhz: 150\ndram_bandwidth_gbs: 3.5\n"
      "approx_lut_entries: 128\napprox_lut_interpolate: false\n"
      "dsp: 40\nlut: 10000\nff: 20000\nbram_kb: 256\n");
  EXPECT_EQ(c.device, "zynq-7020");
  EXPECT_EQ(c.budget, BudgetLevel::kLow);
  EXPECT_EQ(c.bit_width, 12);
  EXPECT_EQ(c.frac_bits, 6);
  EXPECT_DOUBLE_EQ(c.frequency_mhz, 150.0);
  EXPECT_DOUBLE_EQ(c.dram_bandwidth_gbs, 3.5);
  EXPECT_EQ(c.approx_lut_entries, 128);
  EXPECT_FALSE(c.approx_lut_interpolate);
  EXPECT_EQ(c.explicit_budget.dsp, 40);
  EXPECT_EQ(c.explicit_budget.lut, 10000);
  EXPECT_EQ(c.explicit_budget.ff, 20000);
  EXPECT_EQ(c.explicit_budget.bram_bytes, 256 * 1024);
}

TEST(Constraint, MediateAliasAccepted) {
  // The paper calls the DB scheme a "mediate resource budget".
  const DesignConstraint c = ParseConstraint("budget: MEDIATE\n");
  EXPECT_EQ(c.budget, BudgetLevel::kMedium);
}

TEST(Constraint, UnknownFieldRejected) {
  EXPECT_THROW(ParseConstraint("bogus_field: 3\n"), ParseError);
}

TEST(Constraint, UnknownBudgetRejected) {
  EXPECT_THROW(ParseConstraint("budget: GIGANTIC\n"), ParseError);
}

TEST(Constraint, InvalidBitWidthRejected) {
  EXPECT_THROW(ParseConstraint("bit_width: 64\n"), Error);
  EXPECT_THROW(ParseConstraint("bit_width: 2\n"), Error);
  EXPECT_THROW(ParseConstraint("bit_width: 8\nfrac_bits: 8\n"), Error);
  // Range-checked before narrowing or scaling: 2^32 + 8 is not a width
  // of 8, and kilobytes x 1024 must fit int64.
  EXPECT_THROW(ParseConstraint("bit_width: 4294967304\n"), Error);
  EXPECT_THROW(ParseConstraint("bram_kb: 9223372036854775807\n"), Error);
}

TEST(Constraint, InvalidFrequencyRejected) {
  EXPECT_THROW(ParseConstraint("frequency_mhz: 0\n"), Error);
  EXPECT_THROW(ParseConstraint("frequency_mhz: -5\n"), Error);
}

TEST(Constraint, InvalidLutEntriesRejected) {
  EXPECT_THROW(ParseConstraint("approx_lut_entries: 1\n"), Error);
}

TEST(Constraint, RoundTripSerialisation) {
  const DesignConstraint original = ParseConstraint(
      "device: \"zynq-7020\"\nbudget: HIGH\nbit_width: 20\n"
      "frac_bits: 10\ndsp: 17\n");
  const DesignConstraint reparsed =
      ParseConstraint(ConstraintToPrototxt(original));
  EXPECT_EQ(reparsed.device, original.device);
  EXPECT_EQ(reparsed.budget, original.budget);
  EXPECT_EQ(reparsed.bit_width, original.bit_width);
  EXPECT_EQ(reparsed.frac_bits, original.frac_bits);
  EXPECT_EQ(reparsed.explicit_budget.dsp, original.explicit_budget.dsp);
}

TEST(ResourceBudget, FitsChecksEveryAxis) {
  ResourceBudget budget{10, 100, 200, 1024};
  EXPECT_TRUE(budget.Fits({10, 100, 200, 1024}));
  EXPECT_TRUE(budget.Fits({0, 0, 0, 0}));
  EXPECT_FALSE(budget.Fits({11, 0, 0, 0}));
  EXPECT_FALSE(budget.Fits({0, 101, 0, 0}));
  EXPECT_FALSE(budget.Fits({0, 0, 201, 0}));
  EXPECT_FALSE(budget.Fits({0, 0, 0, 1025}));
}

TEST(ResourceBudget, ScaledRoundsDown) {
  ResourceBudget b{10, 100, 1000, 2048};
  ResourceBudget half = b.Scaled(0.5);
  EXPECT_EQ(half.dsp, 5);
  EXPECT_EQ(half.lut, 50);
  EXPECT_EQ(half.ff, 500);
  EXPECT_EQ(half.bram_bytes, 1024);
}

TEST(BudgetLevel, Names) {
  EXPECT_EQ(BudgetLevelName(BudgetLevel::kLow), "LOW");
  EXPECT_EQ(BudgetLevelName(BudgetLevel::kMedium), "MEDIUM");
  EXPECT_EQ(BudgetLevelName(BudgetLevel::kHigh), "HIGH");
}

}  // namespace
}  // namespace db
