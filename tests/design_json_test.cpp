// Tests for the JSON design export.
#include <gtest/gtest.h>

#include "core/design_json.h"
#include "models/zoo.h"

namespace db {
namespace {

/// Structural JSON check: balanced braces/brackets outside strings.
void ExpectBalanced(const std::string& json) {
  int braces = 0, brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\'))
      in_string = !in_string;
    if (in_string) continue;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
}

TEST(DesignJson, BalancedAndKeyed) {
  const AcceleratorDesign design = GenerateAccelerator(
      BuildZooModel(ZooModel::kMnist), DbConstraint());
  const std::string json = DesignToJson(design);
  ExpectBalanced(json);
  for (const char* key :
       {"\"config\"", "\"resources\"", "\"folds\"", "\"memory_map\"",
        "\"agu_patterns\"", "\"schedule\"", "\"approx_luts\"",
        "\"rtl_top\""})
    EXPECT_NE(json.find(key), std::string::npos) << key;
}

TEST(DesignJson, ValuesMatchDesign) {
  const AcceleratorDesign design = GenerateAccelerator(
      BuildZooModel(ZooModel::kAnn0Fft), DbConstraint());
  const std::string json = DesignToJson(design);
  EXPECT_NE(json.find("\"network\": \"ann0_fft\""), std::string::npos);
  EXPECT_NE(json.find("\"dsp\": " +
                      std::to_string(design.resources.total.dsp)),
            std::string::npos);
  EXPECT_NE(json.find("\"rtl_top\": \"" + design.rtl.top + "\""),
            std::string::npos);
  // One fold object per compute layer.
  std::size_t count = 0, pos = 0;
  while ((pos = json.find("\"unit_work\"", pos)) != std::string::npos) {
    ++count;
    pos += 1;
  }
  EXPECT_EQ(count, design.fold_plan.folds.size());
  // One schedule row per compute layer.
  count = 0;
  for (pos = 0; (pos = json.find("\"shift\"", pos)) != std::string::npos;
       ++pos)
    ++count;
  EXPECT_EQ(count, design.schedule.entries.size());
}

TEST(DesignJson, Deterministic) {
  const Network net = BuildZooModel(ZooModel::kCmac);
  const std::string a =
      DesignToJson(GenerateAccelerator(net, DbConstraint()));
  const std::string b =
      DesignToJson(GenerateAccelerator(net, DbConstraint()));
  EXPECT_EQ(a, b);
}

TEST(DesignJson, EscapesQuotesInNames) {
  // Layer names come from user scripts; the writer must escape them.
  AcceleratorDesign design;
  design.config.network_name = "we\"ird";
  const std::string json = DesignToJson(design);
  EXPECT_NE(json.find("we\\\"ird"), std::string::npos);
  ExpectBalanced(json);
}

}  // namespace
}  // namespace db
