#include "frontend/constraint.h"

#include <sstream>

#include "common/error.h"
#include "common/strings.h"
#include "frontend/prototxt.h"

namespace db {

std::string BudgetLevelName(BudgetLevel level) {
  switch (level) {
    case BudgetLevel::kLow: return "LOW";
    case BudgetLevel::kMedium: return "MEDIUM";
    case BudgetLevel::kHigh: return "HIGH";
  }
  return "?";
}

ResourceBudget ResourceBudget::Scaled(double fraction) const {
  ResourceBudget out;
  out.dsp = static_cast<std::int64_t>(static_cast<double>(dsp) * fraction);
  out.lut = static_cast<std::int64_t>(static_cast<double>(lut) * fraction);
  out.ff = static_cast<std::int64_t>(static_cast<double>(ff) * fraction);
  out.bram_bytes = static_cast<std::int64_t>(
      static_cast<double>(bram_bytes) * fraction);
  return out;
}

std::string ResourceBudget::ToString() const {
  std::ostringstream os;
  os << "{dsp=" << dsp << ", lut=" << lut << ", ff=" << ff
     << ", bram=" << bram_bytes / 1024 << "KiB}";
  return os.str();
}

DesignConstraint ParseConstraint(const std::string& prototxt_text) {
  const PtMessage root = ParsePrototxt(prototxt_text);
  DesignConstraint c;
  for (const PtField& f : root.fields()) {
    if (f.name == "device") {
      c.device = ToLower(root.GetString("device", c.device));
    } else if (f.name == "budget") {
      const std::string level = root.GetEnum("budget", "medium");
      if (level == "low") {
        c.budget = BudgetLevel::kLow;
      } else if (level == "medium" || level == "mediate") {
        c.budget = BudgetLevel::kMedium;
      } else if (level == "high") {
        c.budget = BudgetLevel::kHigh;
      } else {
        throw ParseError(f.line, "unknown budget level '" + level + "'");
      }
    } else if (f.name == "bit_width") {
      c.bit_width = static_cast<int>(root.GetInt("bit_width", 0, 4, 32));
    } else if (f.name == "frac_bits") {
      c.frac_bits = static_cast<int>(root.GetInt("frac_bits", 0, 0, 31));
    } else if (f.name == "frequency_mhz") {
      c.frequency_mhz = root.GetDouble("frequency_mhz", c.frequency_mhz);
    } else if (f.name == "dram_bandwidth_gbs") {
      c.dram_bandwidth_gbs =
          root.GetDouble("dram_bandwidth_gbs", c.dram_bandwidth_gbs);
    } else if (f.name == "approx_lut_entries") {
      c.approx_lut_entries =
          root.GetInt("approx_lut_entries", c.approx_lut_entries);
    } else if (f.name == "approx_lut_interpolate") {
      c.approx_lut_interpolate =
          root.GetBool("approx_lut_interpolate", true);
    } else if (f.name == "dsp") {
      c.explicit_budget.dsp = root.GetInt("dsp", 0);
    } else if (f.name == "lut") {
      c.explicit_budget.lut = root.GetInt("lut", 0);
    } else if (f.name == "ff") {
      c.explicit_budget.ff = root.GetInt("ff", 0);
    } else if (f.name == "bram_kb") {
      constexpr std::int64_t kMaxKb = INT64_MAX / 1024;
      c.explicit_budget.bram_bytes =
          root.GetInt("bram_kb", 0, -kMaxKb, kMaxKb) * 1024;
    } else {
      throw ParseError(f.line, "unknown constraint field '" + f.name + "'");
    }
  }
  if (c.frac_bits >= c.bit_width)
    DB_THROW("constraint frac_bits must be in [0,bit_width)");
  if (c.frequency_mhz <= 0.0) DB_THROW("frequency_mhz must be positive");
  if (c.dram_bandwidth_gbs <= 0.0)
    DB_THROW("dram_bandwidth_gbs must be positive");
  if (c.approx_lut_entries < 2)
    DB_THROW("approx_lut_entries must be >= 2");
  return c;
}

std::string ConstraintToPrototxt(const DesignConstraint& c) {
  std::ostringstream os;
  os << "device: \"" << c.device << "\"\n";
  os << "budget: " << BudgetLevelName(c.budget) << "\n";
  os << "bit_width: " << c.bit_width << "\n";
  os << "frac_bits: " << c.frac_bits << "\n";
  os << "frequency_mhz: " << FormatExactDouble(c.frequency_mhz) << "\n";
  os << "dram_bandwidth_gbs: " << FormatExactDouble(c.dram_bandwidth_gbs)
     << "\n";
  os << "approx_lut_entries: " << c.approx_lut_entries << "\n";
  os << "approx_lut_interpolate: "
     << (c.approx_lut_interpolate ? "true" : "false") << "\n";
  if (c.explicit_budget.dsp > 0) os << "dsp: " << c.explicit_budget.dsp
                                    << "\n";
  if (c.explicit_budget.lut > 0) os << "lut: " << c.explicit_budget.lut
                                    << "\n";
  if (c.explicit_budget.ff > 0) os << "ff: " << c.explicit_budget.ff << "\n";
  if (c.explicit_budget.bram_bytes > 0)
    os << "bram_kb: " << c.explicit_budget.bram_bytes / 1024 << "\n";
  return os.str();
}

}  // namespace db
