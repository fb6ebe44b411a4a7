#include "dse/sweep.h"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <variant>

#include "common/error.h"
#include "common/math_util.h"
#include "common/strings.h"

namespace db::dse {
namespace {

/// The integer axes: the value list each one fills and its range.
struct IntAxis {
  const char* name;
  std::variant<std::vector<int> SweepSpec::*,
               std::vector<std::int64_t> SweepSpec::*>
      field;
  std::int64_t lo;
  std::int64_t hi;
};
const IntAxis kIntAxes[] = {
    {"lanes", &SweepSpec::lanes_pct, 1, 1600},
    {"port", &SweepSpec::port_elems, 2, 256},
    {"split", &SweepSpec::data_split_pct, 5, 90},
};

template <typename T>
void SortUnique(std::vector<T>& values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
}

}  // namespace

std::string CandidateSpec::ToString() const {
  return StrFormat("lanes=%d%%,port=%lld,split=%d%%,dsp=%s", lanes_pct,
                   static_cast<long long>(port_elems), data_split_pct,
                   allow_dsp ? "on" : "off");
}

std::size_t SweepSpec::CandidateCount() const {
  return lanes_pct.size() * port_elems.size() * data_split_pct.size() *
         allow_dsp.size();
}

std::vector<CandidateSpec> SweepSpec::Enumerate() const {
  std::vector<CandidateSpec> specs;
  specs.reserve(CandidateCount());
  for (int lanes : lanes_pct)
    for (std::int64_t port : port_elems)
      for (int split : data_split_pct)
        for (bool dsp : allow_dsp) {
          CandidateSpec spec;
          spec.lanes_pct = lanes;
          spec.port_elems = port;
          spec.data_split_pct = split;
          spec.allow_dsp = dsp;
          specs.push_back(spec);
        }
  return specs;
}

std::string SweepSpec::ToString() const {
  std::ostringstream os;
  auto join = [&os](const char* axis, const auto& values,
                    auto&& render) {
    os << axis << "=";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) os << ",";
      os << render(values[i]);
    }
  };
  join("lanes", lanes_pct, [](int v) { return std::to_string(v); });
  os << ";";
  join("port", port_elems,
       [](std::int64_t v) { return std::to_string(v); });
  os << ";";
  join("split", data_split_pct,
       [](int v) { return std::to_string(v); });
  os << ";";
  join("dsp", allow_dsp,
       [](bool v) { return std::string(v ? "on" : "off"); });
  return os.str();
}

SweepSpec ParseSweepSpec(const std::string& text) {
  SweepSpec spec;
  std::vector<std::string> seen;
  for (const SpecField& clause : SpecFields(text, ';', "sweep spec")) {
    const std::string what = "sweep axis '" + clause.key + "'";
    if (std::find(seen.begin(), seen.end(), clause.key) != seen.end())
      throw Error("duplicate " + what);
    seen.push_back(clause.key);
    std::vector<std::string> values;
    for (const std::string& v : Split(clause.value, ','))
      if (!Trim(v).empty()) values.emplace_back(Trim(v));
    if (values.empty()) throw Error(what + " has an empty value list");
    if (clause.key == "dsp") {
      spec.allow_dsp.clear();
      for (const std::string& v : values) {
        if (v != "on" && v != "off")
          throw Error(what + ": '" + v + "' is not 'on' or 'off'");
        spec.allow_dsp.push_back(v == "on");
      }
      continue;
    }
    const IntAxis* axis = std::find_if(
        std::begin(kIntAxes), std::end(kIntAxes),
        [&](const IntAxis& a) { return clause.key == a.name; });
    if (axis == std::end(kIntAxes))
      throw Error("unknown " + what +
                  " (expected lanes, port, split or dsp)");
    std::visit(
        [&](auto member) {
          auto& list = spec.*member;
          using T = typename std::decay_t<decltype(list)>::value_type;
          list.clear();
          for (const std::string& v : values)
            list.push_back(
                static_cast<T>(ParseInt(v, axis->lo, axis->hi, what)));
        },
        axis->field);
  }
  for (std::int64_t port : spec.port_elems)
    if (!IsPow2(port))
      throw Error(StrFormat("sweep axis 'port': %lld is not a power of two",
                            static_cast<long long>(port)));
  SortUnique(spec.lanes_pct);
  SortUnique(spec.port_elems);
  SortUnique(spec.data_split_pct);
  // dsp sorts descending so "on" precedes "off", matching the default
  // spec's stored order (canonical ToString must round-trip).
  std::sort(spec.allow_dsp.begin(), spec.allow_dsp.end(),
            std::greater<>());
  spec.allow_dsp.erase(
      std::unique(spec.allow_dsp.begin(), spec.allow_dsp.end()),
      spec.allow_dsp.end());
  return spec;
}

}  // namespace db::dse
