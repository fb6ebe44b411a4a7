#include "analysis/diagnostics.h"

#include <algorithm>
#include <sstream>
#include <tuple>

#include "common/strings.h"

namespace db::analysis {

namespace {

int SeverityRank(Severity severity) {
  switch (severity) {
    case Severity::kError: return 0;
    case Severity::kWarning: return 1;
    case Severity::kNote: return 2;
  }
  return 3;
}

}  // namespace

std::string SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kError: return "error";
    case Severity::kWarning: return "warning";
    case Severity::kNote: return "note";
  }
  return "?";
}

void AnalysisReport::Add(Severity severity, std::string rule,
                         std::string location, std::string message) {
  diags_.push_back({severity, std::move(rule), std::move(location),
                    std::move(message)});
}

void AnalysisReport::Merge(const AnalysisReport& other) {
  diags_.insert(diags_.end(), other.diags_.begin(), other.diags_.end());
}

int AnalysisReport::ErrorCount() const {
  int n = 0;
  for (const Diagnostic& d : diags_)
    if (d.severity == Severity::kError) ++n;
  return n;
}

int AnalysisReport::WarningCount() const {
  int n = 0;
  for (const Diagnostic& d : diags_)
    if (d.severity == Severity::kWarning) ++n;
  return n;
}

bool AnalysisReport::HasRule(const std::string& rule) const {
  for (const Diagnostic& d : diags_)
    if (d.rule == rule) return true;
  return false;
}

std::vector<Diagnostic> AnalysisReport::Sorted() const {
  std::vector<Diagnostic> sorted = diags_;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return std::make_tuple(SeverityRank(a.severity),
                                            std::cref(a.rule),
                                            std::cref(a.location),
                                            std::cref(a.message)) <
                            std::make_tuple(SeverityRank(b.severity),
                                            std::cref(b.rule),
                                            std::cref(b.location),
                                            std::cref(b.message));
                   });
  return sorted;
}

std::string AnalysisReport::ToText() const {
  std::ostringstream os;
  for (const Diagnostic& d : Sorted())
    os << SeverityName(d.severity) << "[" << d.rule << "] " << d.location
       << ": " << d.message << "\n";
  os << "verdict: " << (ok() ? "clean" : "ILLEGAL") << " ("
     << ErrorCount() << " error(s), " << WarningCount()
     << " warning(s))\n";
  return os.str();
}

std::string AnalysisReport::ToJson() const {
  std::ostringstream os;
  os << "{\"errors\":" << ErrorCount()
     << ",\"warnings\":" << WarningCount() << ",\"diagnostics\":[";
  bool first = true;
  for (const Diagnostic& d : Sorted()) {
    if (!first) os << ",";
    first = false;
    os << "{\"severity\":\"" << SeverityName(d.severity) << "\",\"rule\":\""
       << EscapeJson(d.rule) << "\",\"location\":\""
       << EscapeJson(d.location) << "\",\"message\":\""
       << EscapeJson(d.message) << "\"}";
  }
  os << "]}";
  return os.str();
}

}  // namespace db::analysis
