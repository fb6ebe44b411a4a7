#include "obs/timeseries.h"

#include <sstream>

#include "common/error.h"
#include "common/strings.h"

namespace db::obs {

void TimeSeriesRecorder::SetSampleInterval(std::int64_t cycles) {
  DB_CHECK_MSG(cycles >= 1, "sample interval must be >= 1 cycle");
  std::lock_guard<std::mutex> lock(mu_);
  sample_interval_ = cycles;
}

std::int64_t TimeSeriesRecorder::sample_interval() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sample_interval_;
}

void TimeSeriesRecorder::Append(std::string_view series,
                                std::int64_t cycle, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find(series);
  if (it == series_.end())
    it = series_.emplace(std::string(series),
                         std::vector<TimeSeriesPoint>())
             .first;
  DB_CHECK_MSG(it->second.empty() || it->second.back().cycle <= cycle,
               "time-series cycles must be non-decreasing");
  it->second.push_back(TimeSeriesPoint{cycle, value});
}

std::vector<TimeSeriesPoint> TimeSeriesRecorder::SeriesOf(
    std::string_view series) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = series_.find(series);
  return it == series_.end() ? std::vector<TimeSeriesPoint>()
                             : it->second;
}

std::size_t TimeSeriesRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return series_.size();
}

std::string TimeSeriesRecorder::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\n  \"sample_interval_cycles\": " << sample_interval_
     << ",\n  \"series\": {";
  bool first = true;
  for (const auto& [name, points] : series_) {
    os << (first ? "" : ",") << "\n    \"" << name << "\": [";
    for (std::size_t i = 0; i < points.size(); ++i)
      os << (i == 0 ? "" : ", ") << "[" << points[i].cycle << ", "
         << FormatJsonDouble(points[i].value) << "]";
    os << "]";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
  return os.str();
}

}  // namespace db::obs
