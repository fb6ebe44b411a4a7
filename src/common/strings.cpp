#include "common/strings.h"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace db {

std::vector<std::string> Split(std::string_view text, char delim) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(text.substr(start));
      return parts;
    }
    parts.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view Trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin])))
    ++begin;
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1])))
    --end;
  return text.substr(begin, end - begin);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::string ToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string Join(const std::vector<std::string>& items,
                 std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += sep;
    out += items[i];
  }
  return out;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out(needed > 0 ? static_cast<std::size_t>(needed) : 0, '\0');
  if (needed > 0)
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  va_end(args_copy);
  return out;
}

std::string FormatExactDouble(double value) {
  for (int digits = 6; digits < 17; ++digits) {
    std::string text = StrFormat("%.*g", digits, value);
    if (std::strtod(text.c_str(), nullptr) == value) return text;
  }
  return StrFormat("%.17g", value);
}

std::string EscapeJson(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20)
          out += StrFormat("\\u%04x", c);
        else
          out += c;
    }
  }
  return out;
}

std::string FormatJsonDouble(double value) {
  // The range test comes first: it keeps NaN and huge values away from
  // the integer conversion.
  if (value < 1e15 && value > -1e15 &&
      value == static_cast<double>(static_cast<std::int64_t>(value)))
    return StrFormat("%lld", static_cast<long long>(value));
  return StrFormat("%.9g", value);
}

std::string ToIdentifier(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_')
      out += c;
    else
      out += '_';
  }
  if (out.empty() ||
      std::isdigit(static_cast<unsigned char>(out.front())))
    out.insert(out.begin(), '_');
  return out;
}

std::int64_t ParseInt(std::string_view text, std::int64_t lo,
                      std::int64_t hi, std::string_view what) {
  // from_chars takes a '-' but not a '+'; a '+' must still lead digits.
  std::string_view digits = text;
  if (digits.size() > 1 && digits[0] == '+' && digits[1] != '-')
    digits.remove_prefix(1);
  std::int64_t value = 0;
  const char* end = digits.data() + digits.size();
  const auto [ptr, ec] = std::from_chars(digits.data(), end, value);
  if (digits.empty() || ptr != end || ec != std::errc() || value < lo ||
      value > hi)
    throw Error(StrFormat("%.*s: expected an integer in [%lld, %lld], got "
                          "'%.*s'",
                          static_cast<int>(what.size()), what.data(),
                          static_cast<long long>(lo),
                          static_cast<long long>(hi),
                          static_cast<int>(text.size()), text.data()));
  return value;
}

std::vector<SpecField> SpecFields(std::string_view spec, char sep,
                                  std::string_view grammar) {
  std::vector<SpecField> fields;
  for (const std::string& piece : Split(spec, sep)) {
    const std::string_view field = Trim(piece);
    if (field.empty()) continue;
    const std::size_t eq = field.find('=');
    if (eq == std::string_view::npos || Trim(field.substr(0, eq)).empty())
      throw Error(std::string(grammar) + ": expected key=value, got '" +
                  std::string(field) + "'");
    fields.push_back({std::string(Trim(field.substr(0, eq))),
                      std::string(Trim(field.substr(eq + 1)))});
  }
  return fields;
}

}  // namespace db
