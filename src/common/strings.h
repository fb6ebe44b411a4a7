// Small string utilities shared by the frontend parser, the RTL emitters
// and the JSON exporters, plus the one checked reader for integers and
// `key=value` specs that come from outside the program (CLI flags, spec
// grammars, prototxt).
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/error.h"

namespace db {

/// Split on a single delimiter; empty fields are kept.
std::vector<std::string> Split(std::string_view text, char delim);

/// Strip leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

/// True if `text` begins with / ends with the given prefix / suffix.
bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// Lower-case an ASCII string.
std::string ToLower(std::string_view text);

/// Join items with a separator.
std::string Join(const std::vector<std::string>& items,
                 std::string_view sep);

/// printf-style formatting into std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// `value` in the fewest %g digits (at least 6, the iostream default)
/// that read back as exactly `value`, so canonical texts keep every bit.
std::string FormatExactDouble(double value);

/// `text` as the body of a JSON string: quote, backslash and every
/// control character escaped (bytes >= 0x80 pass through as UTF-8).
std::string EscapeJson(std::string_view text);

/// `value` as a byte-stable JSON number: integral values of magnitude
/// below 1e15 without a fraction or exponent, anything else in %.9g.
std::string FormatJsonDouble(double value);

/// Sanitise an arbitrary name into a legal Verilog identifier.
std::string ToIdentifier(std::string_view name);

/// Parse all of `text` as a base-10 integer in [lo, hi]: an optional
/// '-' or '+' and then digits, nothing else.  Empty text, whitespace, a
/// fraction, an exponent, trailing junk or a value out of range throws
/// db::Error naming `what`, the text and the range.
std::int64_t ParseInt(std::string_view text, std::int64_t lo,
                      std::int64_t hi, std::string_view what);

/// One `key=value` field of a spec grammar, both sides trimmed.
struct SpecField {
  std::string key;
  std::string value;
};

/// Split `spec` on `sep` into `key=value` fields, skipping empty ones.
/// A field without '=' or with an empty key throws db::Error prefixed by
/// `grammar` (e.g. "fault spec").
std::vector<SpecField> SpecFields(std::string_view spec, char sep,
                                  std::string_view grammar);

/// One integer key of a `key=value` grammar: the member of `Spec` it
/// sets and the range its value must lie in (within the member's type).
template <typename Spec>
struct SpecKey {
  const char* key;
  std::variant<int Spec::*, std::int64_t Spec::*, std::uint64_t Spec::*>
      field;
  std::int64_t lo;
  std::int64_t hi;
};

/// Read the comma-separated fields of `spec` into `*out` through `keys`.
/// An unknown key or a value outside its key's range throws db::Error.
template <typename Spec, std::size_t N>
void ReadSpec(std::string_view spec, std::string_view grammar,
              const SpecKey<Spec> (&keys)[N], Spec* out) {
  for (const SpecField& field : SpecFields(spec, ',', grammar)) {
    const auto* row = std::find_if(
        std::begin(keys), std::end(keys),
        [&](const SpecKey<Spec>& k) { return field.key == k.key; });
    if (row == std::end(keys)) {
      std::vector<std::string> known;
      for (const SpecKey<Spec>& k : keys) known.emplace_back(k.key);
      throw Error(std::string(grammar) + ": unknown key '" + field.key +
                  "' (" + Join(known, ", ") + ")");
    }
    const std::int64_t n =
        ParseInt(field.value, row->lo, row->hi,
                 std::string(grammar) + " '" + field.key + "'");
    std::visit(
        [&](auto member) {
          using T = std::remove_reference_t<decltype(out->*member)>;
          out->*member = static_cast<T>(n);
        },
        row->field);
  }
}

}  // namespace db
