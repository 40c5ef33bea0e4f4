// The one way to read a value from text, behind every grammar and every
// tictac_cli flag. A number read takes the whole token (no leading
// whitespace, no '+', no trailing junk), reads an integer field as an
// integer (never through a double), and rejects a value outside the
// target type instead of wrapping it. "inf" and "nan" parse as doubles;
// the callers' range checks decide. Each caller words its own error for
// std::nullopt, or lets ReadNumber throw the shared wording. Split and
// Trim cut a grammar's text into those tokens.
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace tictac::util {

template <typename T>
std::optional<T> ParseNumber(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

// What ParseNumber<T> reads, for error messages ("expects an integer").
template <typename T>
constexpr const char* NumberKind() {
  if constexpr (std::is_floating_point_v<T>) return "a number";
  if constexpr (std::is_unsigned_v<T>) return "a non-negative integer";
  return "an integer";
}

// ParseNumber<T>, or std::invalid_argument("<grammar>: <key> expects
// <NumberKind>, got '<text>'") quoting the token as typed.
template <typename T>
T ReadNumber(std::string_view grammar, std::string_view key,
             std::string_view text) {
  const std::optional<T> value = ParseNumber<T>(text);
  if (!value) {
    throw std::invalid_argument(std::string(grammar) + ": " +
                                std::string(key) + " expects " +
                                NumberKind<T>() + ", got '" +
                                std::string(text) + "'");
  }
  return *value;
}

// A base-10 integer that fits in Int ("-3", "42"; not "4.0" or "1e3").
template <typename Int = int>
std::optional<Int> ParseInt(std::string_view text) {
  static_assert(std::is_integral_v<Int> && std::is_signed_v<Int>);
  return ParseNumber<Int>(text);
}

// A non-negative base-10 integer; "-1" is rejected, never wrapped.
inline std::optional<std::uint64_t> ParseUnsigned(std::string_view text) {
  return ParseNumber<std::uint64_t>(text);
}

// A decimal or scientific double, "inf" or "nan"; "1e400" is rejected.
inline std::optional<double> ParseDouble(std::string_view text) {
  return ParseNumber<double>(text);
}

// The shortest decimal form of `value` (15-17 significant digits) that
// ParseDouble reads back to the same double: grammar emitters print it
// so a round-trip is exact without 17 digits for "0.5", and errors print
// it so "1.0000000000000002" does not read as "1.000000". NaN never
// compares equal, so it prints at 17 digits.
std::string FormatDouble(double value);

// `text` cut at every `sep`, empty pieces kept ("a,,b" → "a", "", "b").
inline std::vector<std::string_view> Split(std::string_view text, char sep) {
  std::vector<std::string_view> parts;
  for (std::size_t start = 0;;) {
    const std::size_t pos = text.find(sep, start);
    parts.push_back(text.substr(start, pos - start));
    if (pos == std::string_view::npos) return parts;
    start = pos + 1;
  }
}

// `text` without leading and trailing `blanks`.
inline std::string_view Trim(std::string_view text,
                             std::string_view blanks = " \t") {
  const std::size_t begin = text.find_first_not_of(blanks);
  if (begin == std::string_view::npos) return {};
  return text.substr(begin, text.find_last_not_of(blanks) - begin + 1);
}

}  // namespace tictac::util
