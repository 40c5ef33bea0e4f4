// Row-driven checks of a ClauseGrammar (DESIGN.md §7–8), shared by
// arrival_test and fault_test. For every kind row: a clause built from
// its required keys parses to that kind and round-trips through
// Parse(ToString()); a missing required key, a forbidden key and a
// repeated key are each rejected naming the key; and a value one step
// past the bound of any key the kind prints is rejected naming the key.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/clause.h"
#include "util/parse.h"

namespace tictac::util {

// A value inside the field's bound: its closed low end, else one above
// the open low end, capped at the high end.
template <typename T>
double Inside(const ClauseField<T>& field) {
  const Bound& b = field.bound;
  return b.open == '[' ? b.lo : std::min(b.lo + 1, b.hi);
}

// One step past each end of the field's bound that a value of its type
// can cross: an open end itself, or the next integer or double beyond a
// closed one.
template <typename T>
std::vector<double> Outside(const ClauseField<T>& field) {
  const Bound& b = field.bound;
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> past = {b.open == '(' ? b.lo
                              : field.integer
                                  ? b.lo - 1
                                  : std::nextafter(b.lo, -inf)};
  if (b.close == ')' && !(field.integer && std::isinf(b.hi))) {
    past.push_back(b.hi);
  } else if (std::isfinite(b.hi)) {
    past.push_back(field.integer ? b.hi + 1 : std::nextafter(b.hi, inf));
  }
  return past;
}

// Runs every check above over the grammar's rows. `parse` reads one
// clause and returns the parsed T.
template <typename T, typename Parse>
void ExpectEveryRowHolds(const ClauseGrammar<T>& grammar, Parse parse) {
  const auto error = [&](const std::string& text) -> std::string {
    try {
      parse(text);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    ADD_FAILURE() << "accepted " << text;
    return "";
  };
  const auto inside = [&](std::string_view key) {
    return FormatDouble(Inside(*grammar.Field(key)));
  };
  for (const ClauseKind<T>& kind : grammar.kinds) {
    const std::vector<std::string_view> required = Split(kind.required, ' ');
    // The kind's required keys at inside values, but `skip`, then `tail`.
    const auto clause = [&](std::string_view skip, const std::string& tail) {
      std::string text(kind.name);
      for (const std::string_view key : required) {
        if (key != skip) text += ":" + std::string(key) + "=" + inside(key);
      }
      return text + tail;
    };
    const std::string base = clause("", "");
    SCOPED_TRACE(base);
    const T spec = parse(base);
    EXPECT_EQ(spec.kind, kind.kind);
    EXPECT_EQ(parse(spec.ToString()), spec) << spec.ToString();
    for (const std::string_view key : required) {
      const std::string k(key);
      const std::string missing = error(clause(key, ""));
      EXPECT_NE(missing.find(std::string(kind.name) + " requires "),
                std::string::npos)
          << missing;
      EXPECT_NE(missing.find(k + "="), std::string::npos) << missing;
      EXPECT_NE(error(clause("", ":" + k + "=" + inside(key)))
                    .find("duplicate field '" + k + "='"),
                std::string::npos)
          << k;
    }
    for (const std::string_view key : Split(kind.forbidden, ' ')) {
      if (key.empty()) continue;
      const std::string k(key);
      EXPECT_NE(error(base + ":" + k + "=" + inside(key))
                    .find("does not take " + k + "="),
                std::string::npos)
          << k;
    }
    for (const std::string_view key : Split(kind.prints, ' ')) {
      const ClauseField<T>& field = *grammar.Field(key);
      for (const double value : Outside(field)) {
        const std::string text =
            clause(key, ":" + std::string(key) + "=" + FormatDouble(value));
        EXPECT_NE(error(text).find(std::string(key) + " " +
                                   std::string(field.wording)),
                  std::string::npos)
            << text;
      }
    }
  }
}

}  // namespace tictac::util
