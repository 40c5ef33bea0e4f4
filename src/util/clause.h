// One reader for the `kind:key=value:...` clause grammars (the arrival
// and fault specs, DESIGN.md §7–8). A grammar is two row tables over a
// spec type T, and every key is declared once, in its row:
//
//   ClauseKind   a kind's name and T::Kind value, the keys it requires
//                (checked in order), the keys it forbids, and the order
//                in which its keys print
//   ClauseField  a key, the int or double member of T it lands in, its
//                bound, and the bound's wording
//
// Read parses a clause, Print writes the canonical one and Check bounds
// its fields. Print and Check both take a field that the kind requires
// or whose value differs from T's default, so Read(Print(x)) == x. A
// kind written two ways is two adjacent rows with one name, and the
// first whose required keys a clause sets is its kind: `crash:worker=…`
// and `crash:fabric=…`.
#pragma once

#include <algorithm>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/parse.h"

namespace tictac::util {

// An interval in its usual notation: {'(', 0, 1, ']'} is (0, 1]. An open
// infinite end means "finite"; NaN lies in no bound.
struct Bound {
  char open;  // '[' or '('
  double lo;
  double hi;
  char close;  // ']' or ')'

  constexpr bool Contains(double x) const {
    return (open == '[' ? x >= lo : x > lo) &&
           (close == ']' ? x <= hi : x < hi);
  }
};

template <typename T>
struct ClauseField {
  std::string_view key;
  int T::*integer;  // exactly one of the two members is set
  double T::*real;
  Bound bound;
  std::string_view wording;  // "must be finite and >= 1", after the key

  double Get(const T& spec) const {
    return integer ? spec.*integer : spec.*real;
  }
  std::string Format(const T& spec) const {
    return integer ? std::to_string(spec.*integer) : FormatDouble(spec.*real);
  }
};

template <typename T>
struct ClauseKind {
  std::string_view name;
  typename T::Kind kind;
  std::string_view required;   // space-separated keys
  std::string_view forbidden;  // space-separated keys
  std::string_view prints;     // every key the kind takes, in print order

  // Whether Print writes `field` and Check bounds it.
  bool Shows(const ClauseField<T>& field, const T& spec) const {
    const std::vector<std::string_view> keys = Split(required, ' ');
    return std::find(keys.begin(), keys.end(), field.key) != keys.end() ||
           field.Get(spec) != field.Get(T{});
  }
};

template <typename T>
struct ClauseGrammar {
  std::string_view name;          // "fault": the first word of every error
  std::string_view kind_noun;     // "fault kind"
  std::string_view trace_sample;  // "faults.csv"
  std::span<const ClauseKind<T>> kinds;
  std::span<const ClauseField<T>> fields;

  [[noreturn]] void Fail(const std::string& message) const {
    throw std::invalid_argument(std::string(name) + ": " + message);
  }

  // The path of a `trace:<path>` spec: everything after the first ':',
  // verbatim (paths may hold ':' or ';'). nullopt for any other spec.
  std::optional<std::string> TracePath(std::string_view text) const {
    if (text != "trace" && !text.starts_with("trace:")) return std::nullopt;
    if (text.size() <= 6) {
      Fail("trace expects a file path, e.g. trace:" +
           std::string(trace_sample));
    }
    return std::string(text.substr(6));
  }

  // One clause. `where` starts every error after the grammar's name (""
  // inline, "trace '...' line N: " for a trace row).
  T Read(std::string_view text, const std::string& where) const {
    const std::vector<std::string_view> parts = Split(text, ':');
    const std::string_view head = parts.front();
    auto kind = std::find_if(kinds.begin(), kinds.end(),
                             [&](const auto& k) { return k.name == head; });
    if (kind == kinds.end()) {
      std::string expected;
      for (std::size_t i = 0; i < kinds.size(); ++i) {
        if (i == 0 || kinds[i].name != kinds[i - 1].name) {
          expected += std::string(kinds[i].name) + ", ";
        }
      }
      Fail(where + "unknown " + std::string(kind_noun) + " '" +
           std::string(head) + "' — expected " + expected +
           "or trace:<file>");
    }
    T spec;
    std::set<std::string_view> seen;  // the keys the clause sets
    for (std::size_t i = 1; i < parts.size(); ++i) {
      const std::string_view part = parts[i];
      const std::size_t eq = part.find('=');
      const ClauseField<T>* field = Field(part.substr(0, eq));
      if (eq == std::string_view::npos || field == nullptr) {
        Fail(where + "unknown field '" + std::string(part) + "' in '" +
             std::string(text) + "'");
      }
      const std::string key(part.substr(0, eq + 1));  // "worker="
      const std::string_view value = part.substr(eq + 1);
      if (!seen.insert(field->key).second) {
        Fail(where + "duplicate field '" + key + "' in '" +
             std::string(text) + "'");
      }
      if (field->integer) {
        spec.*field->integer = ReadNumber<int>(name, where + key, value);
      } else {
        spec.*field->real = ReadNumber<double>(name, where + key, value);
      }
    }
    const std::string clause =
        where + "'" + std::string(text) + "': " + std::string(head);
    std::string missing;  // the first key each row of this name lacks
    for (; kind != kinds.end() && kind->name == head; ++kind) {
      const std::vector<std::string_view> keys = Split(kind->required, ' ');
      const auto lacks = std::find_if(keys.begin(), keys.end(), [&](auto k) {
        return !seen.contains(k);
      });
      if (lacks == keys.end()) {
        for (const std::string_view key : Split(kind->forbidden, ' ')) {
          if (seen.contains(key)) {
            Fail(clause + " does not take " + std::string(key) + "=");
          }
        }
        spec.kind = kind->kind;
        return spec;
      }
      const std::string want = std::string(*lacks) + "=";
      if (!missing.ends_with(" " + want)) missing += " or " + want;
    }
    Fail(clause + " requires" + missing.substr(3));
  }

  // The canonical clause: the kind's shown keys in print order.
  std::string Print(const T& spec) const {
    const ClauseKind<T>& kind = KindOf(spec);
    std::string text(kind.name);
    for (const std::string_view key : Split(kind.prints, ' ')) {
      const ClauseField<T>& field = *Field(key);
      if (kind.Shows(field, spec)) {
        text += ":" + std::string(key) + "=" + field.Format(spec);
      }
    }
    return text;
  }

  // Names the first shown field, in row order, outside its bound.
  void Check(const T& spec, const std::string& where) const {
    const ClauseKind<T>& kind = KindOf(spec);
    for (const ClauseField<T>& field : fields) {
      if (kind.Shows(field, spec) && !field.bound.Contains(field.Get(spec))) {
        Fail(where + std::string(field.key) + " " +
             std::string(field.wording) + ", got " + field.Format(spec));
      }
    }
  }

  const ClauseField<T>* Field(std::string_view key) const {
    const auto it = std::find_if(fields.begin(), fields.end(),
                                 [&](const auto& f) { return f.key == key; });
    return it == fields.end() ? nullptr : &*it;
  }

  const ClauseKind<T>& KindOf(const T& spec) const {
    for (const ClauseKind<T>& k : kinds) {
      if (k.kind == spec.kind) return k;
    }
    Fail("unknown " + std::string(kind_noun));
  }
};

}  // namespace tictac::util
