#include "util/parse.h"

#include <sstream>

namespace tictac::util {

std::string FormatDouble(double value) {
  std::string text;
  for (int precision = 15; precision <= 17; ++precision) {
    std::ostringstream out;
    out.precision(precision);
    out << value;
    text = out.str();
    if (ParseDouble(text) == value) break;
  }
  return text;
}

}  // namespace tictac::util
