// Minimal CSV writer so experiment series can be re-plotted externally,
// and the line reader behind the fault and arrival trace files.
#pragma once

#include <cstddef>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace tictac::util {

class CsvWriter {
 public:
  // Opens `path` for writing and emits the header row.
  // Throws std::runtime_error if the file cannot be opened.
  CsvWriter(const std::string& path, const std::vector<std::string>& header);

  void AddRow(const std::vector<std::string>& row);

 private:
  std::ofstream out_;
  std::size_t columns_;

  void EmitRow(const std::vector<std::string>& row);
};

// Quotes a CSV field if it contains separators or quotes.
std::string CsvEscape(const std::string& field);

// The data lines of a trace file as (1-based line number, text) pairs,
// tolerating what editors and exports add: a UTF-8 BOM on line 1, CRLF
// endings, and blanks around a line. Blank lines and '#' comments are
// dropped. Throws std::runtime_error("<who>: cannot read trace file
// '<path>'") when the file cannot be opened.
std::vector<std::pair<std::size_t, std::string>> ReadTraceLines(
    const std::string& path, const std::string& who);

}  // namespace tictac::util
