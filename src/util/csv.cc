#include "util/csv.h"

#include <stdexcept>

#include "util/parse.h"

namespace tictac::util {

std::string CsvEscape(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

CsvWriter::CsvWriter(const std::string& path,
                     const std::vector<std::string>& header)
    : out_(path), columns_(header.size()) {
  if (!out_) {
    throw std::runtime_error("CsvWriter: cannot open " + path);
  }
  EmitRow(header);
}

void CsvWriter::AddRow(const std::vector<std::string>& row) {
  if (row.size() != columns_) {
    throw std::runtime_error("CsvWriter: row width mismatch");
  }
  EmitRow(row);
}

void CsvWriter::EmitRow(const std::vector<std::string>& row) {
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i) out_ << ',';
    out_ << CsvEscape(row[i]);
  }
  out_ << '\n';
}

std::vector<std::pair<std::size_t, std::string>> ReadTraceLines(
    const std::string& path, const std::string& who) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error(who + ": cannot read trace file '" + path + "'");
  }
  std::vector<std::pair<std::size_t, std::string>> lines;
  std::string line;
  for (std::size_t line_no = 1; std::getline(in, line); ++line_no) {
    std::string_view text = line;
    if (line_no == 1 && text.starts_with("\xef\xbb\xbf")) {
      text.remove_prefix(3);  // UTF-8 BOM from spreadsheet exports
    }
    text = Trim(text, " \t\r");
    if (!text.empty() && text.front() != '#') {
      lines.emplace_back(line_no, std::string(text));
    }
  }
  return lines;
}

}  // namespace tictac::util
