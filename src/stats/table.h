#pragma once

/// \file table.h
/// Fixed-width console tables and CSV export. The figure scenarios print one
/// table per paper panel with these helpers.

#include <iosfwd>
#include <string>
#include <vector>

namespace spr {

/// A simple column-oriented table: a header row and string cells.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Appends a row; pads/truncates to the header width.
  void add_row(std::vector<std::string> row);

  /// Number formatting helper: fixed-point with `digits` decimals.
  static std::string fmt(double value, int digits = 2);

  std::size_t rows() const noexcept { return rows_.size(); }

  /// Renders with aligned columns and a separator under the header.
  std::string render() const;

  /// Renders CSV with RFC-4180 quoting (cells containing a comma, a double
  /// quote or a line break are quoted, embedded quotes doubled); rows end
  /// in LF, not the RFC's CRLF.
  std::string to_csv() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace spr
