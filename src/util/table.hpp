// Aligned console tables for the benchmark harnesses.
//
// Every fig* bench binary prints the same rows/series the paper's figure
// shows; Table keeps those dumps readable.
#pragma once

#include <string>
#include <vector>

namespace netcut::util {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Append a row of pre-formatted cells. Must match the header count.
  void add_row(std::vector<std::string> cells);

  /// Convenience: format doubles with the given precision.
  static std::string num(double v, int precision = 4);

  /// Render as an aligned, boxed console table.
  std::string to_string() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace netcut::util
