// Report formatting shared by the bench binaries: the fixed-width tables
// they print paper-style rows with.
#pragma once

#include <string>
#include <vector>

namespace dnsguard::workload {

/// Fixed-width text table, used by every bench to print paper-style rows.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers, int width = 14);

  void print_header() const;
  void print_row(const std::vector<std::string>& cells) const;

  [[nodiscard]] static std::string num(double v, int decimals = 1);
  [[nodiscard]] static std::string kilo(double v, int decimals = 1);
  [[nodiscard]] static std::string percent(double v, int decimals = 1);

 private:
  std::vector<std::string> headers_;
  int width_;
};

}  // namespace dnsguard::workload
