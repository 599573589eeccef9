#include "workload/metrics.h"

#include <cstdio>

namespace dnsguard::workload {

TablePrinter::TablePrinter(std::vector<std::string> headers, int width)
    : headers_(std::move(headers)), width_(width) {}

void TablePrinter::print_header() const {
  for (const auto& h : headers_) {
    std::printf("%-*s", width_, h.c_str());
  }
  std::printf("\n");
  for (std::size_t i = 0; i < headers_.size(); ++i) {
    for (int j = 0; j < width_ - 2; ++j) std::printf("-");
    std::printf("  ");
  }
  std::printf("\n");
}

void TablePrinter::print_row(const std::vector<std::string>& cells) const {
  for (const auto& c : cells) {
    std::printf("%-*s", width_, c.c_str());
  }
  std::printf("\n");
  std::fflush(stdout);
}

std::string TablePrinter::num(double v, int decimals) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

std::string TablePrinter::kilo(double v, int decimals) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.*fK", decimals, v / 1000.0);
  return buf;
}

std::string TablePrinter::percent(double v, int decimals) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.*f%%", decimals, v * 100.0);
  return buf;
}

}  // namespace dnsguard::workload
