#include "stats/summary.hpp"

#include <algorithm>
#include <cstdio>

#include "stats/fct.hpp"

namespace uno {

Distribution Distribution::of(std::vector<double> values) {
  Distribution d;
  d.count = values.size();
  if (values.empty()) return d;
  std::sort(values.begin(), values.end());
  d.min = values.front();
  d.max = values.back();
  d.p25 = percentile_sorted(values, 25);
  d.p50 = percentile_sorted(values, 50);
  d.p75 = percentile_sorted(values, 75);
  d.p99 = percentile_sorted(values, 99);
  double s = 0;
  for (double v : values) s += v;
  d.mean = s / static_cast<double>(values.size());
  return d;
}

std::string Distribution::to_string(const char* unit) const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%zu min=%.2f p25=%.2f p50=%.2f p75=%.2f p99=%.2f max=%.2f mean=%.2f%s%s",
                count, min, p25, p50, p75, p99, max, mean, unit[0] ? " " : "", unit);
  return buf;
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

std::string Table::fmt(double v, int precision) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

void Table::print(const std::string& title) const {
  if (!title.empty()) std::printf("\n== %s ==\n", title.c_str());
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size() && c < width.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  auto print_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size() && c < width.size(); ++c)
      std::printf("%-*s  ", static_cast<int>(width[c]), cells[c].c_str());
    std::printf("\n");
  };
  print_row(headers_);
  std::size_t total = 0;
  for (std::size_t w : width) total += w + 2;
  std::printf("%s\n", std::string(total, '-').c_str());
  for (const auto& row : rows_) print_row(row);
}

}  // namespace uno
