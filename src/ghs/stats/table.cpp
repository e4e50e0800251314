#include "ghs/stats/table.hpp"

#include <algorithm>

#include "ghs/util/error.hpp"
#include "ghs/util/strings.hpp"
#include "ghs/util/writer.hpp"

namespace ghs::stats {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  GHS_REQUIRE(!headers_.empty(), "table needs at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  GHS_REQUIRE(cells.size() == headers_.size(),
              "row has " << cells.size() << " cells, table has "
                         << headers_.size() << " columns");
  rows_.push_back(std::move(cells));
}

void Table::render(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  Writer w(os);
  const auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      w << (c == 0 ? "| " : " | ") << pad_left(cells[c], widths[c]);
    }
    w << " |\n";
  };
  emit(headers_);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    w << (c == 0 ? "|-" : "-|-") << std::string(widths[c], '-');
  }
  w << "-|\n";
  for (const auto& row : rows_) {
    emit(row);
  }
}

void Table::render_csv(std::ostream& os) const {
  Writer w(os);
  const auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c > 0) w << ',';
      const std::string& cell = cells[c];
      if (cell.find_first_of(",\"\n") != std::string::npos) {
        w << '"';
        for (char ch : cell) {
          if (ch == '"') w << '"';
          w << ch;
        }
        w << '"';
      } else {
        w << cell;
      }
    }
    w << '\n';
  };
  emit(headers_);
  for (const auto& row : rows_) {
    emit(row);
  }
}

}  // namespace ghs::stats
