#include "ghs/stats/chart.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "ghs/util/error.hpp"
#include "ghs/util/strings.hpp"

namespace ghs::stats {

namespace {

constexpr char kGlyphs[] = {'o', '+', 'x', '*', '#', '@'};

struct Extent {
  double min_x = std::numeric_limits<double>::infinity();
  double max_x = -std::numeric_limits<double>::infinity();
  double min_y = std::numeric_limits<double>::infinity();
  double max_y = -std::numeric_limits<double>::infinity();
};

Extent compute_extent(const Figure& figure, const ChartOptions& options) {
  Extent e;
  for (const auto& series : figure.series()) {
    for (const auto& point : series.points()) {
      GHS_REQUIRE(!options.log_x || point.x > 0.0,
                  "log x axis requires positive x, got " << point.x);
      e.min_x = std::min(e.min_x, point.x);
      e.max_x = std::max(e.max_x, point.x);
      e.min_y = std::min(e.min_y, point.y);
      e.max_y = std::max(e.max_y, point.y);
    }
  }
  GHS_REQUIRE(std::isfinite(e.min_x), "chart of an empty figure");
  e.min_y = std::min(e.min_y, 0.0);
  if (e.max_y == e.min_y) e.max_y = e.min_y + 1.0;
  if (e.max_x == e.min_x) e.max_x = e.min_x + 1.0;
  return e;
}

double x_position(double x, const Extent& e, const ChartOptions& options) {
  if (options.log_x) {
    return (std::log2(x) - std::log2(e.min_x)) /
           (std::log2(e.max_x) - std::log2(e.min_x));
  }
  return (x - e.min_x) / (e.max_x - e.min_x);
}

}  // namespace

void render_chart(const Figure& figure, std::ostream& os,
                  const ChartOptions& options) {
  GHS_REQUIRE(options.width >= 16 && options.height >= 4,
              "chart area too small: " << options.width << "x"
                                       << options.height);
  const Extent extent = compute_extent(figure, options);

  std::vector<std::string> grid(
      static_cast<std::size_t>(options.height),
      std::string(static_cast<std::size_t>(options.width), ' '));

  for (std::size_t s = 0; s < figure.series().size(); ++s) {
    const char glyph = kGlyphs[s % (sizeof(kGlyphs) / sizeof(kGlyphs[0]))];
    for (const auto& point : figure.series()[s].points()) {
      const double fx = x_position(point.x, extent, options);
      const double fy =
          (point.y - extent.min_y) / (extent.max_y - extent.min_y);
      const int col = std::clamp(
          static_cast<int>(std::lround(fx * (options.width - 1))), 0,
          options.width - 1);
      const int row = std::clamp(
          static_cast<int>(std::lround((1.0 - fy) * (options.height - 1))),
          0, options.height - 1);
      grid[static_cast<std::size_t>(row)][static_cast<std::size_t>(col)] =
          glyph;
    }
  }

  os << "== " << figure.title() << " ==\n";
  const std::size_t label_width = 10;
  for (int row = 0; row < options.height; ++row) {
    const double y =
        extent.max_y - (extent.max_y - extent.min_y) *
                           static_cast<double>(row) /
                           static_cast<double>(options.height - 1);
    std::string label;
    // Label the top, bottom and every fourth row.
    if (row == 0 || row == options.height - 1 || row % 4 == 0) {
      label = format_fixed(y, y >= 100 ? 0 : 2);
    }
    os << pad_left(label, label_width) << " |"
       << grid[static_cast<std::size_t>(row)] << "\n";
  }
  os << pad_left("", label_width) << " +"
     << std::string(static_cast<std::size_t>(options.width), '-') << "\n";
  os << pad_left("", label_width) << "  "
     << pad_right(format_fixed(extent.min_x, 0),
                  static_cast<std::size_t>(options.width) - 8)
     << pad_left(format_fixed(extent.max_x, 0), 8) << "\n";
  os << pad_left("", label_width) << "  legend:";
  for (std::size_t s = 0; s < figure.series().size(); ++s) {
    os << " " << kGlyphs[s % (sizeof(kGlyphs) / sizeof(kGlyphs[0]))] << "="
       << figure.series()[s].name();
  }
  os << "\n";
}

}  // namespace ghs::stats
