// Terminal chart rendering for Figures: a character-cell scatter/line
// chart with y-axis labels, per-series glyphs and a legend, so the bench
// binaries can show the paper's figures as *pictures* (--chart), not just
// tables. X values may be spaced linearly or logarithmically (the Fig. 1
// team counts are powers of two).
#pragma once

#include <ostream>

#include "ghs/stats/series.hpp"

namespace ghs::stats {

struct ChartOptions {
  int width = 72;        // plot-area columns
  int height = 20;       // plot-area rows
  bool log_x = false;    // logarithmic x spacing (requires x > 0)
};

/// Renders the figure as an ASCII chart whose y axis always includes 0.
/// Series are drawn with the glyphs 'o', '+', 'x', '*', '#', '@' in order;
/// overlapping points show the later series' glyph.
void render_chart(const Figure& figure, std::ostream& os,
                  const ChartOptions& options = {});

}  // namespace ghs::stats
