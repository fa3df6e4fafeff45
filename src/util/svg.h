#pragma once

/// \file svg.h
/// Minimal SVG writer for publication-style renderings of deployments,
/// unsafe areas, estimates, and routed paths. `spr_cli render` and the SVG
/// report sink write .svg files the user can open directly.
///
/// World coordinates map to the viewBox with y flipped so that world +y is
/// up, matching the paper's figures.

#include <string>
#include <vector>

#include "geometry/polygon.h"
#include "geometry/rect.h"
#include "geometry/vec2.h"

namespace spr {

/// Accumulates SVG elements over a world-space viewport.
class SvgCanvas {
 public:
  /// Canvas covering `world`, rendered at `pixels_per_meter` scale.
  explicit SvgCanvas(Rect world, double pixels_per_meter = 4.0);

  /// Styling is CSS-like; colors are any SVG color string.
  void circle(Vec2 center, double radius_m, const std::string& fill,
              const std::string& stroke = "none", double stroke_width = 0.0);
  void line(Vec2 a, Vec2 b, const std::string& stroke, double width_m,
            double opacity = 1.0);
  void polyline(const std::vector<Vec2>& points, const std::string& stroke,
                double width_m, double opacity = 1.0);
  void rect(const Rect& r, const std::string& fill, const std::string& stroke,
            double stroke_width_m, double opacity = 1.0);
  void polygon(const Polygon& p, const std::string& fill,
               const std::string& stroke, double stroke_width_m,
               double opacity = 1.0);
  void text(Vec2 anchor, const std::string& content, double size_m,
            const std::string& fill = "black");

  /// Number of elements emitted so far.
  std::size_t element_count() const noexcept { return elements_.size(); }

  /// Serializes the full document.
  std::string render() const;

  /// Renders and writes to `path`; returns false on I/O failure.
  bool write_file(const std::string& path) const;

 private:
  double px(double meters) const noexcept { return meters * scale_; }
  double tx(double world_x) const noexcept;
  double ty(double world_y) const noexcept;

  Rect world_;
  double scale_;
  std::vector<std::string> elements_;
};

}  // namespace spr
