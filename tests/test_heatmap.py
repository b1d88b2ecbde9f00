"""Tests for the minimal SVG heatmap renderer."""

import numpy as np
import pytest

from procurekit.errors import ValidationError
from procurekit.heatmap import render_heatmap_svg


def render(values, xs=(1.0, 2.0), ys=(10.0, 20.0, 30.0)):
    return render_heatmap_svg(
        xs, ys, np.asarray(values, dtype=float), x_label="x", y_label="y", title="t"
    )


class TestRenderHeatmapSvg:
    def test_emits_one_rect_per_cell(self):
        svg = render([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        cell_rects = svg.count('height="56"')
        assert cell_rects == 6

    def test_extremes_map_to_gradient_endpoints(self):
        svg = render([[0.0, 1.0, 0.5], [0.25, 0.75, 0.5]])
        assert "#440154" in svg  # low end
        assert "#fde725" in svg  # high end

    def test_missing_values_render_grey(self):
        svg = render([[0.1, float("nan"), 0.3], [0.4, 0.5, 0.6]])
        assert "#cccccc" in svg

    def test_constant_grid_uses_midpoint_color(self):
        svg = render([[0.5] * 3, [0.5] * 3])
        assert "#21918c" in svg

    def test_labels_are_escaped(self):
        svg = render_heatmap_svg(
            (1.0,),
            (2.0,),
            np.array([[0.5]]),
            x_label="a<b",
            y_label="c&d",
            title="x>y",
        )
        assert "a&lt;b" in svg and "c&amp;d" in svg and "x&gt;y" in svg

    def test_tick_labels_present(self):
        svg = render([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]], xs=(5.0, 15.0))
        assert ">5</text>" in svg and ">15</text>" in svg
        assert ">10</text>" in svg and ">30</text>" in svg

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="shape"):
            render([[0.1, 0.2], [0.3, 0.4]])

    def test_empty_axis_rejected(self):
        with pytest.raises(ValidationError, match="axis|shape"):
            render_heatmap_svg(
                (), (), np.empty((0, 0)), x_label="x", y_label="y", title="t"
            )

    def test_pair_ticks_are_labelled_low_high(self):
        svg = render([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]], xs=((0.4, 0.6), (0.3, 0.7)))
        assert ">0.4:0.6</text>" in svg and ">0.3:0.7</text>" in svg
