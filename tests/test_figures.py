import xml.etree.ElementTree as ET

import numpy as np
import pytest

from varexp_cir.figures import svg_histogram, svg_line_plot


def test_line_plot_is_wellformed_and_deterministic():
    xs = np.linspace(0, 1, 50)
    series = [("a", xs, np.sin(xs)), ("b", xs, np.cos(xs))]
    doc = svg_line_plot(series, title="paths")
    root = ET.fromstring(doc)
    assert root.tag.endswith("svg")
    assert doc.count("<polyline") == 2
    assert doc == svg_line_plot(series, title="paths")


def test_histogram_is_wellformed():
    edges = np.linspace(0.0, 1.0, 11)
    dens = np.ones(10)
    doc = svg_histogram([("h", edges, dens)], title="hist")
    ET.fromstring(doc)
    assert doc.count("<rect") >= 10


def test_flat_series_does_not_degenerate():
    xs = np.linspace(0, 1, 5)
    doc = svg_line_plot([("flat", xs, np.full(5, 0.05))], title="flat")
    ET.fromstring(doc)


def test_a_histogram_of_zero_densities_or_one_edge_keeps_a_finite_scale():
    # all-zero densities scale the y axis to [0, 1]; equal edges widen x by 0.5 each side
    zero = svg_histogram([("h", np.linspace(0.0, 1.0, 3), np.zeros(2))], title="zero")
    ET.fromstring(zero)
    assert 'text-anchor="end" font-family="sans-serif" font-size="11">1</text>' in zero  # y top
    point = svg_histogram([("h", np.array([0.05, 0.05]), np.array([2.0]))], title="point")
    ET.fromstring(point)
    assert ">-0.45</text>" in point and ">0.55</text>" in point
    assert "nan" not in zero + point and "inf" not in zero + point


@pytest.mark.parametrize("builder", [svg_line_plot, svg_histogram])
def test_a_figure_of_no_series_is_refused(builder):
    with pytest.raises(ValueError, match="^at least one series is required$"):
        builder([], title="empty")
