import re

import numpy as np

from sensan import artifacts as svg


def test_polyline_points_match_point_by_point_formatting(tmp_path):
    """The polyline computed on arrays reads as the per-point float
    formatting, for float and integer inputs."""
    x = np.linspace(-3.0, 7.0, 1001)
    y = np.sin(3.0 * x) * 1e3
    k = np.arange(50)
    path = tmp_path / "plot.svg"
    svg.line_plot(str(path), [("wave", x, y), ("steps", k, k * k)])
    xlo, xhi = -3.0, 49.0
    ylo, yhi = float(y.min()), 2401.0
    pad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad

    def ref(xs, ys):
        return " ".join(
            "%.2f,%.2f" % (
                svg._ML + (float(a) - xlo) / (xhi - xlo) * (svg._W - svg._ML - svg._MR),
                svg._H - svg._MB - (float(b) - ylo) / (yhi - ylo)
                * (svg._H - svg._MT - svg._MB))
            for a, b in zip(xs, ys))

    got = re.findall(r'<polyline points="([^"]*)"', path.read_text())
    assert got == [ref(x, y), ref(k, k * k)]
