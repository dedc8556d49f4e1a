"""Tests for the ASCII figure renderers."""

from repro.analysis.plots import bar_chart, line_plot


class TestBarChart:
    def test_reference_line_present(self):
        text = bar_chart([("a", 2.0), ("b", 0.5)], title="t")
        assert "host = 1" in text
        assert text.splitlines()[0] == "t"

    def test_values_printed(self):
        text = bar_chart([("redis", 0.14), ("compress", 3.26)])
        assert "0.14" in text and "3.26" in text

    def test_bars_extend_opposite_directions(self):
        """A ratio above 1 draws right of the reference; below 1, left."""
        text = bar_chart([("up", 3.0), ("down", 0.3)], width=40)
        up_line = next(l for l in text.splitlines() if l.startswith("up"))
        down_line = next(l for l in text.splitlines() if l.startswith("down"))
        ref = up_line.index("|")
        assert "#" in up_line[ref + 1:ref + 40]
        assert "#" in down_line[:ref]

    def test_empty_items(self):
        assert bar_chart([], title="nothing") == "nothing"

    def test_nonpositive_values_handled(self):
        text = bar_chart([("zero", 0.0), ("ok", 1.5)])
        assert "ok" in text


class TestLinePlot:
    def test_markers_and_legend(self):
        series = {
            "host-8c": [(10.0, 10.0), (50.0, 48.0)],
            "accel": [(10.0, 10.0), (50.0, 50.0)],
        }
        text = line_plot(series, title="fig5")
        assert "o=host-8c" in text
        assert "x=accel" in text
        assert "o" in text

    def test_axis_bounds_printed(self):
        text = line_plot({"s": [(0.0, 1.0), (100.0, 2.0)]}, x_label="Gb/s")
        assert "100" in text
        assert "Gb/s" in text

    def test_empty(self):
        assert line_plot({}, title="t") == "t"

    def test_single_point(self):
        text = line_plot({"s": [(5.0, 5.0)]})
        assert "o" in text


class TestFigureAdapters:
    def test_fig4_chart_from_rows(self):
        from repro.analysis.plots import fig4_chart
        from repro.core.rng import RandomStreams
        from repro.experiments.fig4 import run_fig4

        rows = run_fig4(keys=("udp:64", "crypto:sha1"), samples=40,
                        n_requests=3000, streams=RandomStreams(1))
        text = fig4_chart(rows)
        assert "UDP 64 B" in text
        assert "Fig. 4" in text

    def test_fig5_chart_from_curves(self):
        from repro.analysis.plots import fig5_chart
        from repro.core.rng import RandomStreams
        from repro.experiments.fig5 import run_fig5

        curves = run_fig5(rulesets=("file_executable",),
                          rates_gbps=(10, 30, 50), samples=40,
                          n_requests=3000, streams=RandomStreams(1))
        text = fig5_chart(curves["file_executable"])
        assert "host-8c" in text
