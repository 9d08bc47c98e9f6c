"""F2–F5 — the claims of Figures 2, 3, 4, 5 (the §4 microbenchmark).

Each figure runs the paper's full protocol: 10 repetitions, 3 pool
configurations, both emulated links.  Assertions pin the paper's
headline shapes; ``repro run`` renders the bar charts.
"""

from __future__ import annotations

import pytest

from repro.experiments import figures


@pytest.mark.benchmark(group="figures")
def test_figure2_8gb_vector(run_once):
    result = run_once(figures.run_figure, "figure2")
    # "up to 4.7x improved bandwidth compared to Physical no-cache"
    assert result.speedup("link1", "Physical no-cache") == pytest.approx(4.6, abs=0.3)
    assert result.bandwidth("Logical", "link1") == pytest.approx(97.0, rel=0.03)


@pytest.mark.benchmark(group="figures")
def test_figure3_24gb_vector(run_once):
    result = run_once(figures.run_figure, "figure3")
    # the 24 GB scan thrashes the 8 GB cache: cache <= no-cache
    assert result.bandwidth("Physical cache", "link0") <= result.bandwidth(
        "Physical no-cache", "link0"
    )
    # "up to 3.4x compared to Physical cache for the 24GB vector"
    assert result.speedup("link0", "Physical cache") > 3.0


@pytest.mark.benchmark(group="figures")
def test_figure4_64gb_vector(run_once):
    result = run_once(figures.run_figure, "figure4")
    # 3/8 of the vector is local to the LMP server
    assert result.results[("Logical", "link1")].locality == pytest.approx(3 / 8)
    # Logical beats Physical cache on Link1 (paper: +42%)
    assert result.speedup("link1", "Physical cache") > 1.4


@pytest.mark.benchmark(group="figures")
def test_figure5_96gb_vector(run_once):
    result = run_once(figures.run_figure, "figure5")
    for link in ("link0", "link1"):
        assert result.feasible("Logical", link)
        assert not result.feasible("Physical cache", link)
        assert not result.feasible("Physical no-cache", link)
