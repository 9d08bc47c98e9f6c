"""Benchmark support.

The bench_*.py tests assert the paper's claims on each experiment and
time it; they write nothing.  ``benchmarks/results/<id>.txt`` has one
producer, ``python -m repro run all --out benchmarks/results``, and CI
diffs a fresh ``repro run all`` against the committed files.  Each
experiment runs exactly once under the timer — drivers already repeat
internally (the paper's 10 repetitions), so once is the honest cost
measurement.
"""

from __future__ import annotations

import pytest


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under the benchmark timer."""

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return _run
