"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from gpvis import (
    DEFAULT_CORPUS_SEED,
    all_pairs_distances,
    corpus_graphs,
    run_verification_suite,
)
from gpvis._kernel import backend_name, fast


def pytest_report_header(config):
    """Name the kernel the tests run on: the parity tests skip without ``_fast``."""
    built = "imported" if fast is not None else "not built (kernel parity tests skip)"
    try:
        active = backend_name()
    except (ValueError, ImportError) as exc:  # a bad GPVIS_KERNEL
        active = f"none ({exc})"
    return f"gpvis kernel: {active}; compiled _fast: {built}"


@pytest.fixture(scope="session")
def small_corpus():
    """A dozen seeded connected graphs, n in 4..7, for oracle comparisons."""
    return corpus_graphs(DEFAULT_CORPUS_SEED, count=12, n_lo=4, n_hi=7)


@pytest.fixture(scope="session")
def small_corpus_dists(small_corpus):
    return [all_pairs_distances(g) for g in small_corpus]


@pytest.fixture(scope="session")
def full_report():
    """One full verification run shared by the acceptance tests."""
    return run_verification_suite(scope="all", seed=DEFAULT_CORPUS_SEED)
