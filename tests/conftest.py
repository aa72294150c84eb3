"""Shared fixtures for the test suite."""

from __future__ import annotations

import importlib.util
import shlex
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest

from gpvis import (
    DEFAULT_CORPUS_SEED,
    all_pairs_distances,
    corpus_graphs,
    run_verification_suite,
)
from gpvis._kernel import backend_name, fast

KERNEL_C = Path(__file__).resolve().parent.parent / "src" / "gpvis" / "_kernel" / "_fast.c"


def pytest_report_header(config):
    """Name the kernel the tests run on; the parity tests build their own ``_fast``."""
    built = "imported" if fast is not None else "not built in place"
    try:
        active = backend_name()
    except (ValueError, ImportError) as exc:  # a bad GPVIS_KERNEL
        active = f"none ({exc})"
    return f"gpvis kernel: {active}; compiled _fast: {built}"


@pytest.fixture(scope="session")
def fast_kernel(tmp_path_factory):
    """The compiled kernel, built from ``_fast.c`` with the system C
    compiler into a temporary directory (never into ``src/``) and imported
    from there.  Warnings fail the build.  Skips only when there is no C
    compiler."""
    cmd = shlex.split(sysconfig.get_config_var("LDSHARED") or "cc -shared")
    if shutil.which(cmd[0]) is None:
        pytest.skip(f"no C compiler ({cmd[0]!r} not found) to build _fast.c")
    out = tmp_path_factory.mktemp("fast") / ("_fast" + sysconfig.get_config_var("EXT_SUFFIX"))
    cmd += ["-O2", "-Wall", "-Werror", "-fPIC", "-I", sysconfig.get_paths()["include"], str(KERNEL_C), "-o", str(out)]
    built = subprocess.run(cmd, capture_output=True, text=True)
    if built.returncode:
        pytest.fail(f"building _fast.c failed:\n{built.stderr}")
    spec = importlib.util.spec_from_file_location("_fast", out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
