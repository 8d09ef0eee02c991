"""Suite-wide pytest hooks."""

import os
import platform

import numpy as np
import scipy

from spladapt import _fork


def pytest_report_header(config):
    """The environment a run's numbers depend on: Python, numpy, scipy, the
    BLAS build and its thread pins, and whether independent stages run in a
    forked worker (pinned BLAS with cores to spare) or inline."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    pins = ", ".join(f"{v}={os.environ[v]}" for v in _fork.BLAS_THREAD_VARS if v in os.environ) or "none"
    return [f"spladapt: Python {platform.python_version()}, numpy {np.__version__}, scipy {scipy.__version__}, "
            f"BLAS {blas.get('name')} {blas.get('version')}",
            f"spladapt: BLAS thread pins {pins}; fork_pays() {_fork.fork_pays()}"]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """-q hides the header, so a quiet run prints it after the results."""
    if config.get_verbosity() < 0:
        for line in pytest_report_header(config):
            terminalreporter.write_line(line)
