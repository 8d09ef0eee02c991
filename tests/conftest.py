"""Suite-wide pytest hooks."""

import os
import platform
import ssl
from pathlib import Path

import numpy as np
import scipy

from spladapt import _fork


def cpu_sha_extensions() -> str:
    """Whether the CPU flags in /proc/cpuinfo list SHA extensions (x86
    sha_ni, Arm sha2): "yes", "no", or "unknown" where it is not readable."""
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return "unknown"
    flags = {f for line in lines if line.startswith(("flags", "Features"))
             for f in line.partition(":")[2].split()}
    return "yes" if flags & {"sha_ni", "sha2"} else "no"


def pytest_report_header(config):
    """The environment a run's numbers depend on: Python, numpy, scipy, the
    BLAS build and its thread pins, whether independent stages run in a
    forked worker (pinned BLAS with cores to spare) or inline, and the
    OpenSSL build and CPU SHA extensions that checksum speed depends on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    pins = ", ".join(f"{v}={os.environ[v]}" for v in _fork.BLAS_THREAD_VARS if v in os.environ) or "none"
    return [f"spladapt: Python {platform.python_version()}, numpy {np.__version__}, scipy {scipy.__version__}, "
            f"BLAS {blas.get('name')} {blas.get('version')}",
            f"spladapt: BLAS thread pins {pins}; fork_pays() {_fork.fork_pays()}",
            f"spladapt: {ssl.OPENSSL_VERSION}; CPU SHA extensions {cpu_sha_extensions()}"]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """-q hides the header, so a quiet run prints it after the results."""
    if config.get_verbosity() < 0:
        for line in pytest_report_header(config):
            terminalreporter.write_line(line)
