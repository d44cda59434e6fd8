"""Shared pytest hooks: pins BLAS to one thread, collects acceptance
verdict lines and prints them as a dedicated section in the terminal
summary (outside output capture), and fails the session if it leaves the
default output directory in the working directory."""

import os

import pytest

# Pinned before numpy is first imported, as perfbench/run.py does, so the
# suite uses one core: on a 2-vCPU machine BLAS's default thread count nearly
# doubled the suite's CPU time and saved about 5% of its wall time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ACCEPTANCE_VERDICTS = []

# ExperimentConfig's default output_dir, where a test that keeps the default
# would write its banks, datasets and models: inside the checkout.
DEFAULT_OUTPUT_DIR = os.path.abspath("arrayemu_out")
LITTER = []


def pytest_sessionstart(session):
    session.default_output_dir_existed = os.path.exists(DEFAULT_OUTPUT_DIR)


def pytest_sessionfinish(session, exitstatus):
    if os.path.exists(DEFAULT_OUTPUT_DIR) and not session.default_output_dir_existed:
        LITTER.append(f"a test wrote into the default output directory {DEFAULT_OUTPUT_DIR}")
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    for line in LITTER:
        terminalreporter.write_line(line, red=True)
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)
