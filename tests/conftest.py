"""Shared pytest hooks: pins BLAS to one thread, and collects acceptance
verdict lines and prints them as a dedicated section in the terminal
summary (outside output capture)."""

import os

# Pinned before numpy is first imported, as perfbench/run.py does, so the
# suite uses one core: on a 2-vCPU machine BLAS's default thread count nearly
# doubled the suite's CPU time and saved about 5% of its wall time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ACCEPTANCE_VERDICTS = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)
