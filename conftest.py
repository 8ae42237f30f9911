"""Loaded before any test module. Importing mweid first pins BLAS to one
thread before numpy loads, as the ``mweid`` script does, so the test
process runs one OS thread and ``mweid eval`` takes its forked path where
the process may run on more than one CPU (``tests/test_cli.py`` shows its
tests two CPUs on any host)."""

import mweid  # noqa: F401
