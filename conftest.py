"""Loaded before any test module. Importing mweid first pins BLAS to one
thread before numpy loads, as the ``mweid`` script does, so the test
process runs one OS thread and ``mweid eval`` takes its forked path."""

import mweid  # noqa: F401
