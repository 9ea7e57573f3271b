"""Property tests: the binary sample block, the dataset CSV and the BPD
report CSV give back exactly what was written.  The checkpoint round-trip
is in test_wsnn_properties.py."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from diffden.formats import (BpdReport, BpdRow, read_csv, read_samples_binary,
                             write_csv, write_samples_binary)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


def _shapes(min_side):
    return st.tuples(st.integers(min_side, 6), st.integers(min_side, 5))


def _roundtrip(write, read, name):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        write(path)
        return read(path)


@SETTINGS
@given(arrays(np.float64, _shapes(0)))
def test_sample_block_roundtrip(x):
    """Every float64 bit pattern, NaN and inf included, and empty blocks."""
    got = _roundtrip(lambda p: write_samples_binary(p, x), read_samples_binary,
                     "samples.bin")
    assert got.shape == x.shape and got.tobytes() == x.tobytes()


@SETTINGS
@given(arrays(np.float64, _shapes(1), elements=st.floats(allow_nan=False,
                                                         allow_infinity=False)))
def test_dataset_csv_roundtrip(x):
    got = _roundtrip(lambda p: write_csv(p, x), read_csv, "data.csv")
    assert got.shape == x.shape and got.tobytes() == x.tobytes()


_NAMES = st.text("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-",
                 min_size=1, max_size=12)
_ROWS = st.builds(BpdRow, st.integers(1, 3), st.integers(1, 10**6), _NAMES,
                  st.integers(1, 10**9), st.integers(0, 1000),
                  st.floats(allow_nan=False),
                  st.floats(0.0, allow_nan=False, allow_infinity=False), _NAMES)


@SETTINGS
@given(st.lists(_ROWS, max_size=6))
def test_bpd_report_csv_roundtrip(rows):
    report = BpdReport(rows)
    got = _roundtrip(report.to_csv, BpdReport.from_csv, "report.csv")
    assert got.rows == report.rows
    assert got.csv_text() == report.csv_text()
