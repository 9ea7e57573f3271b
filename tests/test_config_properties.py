"""Property tests: every setting parses alike from a config line and a flag.

Each key of `bench.SETTINGS` gets a drawn valid value, written as text with
drawn spacing (and, for lists, drawn separators with empty items). The
config line and the CLI flag must both give the config that sets that
field to the value.
"""

import re
from dataclasses import replace
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from diffden import cli
from diffden.bench import (METHODS, SETTINGS, ExperimentConfig,
                           config_from_values, parse_config_text)

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                             database=None)

README = Path(__file__).resolve().parents[1] / "README.md"

_PAD = st.sampled_from(["", " ", "  "])
_SEP = st.sampled_from([",", ", ", " ,", ",,", ", ,"])


@st.composite
def _scalar(draw, values, fmt):
    value = draw(values)
    return value, draw(_PAD) + fmt(value) + draw(_PAD)


@st.composite
def _items(draw, values):
    items = draw(st.lists(values, min_size=1, max_size=4))
    text = str(items[0])
    for item in items[1:]:
        text += draw(_SEP) + draw(_PAD) + str(item)
    if draw(st.booleans()):
        text += draw(_SEP)
    return tuple(items), draw(_PAD) + text


def _ints(lo, hi):
    return _scalar(st.integers(lo, hi), str)


def _floats(lo=-1e6, hi=1e6):
    return _scalar(st.floats(lo, hi, allow_nan=False), repr)


# (value, text) for each config key; every drawn value is a valid setting
VALUES = {
    "case": _ints(1, 3),
    "K": _ints(2, 8),
    "M": _ints(1, 8),
    "n_list": _items(st.integers(1, 5000)),
    "n_eval": _ints(1, 5000),
    "methods": _items(st.sampled_from(list(METHODS))),
    "seed": _ints(-10**6, 10**6),
    "repetitions": _ints(1, 10),
    "steps": _ints(1, 10**5),
    "batch": _ints(1, 4096),
    "lr": _floats(0.0, 1.0),
    "T_min": _floats(1e-6, 2.9),
    "T_max": _floats(0.01, 1e6),
    "em_steps": _ints(1, 5000),
    "arch.widths": _items(st.integers(1, 256)),
    "langevin_step": _floats(1e-6, 1e6),
    "langevin_steps": _ints(1, 5000),
    "mrf_diag": _floats(),
    "mrf_coupling": _floats(),
}


def test_every_setting_has_a_strategy():
    assert list(VALUES) == list(SETTINGS)


@PROPERTY_SETTINGS
@given(st.fixed_dictionaries(VALUES))
def test_config_line_and_flag_give_the_same_config(drawn):
    parser = cli.build_parser()
    for key, (value, text) in drawn.items():
        field, _, flag = SETTINGS[key]
        want = replace(ExperimentConfig(), **{field: value})
        assert config_from_values(parse_config_text(f"{key} = {text}")) == want
        if flag:
            args = parser.parse_args(["run-case", f"{flag}={text}"])
            assert cli._experiment_config(args) == want


def test_readme_lists_the_settings_table():
    text = README.read_text()
    table = text[text.index("Recognised keys"):].split("\n\n")[1]
    rows = re.findall(r"^\| `([^`]+)` \| (?:`([^`]+)`|—) \|", table, re.M)
    assert [(key, flag or None) for key, flag in rows] == \
        [(key, flag) for key, (_, _, flag) in SETTINGS.items()]
