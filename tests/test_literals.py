"""Strict literals: ASCII digits, no underscores.

int(), float() and re's \\d also read '1_0' as 10, '٣' as 3 and '１２' as 12. The literal
grammar is ASCII integers, p/q and decimals, so every ASCII literal keeps the value that
int() and Fraction give it, and an underscore or any other digit is refused: by
scalars.parse_rational, by the grid ranges of `report`, and by the expression tokenizer.
"""

from fractions import Fraction

import pytest

from liecurv import exprs
from liecurv.cli import _parse_grid
from liecurv.errors import InputError
from liecurv.scalars import parse_rational

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402


def int_or_fraction(text: str):
    """What int() and Fraction make of an ASCII literal, as parse_rational read it before
    it refused underscores; None where they refuse it."""
    s = text.strip()
    num, slash, den = s.partition("/")
    try:
        return Fraction(int(num), int(den)) if slash else int(s)
    except (ValueError, ZeroDivisionError):
        return None


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(text=st.one_of(st.text(alphabet="0123456789+-/ _", max_size=10),
                      st.builds("{} / {}".format, st.integers(), st.integers()),
                      st.integers().map(str)))
@example(text="1_0")
@example(text=" -7/2 ")
def test_ascii_literals_keep_their_value(text):
    want = int_or_fraction(text)
    if want is None or "_" in text:
        with pytest.raises(InputError):
            parse_rational(text)
    else:
        got = parse_rational(text)
        assert got == want and type(got) is type(want)
        if type(want) is int:
            assert exprs.evaluate(text) == want


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(digit=st.characters(categories=["Nd"]).filter(lambda c: not c.isascii()),
       before=st.sampled_from(["", "1", "-"]), after=st.sampled_from(["", "2", "/3", ".5"]))
@example(digit="٣", before="", after="")
@example(digit="１", before="", after="")
def test_other_digits_are_refused(digit, before, after):
    text = before + digit + after
    with pytest.raises(InputError):
        parse_rational(text)
    with pytest.raises(InputError):
        exprs.evaluate(text)
    with pytest.raises(InputError):
        _parse_grid(f"{text}:9", "--alpha-grid")


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(lo=st.integers(-99, 99), hi=st.integers(-99, 99))
def test_ascii_grids_keep_their_range(lo, hi):
    if lo <= hi:
        assert _parse_grid(f"{lo}:{hi}", "--alpha-grid") == range(lo, hi + 1)
    with pytest.raises(InputError):
        _parse_grid(f"{lo}:{hi}_0", "--beta-grid")
