"""The shared lexical rules, and a fuzz test of every text format built on them."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab.dilation import parse_tuple_text
from hardylab.grids import TruncationGrid
from hardylab.scenarios import parse_scenario
from hardylab.subspaces import parse_basis_text
from hardylab.symbols import parse_coefficient_text
from hardylab.textlines import complex_row, content_lines, fields, numbers


def test_content_lines_keep_original_numbers():
    text = "# head\n\n  a b  # tail\n,\n#\nc,d\n"
    assert list(content_lines(text)) == [(3, "a b"), (4, ","), (6, "c,d")]
    assert fields("c,d 1,, 2") == ["c", "d", "1", "2"]
    assert fields(",") == []


def test_numbers_accept_only_finite_values_of_the_cast():
    assert numbers(["1", "-2"], int, "x") == [1, -2]
    assert numbers(["1e-3", "2"], float, "x") == [1e-3, 2.0]
    for word, cast in (("1.0", int), ("nan", float), ("-inf", float), ("abc", float)):
        with pytest.raises(ValueError, match=f"line 7: x wants .*, got '{word}'"):
            numbers(["0", word], cast, "line 7: x")


def test_complex_row_pairs_re_and_im_and_names_the_row():
    row = complex_row(["1", "-2", "0.5", "0"], 2, "line 3: row")
    assert row.tolist() == [1 - 2j, 0.5]
    with pytest.raises(ValueError, match=r"^line 3: row wants 4 floats \(re im per entry\), got 3$"):
        complex_row(["1", "2", "3"], 2, "line 3: row")
    with pytest.raises(ValueError, match="line 3: row wants finite numbers, got 'nan'"):
        complex_row(["1", "nan"], 1, "line 3: row")


# Lines shaped like those of all four formats, with integers kept small so
# that no parsed caps, dim or index can ask for a large grid.
SMALL = st.integers(-1, 3).map(str)
VALUE = st.one_of(SMALL, st.sampled_from(["0.5", "-0.25", "1e308", "nan", "inf", "abc", ","]))
WORD = st.sampled_from([
    "numerator", "denominator", "end", "symbol:", "phi:", "tuple:", "basis:",
    "expect:", "# note", "", "=", "check-beurling", "example42", "true",
])
LINE = st.one_of(
    st.lists(VALUE, min_size=1, max_size=6).map(" ".join),
    st.tuples(st.sampled_from(["dim", "count", "matrix"]), SMALL).map(" ".join),
    WORD,
    st.tuples(
        st.sampled_from(["command", "caps", "margins", "tol", "seed", "budget", "xij", "status"]),
        st.lists(st.one_of(VALUE, WORD), max_size=3).map(" ".join),
    ).map(" = ".join),
    st.lists(st.one_of(VALUE, WORD), max_size=6).map(" ".join),
)
TEXT = st.lists(LINE, max_size=10).map("\n".join)
EDIT = st.sampled_from(["-1", "0", "1", "2", "3", "0.5", "nan", "abc", "\n", "end", "matrix", "="])

# One valid document per format; the fuzz edits a few of its words.
PARSERS = {
    "coefficient": (parse_coefficient_text,
                    "numerator\n1 0 0 0 1.0 0.0\ndenominator\n0 0 0 0 1.0 0.0\n1 0 0 0 -0.5 0.0"),
    "tuple": (parse_tuple_text,
              "dim 1\ncount 2\nmatrix 0\n0.5 0\nmatrix 1\n0 0.5"),
    "basis": (lambda text: parse_basis_text(text, TruncationGrid((1,))), "1 0 0 0\n0 0 1 0"),
    "scenario": (parse_scenario, "command = check-beurling\ncaps = 1 1\nbasis:\n"
                                 "0 0 1 0 0 0 0 0\nend\nexpect:\nxij = true\nend"),
}


@st.composite
def edited(draw, document):
    """document with a few of its words dropped, replaced or inserted."""
    words = document.replace("\n", " \n ").split(" ")
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(words) - 1))
        new = draw(EDIT)
        op = draw(st.sampled_from(["replace", "drop", "insert"]))
        if op == "replace":
            words[i] = new
        elif op == "drop" and len(words) > 1:
            del words[i]
        else:
            words.insert(i, new)
    return " ".join(words)


@pytest.mark.parametrize("fmt", sorted(PARSERS))
@settings(max_examples=250)
@given(data=st.data())
def test_any_short_text_parses_or_raises_value_error(fmt, data):
    parser, document = PARSERS[fmt]
    # half the texts are edits of the valid document, half are free-form
    text = data.draw(st.one_of(edited(document), st.one_of(TEXT, st.text(max_size=60))))
    try:
        parser(text)
    except ValueError:
        pass
