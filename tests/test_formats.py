"""graph6 and edge-list serialization, including the error positions."""

import pytest

from tripm import (
    GraphFormatError,
    make_graph,
    parse_edge_list,
    parse_graph6,
    write_edge_list,
    write_graph6,
)
from tripm.generators import k4, k33, petersen


# hand-checked against the format definition
FROZEN_GRAPH6 = [
    (make_graph(0, []), "?"),
    (make_graph(1, []), "@"),
    (make_graph(2, [(0, 1)]), "A_"),
    (k4(), "C~"),
]


@pytest.mark.parametrize("g,text", FROZEN_GRAPH6)
def test_write_graph6_frozen_values(g, text):
    assert write_graph6(g) == text


@pytest.mark.parametrize("g,text", FROZEN_GRAPH6)
def test_parse_graph6_frozen_values(g, text):
    assert parse_graph6(text) == g


def test_graph6_round_trip():
    for g in (k4(), k33(), petersen(), make_graph(5, [(0, 3), (1, 4)])):
        assert parse_graph6(write_graph6(g)) == g


def test_parse_graph6_strips_whitespace():
    assert parse_graph6("C~\n") == k4()


def test_parse_graph6_rejects_empty():
    with pytest.raises(GraphFormatError, match="empty"):
        parse_graph6("   \n")


def test_parse_graph6_rejects_out_of_range_byte():
    with pytest.raises(GraphFormatError, match="byte 1"):
        parse_graph6("C!")


def test_parse_graph6_skips_comment_lines():
    assert parse_graph6("#petersen\n" + write_graph6(petersen())) == petersen()
    assert parse_graph6(" # k4\nC~\n#end\n") == k4()
    with pytest.raises(GraphFormatError, match="empty"):
        parse_graph6("#only a comment\n")
    # a '#' inside a graph6 line is no comment and stays an error
    with pytest.raises(GraphFormatError, match="byte 1: character '#'"):
        parse_graph6("C#")


def test_parse_graph6_rejects_long_form():
    with pytest.raises(GraphFormatError, match="n > 62"):
        parse_graph6("~??~?????")


def test_parse_graph6_rejects_wrong_length():
    with pytest.raises(GraphFormatError, match="expected 1 data"):
        parse_graph6("C~~")
    with pytest.raises(GraphFormatError, match="expected 1 data"):
        parse_graph6("C")


def test_parse_graph6_rejects_nonzero_padding():
    # n=2 uses 1 of 6 bits; '~' sets all six
    with pytest.raises(GraphFormatError, match="padding"):
        parse_graph6("A~")


def test_write_graph6_limits():
    with pytest.raises(GraphFormatError, match="n <= 62"):
        write_graph6(make_graph(63, []))
    with pytest.raises(GraphFormatError, match="parallel"):
        write_graph6(make_graph(2, [(0, 1), (0, 1)]))


def test_edge_list_round_trip():
    g = make_graph(4, [(0, 1), (0, 1), (2, 3)])  # parallel edges survive
    assert parse_edge_list(write_edge_list(g)) == g


def test_write_edge_list_shape():
    assert write_edge_list(make_graph(3, [(0, 2)])) == "3 1\n0 2\n"


def test_parse_edge_list_ignores_comments_and_blanks():
    text = "# triangle\n\n3 3\n0 1\n # inner comment\n1 2\n0 2\n"
    assert parse_edge_list(text) == make_graph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.mark.parametrize("text,fragment", [
    ("", "line 1: missing"),
    ("#only comments\n", "line 1: missing"),
    ("3\n", "header must be 'n m'"),
    ("a b\n", "header must be two integers"),
    ("-1 0\n", "negative count"),
    ("3 2\n0 1\n", "promises 2 edges, found 1"),
    ("3 1\n0 1 2\n", "edge line must be 'u v'"),
    ("3 1\nx y\n", "edge line must be two integers"),
    ("3 1\n1 1\n", "line 2: loop at vertex 1"),
    ("3 1\n0 3\n", "out of range for n=3"),
])
def test_parse_edge_list_errors(text, fragment):
    with pytest.raises(GraphFormatError, match=fragment):
        parse_edge_list(text)


def test_parse_edge_list_error_line_numbers_skip_comments():
    text = "# header comment\n4 2\n0 1\n2 4\n"
    with pytest.raises(GraphFormatError, match="line 4"):
        parse_edge_list(text)
