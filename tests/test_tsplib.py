import tracemalloc

import pytest

from tourbench.core import ConfigurationError, Metric
from tourbench.tsplib import (
    ParseError,
    bundled_instance,
    bundled_names,
    detect_format,
    load_instance,
    parse_coord_list,
    parse_instance_text,
    parse_tsplib,
)

MINIMAL = """\
NAME : demo
TYPE : TSP
COMMENT : three points on a line
DIMENSION : 3
EDGE_WEIGHT_TYPE : EUC_2D
NODE_COORD_SECTION
1 0 0
2 1 0
3 2.5 0
EOF
"""


class TestParseTsplib:
    def test_minimal_file(self):
        inst = parse_tsplib(MINIMAL)
        assert inst.name == "demo"
        assert inst.n == 3
        assert inst.points[2].x == 2.5

    def test_repeated_and_empty_comment_lines_are_skipped(self):
        text = MINIMAL.replace(
            "COMMENT : three points on a line", "COMMENT : first\nCOMMENT :\nCOMMENT : third"
        )
        inst = parse_tsplib(text)
        assert inst.name == "demo"
        assert [(p.x, p.y) for p in inst.points] == [(0.0, 0.0), (1.0, 0.0), (2.5, 0.0)]

    def test_indices_are_one_based(self):
        text = MINIMAL.replace("1 0 0", "3 9 9").replace("3 2.5 0", "1 0 0")
        inst = parse_tsplib(text)
        assert inst.points[2].x == 9.0
        assert inst.points[0].x == 0.0

    def test_metric_override(self):
        inst = parse_tsplib(MINIMAL, metric=Metric("manhattan"))
        assert inst.metric.kind == "manhattan"

    def test_default_metric_is_euclidean_regardless_of_header(self):
        inst = parse_tsplib(MINIMAL.replace("EUC_2D", "ATT"))
        assert inst.metric.kind == "euclidean"

    def test_unknown_header_keys_tolerated(self):
        inst = parse_tsplib("DISPLAY_DATA_TYPE : COORD_DISPLAY\n" + MINIMAL)
        assert inst.n == 3

    def test_blank_lines_tolerated(self):
        for line in ("TYPE : TSP\n", "NODE_COORD_SECTION\n"):  # in the header and the section
            inst = parse_tsplib(MINIMAL.replace(line, line + "\n"))
            assert inst.n == 3

    def test_missing_eof_is_fine(self):
        inst = parse_tsplib(MINIMAL.replace("EOF\n", ""))
        assert inst.n == 3

    @pytest.mark.parametrize("mangle,line,fragment", [
        (lambda t: t.replace("DIMENSION : 3\n", ""), 5, "before DIMENSION"),
        (lambda t: t.replace("DIMENSION : 3", "DIMENSION : three"), 4, "must be an integer"),
        (lambda t: t.replace("DIMENSION : 3", "DIMENSION : 1"), 4, "at least 2"),
        (lambda t: t.replace("2 1 0", "2 1"), 8, "expected 'index x y'"),
        (lambda t: t.replace("2 1 0", "x 1 0"), 8, "index must be an integer"),
        (lambda t: t.replace("2 1 0", "9 1 0"), 8, "outside 1..3"),
        (lambda t: t.replace("2 1 0", "1 1 0"), 8, "duplicate node index 1"),
        (lambda t: t.replace("2 1 0", "2 one 0"), 8, "could not parse coordinates"),
        (lambda t: t.replace("2 1 0", "2 inf 0"), 8, "coordinates must be finite"),
        (lambda t: t.replace("3 2.5 0\n", ""), 9, "2 points but DIMENSION says 3"),
        (lambda t: t.replace("NODE_COORD_SECTION\n", "").replace("1 0 0\n2 1 0\n3 2.5 0\n", ""),
         6, "before NODE_COORD_SECTION"),
        (lambda t: "JUNK WITHOUT COLON\n" + t, 1, "expected 'KEY : value'"),
    ])
    def test_errors_carry_line_numbers(self, mangle, line, fragment):
        with pytest.raises(ParseError) as err:
            parse_tsplib(mangle(MINIMAL))
        assert err.value.line == line
        assert fragment in str(err.value)
        assert f"line {line}:" in str(err.value)

    def test_memory_follows_rows_not_dimension(self):
        # A huge DIMENSION over two rows is rejected without allocating for it.
        text = "NAME : big\nDIMENSION : 10000000\nNODE_COORD_SECTION\n1 0 0\n2 1 0\nEOF\n"
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as err:
                parse_tsplib(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert err.value.line == 6
        assert "2 points but DIMENSION says 10000000" in str(err.value)

    def test_no_section_at_all(self):
        with pytest.raises(ParseError) as err:
            parse_tsplib("NAME : x\nDIMENSION : 2\n")
        assert "no NODE_COORD_SECTION" in str(err.value)

    def test_parse_error_is_value_error(self):
        assert issubclass(ParseError, ValueError)

    def test_rejects_non_finite_distances(self):
        text = "NAME : far\nDIMENSION : 2\nNODE_COORD_SECTION\n1 1e308 0\n2 -1e308 0\nEOF\n"
        with pytest.raises(ParseError, match="non-finite"):
            parse_tsplib(text)


class TestParseCoordList:
    def test_space_and_comma_forms(self):
        inst = parse_coord_list("0 0\n1, 0\n2,2\n")
        assert inst.n == 3
        assert inst.points[1].x == 1.0
        assert inst.points[2].y == 2.0

    def test_comments_and_blanks(self):
        inst = parse_coord_list("# corner points\n0 0\n\n1 1  # diagonal\n")
        assert inst.n == 2

    def test_rejects_short_rows(self):
        with pytest.raises(ParseError) as err:
            parse_coord_list("0 0\n1\n")
        assert err.value.line == 2

    @pytest.mark.parametrize("row, fragment", [
        ("1 x", "could not parse coordinates from '1 x'"),
        ("inf 1", "coordinates must be finite"),
        ("nan 1", "coordinates must be finite"),
        ("1e309 1", "coordinates must be finite"),
        ("1, -inf", "coordinates must be finite"),
    ])
    def test_bad_coordinates_carry_line_numbers(self, row, fragment):
        with pytest.raises(ParseError) as err:
            parse_coord_list(f"0 0\n{row}\n")
        assert err.value.line == 2
        assert fragment in str(err.value)

    def test_rejects_single_point(self):
        with pytest.raises(ParseError):
            parse_coord_list("0 0\n")

    def test_rejects_non_finite_distances(self):
        with pytest.raises(ParseError, match="non-finite"):
            parse_coord_list("0 1e308\n0 -1e308\n", metric=Metric("manhattan"))

    def test_named(self):
        assert parse_coord_list("0 0\n1 1\n", name="pair").name == "pair"


@pytest.mark.parametrize("parse, text", [
    (parse_coord_list, "0 0\n1 1\n"),
    (parse_tsplib, MINIMAL),
    (parse_instance_text, MINIMAL),
], ids=["coords", "tsplib", "detected"])
def test_a_metric_that_is_not_a_metric_is_not_a_parse_error(parse, text):
    with pytest.raises(ConfigurationError, match="metric must be a Metric"):
        parse(text, metric="manhattan")


class TestDetectAndDispatch:
    def test_detects_tsplib(self):
        assert detect_format(MINIMAL) == "tsplib"
        assert detect_format("NAME : x\n") == "tsplib"

    def test_detects_coords(self):
        assert detect_format("0 0\n1 1\n") == "coords"
        assert detect_format("# comment first\n0,0\n1,1\n") == "coords"
        assert detect_format("") == "coords"

    def test_parse_instance_text_dispatches(self):
        assert parse_instance_text(MINIMAL).n == 3
        assert parse_instance_text("0 0\n1 1\n").n == 2


class TestBundledData:
    def test_att48_is_bundled(self):
        assert "att48" in bundled_names()

    def test_att48_loads(self):
        inst = bundled_instance("att48")
        assert inst.n == 48
        assert inst.name == "att48"
        assert inst.points[0].x == 6734.0
        assert inst.points[47].y == 1942.0

    def test_unknown_name_raises(self):
        with pytest.raises(FileNotFoundError):
            bundled_instance("berlin52")


def test_load_instance_from_path(tmp_path):
    p = tmp_path / "tiny.txt"
    p.write_text("0 0\n0 3\n4 0\n")
    inst = load_instance(p)
    assert inst.n == 3
    assert inst.name == "tiny"


def test_load_instance_rejects_bytes_that_are_not_utf8(tmp_path):
    p = tmp_path / "latin1.txt"
    p.write_bytes(b"0 0\n1 1\n2 \xff\n")
    with pytest.raises(ParseError) as err:
        load_instance(p)
    assert err.value.line == 3
    assert f"{p} is not UTF-8 text" in str(err.value)


BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize(
    "text,name,n", [(MINIMAL, "demo", 3), ("0 0\n0 3\n4 0\n", "bom", 3)], ids=["tsplib", "coords"]
)
def test_load_instance_skips_a_byte_order_mark(tmp_path, text, name, n):
    p = tmp_path / "bom.txt"
    p.write_bytes(BOM + text.encode())
    inst = load_instance(p)
    assert (inst.name, inst.n) == (name, n)
    assert inst.points == parse_instance_text(text).points


def test_bad_byte_after_a_byte_order_mark_gives_the_file_offset(tmp_path):
    # A decode that drops the mark first would count from after it, byte 6.
    p = tmp_path / "bom.txt"
    p.write_bytes(BOM + b"0 0\n1 \xff\n")
    with pytest.raises(ParseError) as err:
        load_instance(p)
    assert err.value.line == 2
    assert str(err.value).endswith("invalid start byte at byte 9")


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r", "\u2028"], ids=["lf", "crlf", "cr", "ls"])
def test_bytes_that_are_not_utf8_get_the_parsers_line_number(tmp_path, end):
    # The same row with an x in place of the bad byte fails to parse; both
    # errors name the line that str.splitlines gives.
    rows = [b"0 0", b"1 0", b"\xff 1", b"2 2"]
    p = tmp_path / "rows.txt"
    p.write_bytes(end.encode().join(rows))
    with pytest.raises(ParseError) as decoding:
        load_instance(p)
    p.write_bytes(end.encode().join(rows).replace(b"\xff", b"x"))
    with pytest.raises(ParseError, match="could not parse coordinates") as parsing:
        load_instance(p)
    assert decoding.value.line == parsing.value.line == 3
