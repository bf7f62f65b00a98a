import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atseg.altmin import IterationEntry, IterationReport
from atseg.energy import EnergyBreakdown
from atseg.errors import AtsegError, InvalidInputError, PgmParseError
from atseg.grid import Grid2D, ScalarField
from atseg.imgio import (
    F64_MAGIC,
    HISTORY_HEADER,
    read_f64,
    read_history,
    read_pgm,
    write_f64,
    write_history,
    write_mask_pgm,
    write_pgm,
)


class TestReadPgm:
    def test_small_ascii(self):
        f = read_pgm(b"P2\n2 2\n255\n0 255\n255 0\n")
        assert f.grid.nx == 2 and f.grid.ny == 2
        assert np.array_equal(f.values, [0.0, 1.0, 1.0, 0.0])

    def test_binary_matches_ascii(self):
        ascii_field = read_pgm(b"P2\n2 2\n255\n0 255 255 0\n")
        binary_field = read_pgm(b"P5\n2 2\n255\n" + bytes([0, 255, 255, 0]))
        assert np.array_equal(ascii_field.values, binary_field.values)

    def test_comments_allowed(self):
        f = read_pgm(b"P2 # format\n# a comment line\n2 2 # size\n255\n0 255 255 0\n")
        assert np.array_equal(f.values, [0.0, 1.0, 1.0, 0.0])

    def test_sixteen_bit_big_endian(self):
        payload = np.array([0, 65535, 1, 256], dtype=">u2").tobytes()
        f = read_pgm(b"P5\n2 2\n65535\n" + payload)
        assert f.values[1] == 1.0
        assert f.values[2] == pytest.approx(1 / 65535)

    @pytest.mark.parametrize(
        "data",
        [
            b"P6\n2 2\n255\n" + bytes(12),
            b"P5\n2 2\n0\n" + bytes(4),
            b"P5\n2 2\n70000\n" + bytes(8),
            b"P5\n2 2\n255\n" + bytes(3),
            b"P2\n2 2\n255\n0 255 255\n",
            b"P2\n2 x\n255\n0 0 0 0\n",
            b"P5\n1 4\n255\n" + bytes(4),
        ],
    )
    def test_malformed_streams_rejected(self, data):
        with pytest.raises(PgmParseError):
            read_pgm(data)

    def test_parse_error_carries_offset(self):
        with pytest.raises(PgmParseError) as err:
            read_pgm(b"P2\n2 2\nxyz\n0 0 0 0\n")
        assert err.value.offset == 7  # where the bad maxval token begins

    def test_ascii_pixel_above_maxval(self):
        with pytest.raises(PgmParseError):
            read_pgm(b"P2\n2 2\n100\n0 0 0 101\n")

    @pytest.mark.parametrize(
        "data, token, message",
        [
            (b"P2\n2 2\n255\n0 1\n# c\n 2.5 3\n", b"2.5", "expected integer for pixel 2, got b'2.5'"),
            (b"P2\n2 2\n100\n0 0 0\t101 \n", b"101", "pixel 3 outside [0, 100]"),
        ],
    )
    def test_pixel_error_offset_is_token_start(self, data, token, message):
        with pytest.raises(PgmParseError) as err:
            read_pgm(data)
        assert err.value.offset == data.index(token)
        assert str(err.value) == f"{message} (byte offset {data.index(token)})"


# Separators between P2 tokens.  Each piece starts with whitespace, so a
# comment never touches the token before it, and a comment runs to its '\n'
# through any '\r' or '#' in its text.
SEPARATOR = st.lists(
    st.sampled_from([" ", "\t", "\r", "\n", "\r\n", " # comment\n", "\t#\r1 #2\n", "\r\n#\n\t"]),
    min_size=1,
    max_size=3,
).map("".join)


@st.composite
def p2_and_p5(draw):
    """One image as a P2 stream with random separators and as canonical P5."""
    nx, ny = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    maxval = draw(st.integers(1, 65535))
    pixels = draw(st.lists(st.integers(0, maxval), min_size=nx * ny, max_size=nx * ny))
    tokens = ["P2", str(nx), str(ny), str(maxval), *map(str, pixels)]
    p2 = "".join(t + draw(SEPARATOR) for t in tokens).encode("ascii")
    payload = np.array(pixels, dtype=np.uint8 if maxval < 256 else ">u2").tobytes()
    return p2, f"P5\n{nx} {ny}\n{maxval}\n".encode("ascii") + payload


@settings(max_examples=200, deadline=None)
@given(p2_and_p5())
def test_p2_with_any_separators_matches_p5(streams):
    ascii_field, binary_field = (read_pgm(s) for s in streams)
    assert ascii_field.grid == binary_field.grid
    assert np.array_equal(ascii_field.values, binary_field.values)


class TestWritePgm:
    def test_all_zero_payload(self):
        g = Grid2D(3, 2, 0.5)
        data, clamped = write_pgm(ScalarField.constant(g, 0.0), 255)
        assert data == b"P5\n3 2\n255\n" + bytes(6)
        assert clamped == 0

    def test_rounding_half_up(self):
        g = Grid2D(2, 2, 1.0)
        f = ScalarField(g, np.array([0.5 / 255, 1.5 / 255, 0.4 / 255, 200.49 / 255]))
        data, _ = write_pgm(f, 255)
        assert list(data[-4:]) == [1, 2, 0, 200]

    def test_clamp_count(self):
        g = Grid2D(2, 2, 1.0)
        f = ScalarField(g, np.array([-0.1, 0.5, 1.2, 1.0]))
        data, clamped = write_pgm(f, 255)
        assert clamped == 2
        assert list(data[-4:]) == [0, 128, 255, 255]

    def test_invalid_maxval(self):
        g = Grid2D(2, 2, 1.0)
        with pytest.raises(InvalidInputError):
            write_pgm(ScalarField.constant(g, 0.0), 0)

    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_round_trip_random_images(self, maxval):
        rng = np.random.default_rng(4)
        for _ in range(25):
            nx, ny = rng.integers(2, 12, 2)
            pixels = rng.integers(0, maxval + 1, nx * ny)
            grid = Grid2D.for_image(int(nx), int(ny))
            f = ScalarField(grid, pixels / maxval)
            data, clamped = write_pgm(f, maxval)
            assert clamped == 0
            back = read_pgm(data)
            assert np.array_equal(back.values, f.values)
            again, _ = write_pgm(back, maxval)
            assert again == data

    def test_mask_bytes(self):
        data = write_mask_pgm(np.array([True, False, False, True]), 2, 2)
        assert data == b"P5\n2 2\n255\n" + bytes([255, 0, 0, 255])

    def test_embedded_comment_survives_reading(self):
        g = Grid2D(2, 2, 1.0)
        f = ScalarField(g, np.array([0.0, 1.0, 1.0, 0.0]))
        data, _ = write_pgm(f, 255, comment="seed=7 rng=test")
        assert b"# seed=7 rng=test\n" in data
        assert np.array_equal(read_pgm(data).values, f.values)
        with pytest.raises(InvalidInputError):
            write_pgm(f, 255, comment="two\nlines")


class TestRawFloat64:
    def test_round_trip_preserves_overshoot(self):
        rng = np.random.default_rng(5)
        g = Grid2D(7, 5, 0.25)
        f = ScalarField(g, 1.0 + 0.05 * rng.standard_normal(35))
        back = read_f64(write_f64(f))
        assert np.array_equal(back.values, f.values)
        assert back.grid == Grid2D.for_image(7, 5)

    def test_header_layout(self):
        g = Grid2D(3, 2, 0.5)
        data = write_f64(ScalarField.constant(g, 0.0))
        assert data[:4] == b"GF64"
        assert int.from_bytes(data[4:8], "little") == 3
        assert int.from_bytes(data[8:12], "little") == 2
        assert data[12:16] == bytes(4)
        assert len(data) == 16 + 8 * 6

    def test_bad_streams(self):
        with pytest.raises(InvalidInputError):
            read_f64(b"nope")
        g = Grid2D(3, 2, 0.5)
        data = write_f64(ScalarField.constant(g, 0.0))
        with pytest.raises(InvalidInputError):
            read_f64(data[:-8])


def make_report(rows):
    entries = tuple(
        IterationEntry(k, e, EnergyBreakdown(c, m, gp, f)) for (k, e, c, m, gp, f) in rows
    )
    return IterationReport(entries, converged=True)


class TestHistoryCsv:
    def test_empty_report_is_header_only(self):
        data = write_history(IterationReport((), converged=False))
        assert data == b"k,e_k,total,coupled,mm,grad_perturb,fidelity\n"

    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(6)
        rows = [
            (k, rng.random(), rng.random(), rng.random(), rng.random(), rng.random())
            for k in range(1, 30)
        ]
        report = make_report(rows)
        back = read_history(write_history(report))
        assert back == report.entries

    def test_rows_strictly_increasing_in_k(self):
        report = make_report([(k, 0.1, 1.0, 0.0, 0.0, 0.0) for k in range(1, 6)])
        lines = write_history(report).decode().strip().split("\n")[1:]
        ks = [int(line.split(",")[0]) for line in lines]
        assert ks == sorted(set(ks))

    def test_header_required(self):
        with pytest.raises(InvalidInputError):
            read_history(b"nope\n1,2,3,4,5,6,7\n")

    def test_malformed_row(self):
        with pytest.raises(InvalidInputError):
            read_history(b"k,e_k,total,coupled,mm,grad_perturb,fidelity\n1,2,3\n")


# Arbitrary bytes, and bytes behind each format's own opening so that parsing
# gets past the first check.
PREFIXES = st.sampled_from([b"", b"P2\n", b"P5\n", b"P2\n3 2\n255\n", b"P5\n2 2\n255\n", F64_MAGIC,
                            F64_MAGIC + bytes([2, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]),
                            HISTORY_HEADER.encode() + b"\n"])
HISTORY_CHARS = st.text(alphabet="0123456789.,-+einfa_ \n\xff", max_size=80)


@settings(max_examples=300, deadline=None)
@given(PREFIXES, st.one_of(st.binary(max_size=64), HISTORY_CHARS.map(lambda t: t.encode("utf-8"))))
def test_readers_raise_only_typed_errors(prefix, tail):
    for reader in (read_pgm, read_f64, read_history):
        try:
            reader(prefix + tail)
        except AtsegError:
            pass
