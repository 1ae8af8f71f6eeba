"""The compiled CSV formatter, ``_repr.c``, against Python's ``repr``.

Every float64 cell must be ``repr(float)``, every int64 cell ``str(int)``
and every bytes cell its text, byte for byte: the shortest digits that read
back, the closest of them, the even last digit on a tie, and repr's layout.
The inputs are the hard cases of shortest-digit conversion: every exponent,
the subnormals, integers where doubles stop being dense, and the
neighbours of every power of ten; and bytes cells of every width the
formatter takes.
"""

import ctypes
import math
import os
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tcpfluid import _rk4, artifacts
from tcpfluid.nhpl import KINDS
from oracles import assert_same_text, per_row_csv, write_csv

SOURCE = os.path.join(os.path.dirname(_rk4.__file__), "_repr.c")
FINITE = 0x7FF0000000000000  # the bits of inf, one past the largest finite magnitude


def format_rows(columns):
    """The text the compiled formatter writes for ``columns``."""
    lib = _rk4.library()
    if lib is None:
        pytest.skip("no C compiler to build the formatter with; CI requires it")
    out = np.empty(len(columns[0]) * len(columns) * artifacts.CELL_BYTES, np.uint8)
    return out[:lib.format_rows(columns, out)].tobytes().decode()


def assert_repr(values) -> None:
    """Each float64 of ``values`` formats as its repr; the first that does
    not fails with both strings."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    got = format_rows([values]).split("\n")[:-1]
    want = list(map(repr, values.tolist()))
    bad = [(v.hex(), g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not bad, bad[:5]


def from_bits(bits) -> np.ndarray:
    """The float64s of the 64-bit patterns ``bits``."""
    return np.array(bits, dtype=np.uint64).view(np.float64)


def neighbours(values, ulps: int = 4) -> np.ndarray:
    """The finite nonnegative doubles 1 to ``ulps`` ulp either side of each
    of the nonnegative ``values``."""
    bits = np.asarray(values, dtype=np.float64).view(np.int64)
    near = np.concatenate([bits + d for d in range(-ulps, ulps + 1) if d])
    return near[(near >= 0) & (near < FINITE)].view(np.float64)


def test_every_power_of_two_and_its_neighbours():
    # Each exponent once with its significand on the power (where the lower
    # neighbour is half as far) and 1 to 4 ulp away, both signs.
    powers = np.array([2.0**e for e in range(-1074, 1024)])
    for values in (powers, neighbours(powers)):
        assert_repr(values)
        assert_repr(-values)


def test_subnormals_and_their_boundaries():
    low = np.arange(1, 4097)  # 5e-324 and the multiples of it above
    top = 0x000FFFFFFFFFFFFF - np.arange(4096)  # up to the largest subnormal
    edge = 0x0010000000000000 + np.arange(-4, 5)  # either side of the smallest normal
    spread = np.random.default_rng(31).integers(1, 0x0010000000000000, 20000)
    values = from_bits(np.concatenate([low, top, edge, spread]))
    assert repr(float(values[0])) == "5e-324"
    assert repr(float(values[4096])) == "2.225073858507201e-308"  # the largest subnormal
    assert_repr(values)
    assert_repr(-values)


def test_integers_near_two_to_fifty_three_and_powers_of_ten():
    # Integers are exact below 2^53 and spaced 2 and more above it; near
    # 10^k the length of the digit string changes.
    near = np.arange(-64, 65)
    values = [2.0**53 + near, 2.0**54 + near]
    values += [10.0**k + near for k in range(1, 23)]
    values += [np.arange(100001.0)]
    assert_repr(np.concatenate(values))


def test_neighbours_of_every_power_of_ten():
    # 1e-323 to 1e308 and the fixed-notation bounds 1e-4 and 1e16, each
    # with its doubles 1 to 4 ulp either side.
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    assert 1e-4 in tens and 1e16 in tens
    for values in (tens, neighbours(tens)):
        assert_repr(values)
        assert_repr(-values)


def test_signed_zeros_infinities_and_nans():
    nans = from_bits([0x7FF8000000000000, 0x7FF0000000000001, 0xFFF8000000000000,
                      0x7FFFFFFFFFFFFFFF])
    values = np.concatenate([[0.0, -0.0, np.inf, -np.inf], nans])
    assert format_rows([values]) == "0.0\n-0.0\ninf\n-inf\nnan\nnan\nnan\nnan\n"
    assert_repr(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_any_bit_pattern(bits):
    assert_repr(from_bits(bits))


def test_int64_cells_are_str():
    ints = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1, 1, 9, 10, -10,
                     10**18, -(10**18)], dtype=np.int64)
    assert format_rows([ints]) == "".join(f"{v}\n" for v in ints.tolist())


def test_bytes_cells_of_every_width_are_their_text():
    # Widths 1 to 24, each with the empty label, a full-width one that no
    # NUL ends, and labels of every length in between.
    rng = np.random.default_rng(11)
    for width in range(1, artifacts.CELL_BYTES):
        texts = ["", "x" * width, *("".join(map(chr, rng.integers(32, 127, size)))
                                    for size in rng.integers(0, width + 1, 200))]
        col = np.array([text.encode() for text in texts], dtype=f"S{width}")
        assert col.itemsize == width
        assert format_rows([col]) == "".join(f"{text}\n" for text in texts)


def test_a_bytes_cell_ends_at_its_first_nul():
    # By the formatter and by repr's path alike.
    col = np.array([b"ab\0c", b"\0abc", b"abcd"], dtype="S4")
    assert format_rows([col]) == "ab\n\nabcd\n"
    assert artifacts._chunk_cells(col) == ["ab", "", "abcd"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.binary(max_size=6), max_size=40))
def test_bytes_cells_decode_as_one_at_a_time(cells):
    # repr's path decodes each distinct cell once: the same text as a
    # decode cell by cell, and the same error for a cell that is not ASCII.
    col = np.array(cells, dtype="S6")

    def outcome(decode):
        try:
            return decode(col)
        except UnicodeDecodeError as err:
            return repr(err)

    assert outcome(artifacts._chunk_cells) == outcome(
        lambda col: [cell.partition(b"\0")[0].decode("ascii") for cell in col.tolist()])


def test_rows_of_mixed_columns():
    # Cells joined by commas, rows ended by newlines, columns in order.
    n = 1000
    columns = [np.resize(np.array(KINDS, dtype="S"), n), np.arange(n) * 0.001,
               np.resize(np.array([-1, 0, 1], dtype=np.int64), n),
               np.random.default_rng(7).standard_normal(n),
               np.resize(np.array([b"", b"y" * 24, b"z"]), n)]
    assert format_rows(columns) == per_row_csv("h", columns).split("\n", 1)[1]


def refused_columns():
    """Bytes columns the formatter does not take: one a byte wider than
    the widest cell it may write, and a strided view."""
    return [np.array([b"x" * artifacts.CELL_BYTES, b"", b"y"] * 700),
            np.array([b"loss", b"indication", b"!"] * 1400)[::2]]


def test_format_rows_refuses_what_it_cannot_write():
    lib = _rk4.library()
    if lib is None:
        pytest.skip("no C compiler to build the formatter with; CI requires it")
    col = np.arange(10.0)
    out = np.empty(10 * artifacts.CELL_BYTES, np.uint8)
    for columns in ([col[::2]], [col.astype(np.float32)], [col.astype(">f8")],
                    [col.astype(object)], [col, col[:5]], [col, col],
                    *([bytes_col[:10]] for bytes_col in refused_columns())):
        with pytest.raises(ValueError, match="the formatter takes"):
            lib.format_rows(columns, out)


def test_columns_the_formatter_refuses_are_written_by_repr(tmp_path, monkeypatch):
    # write_rows never hands them to the formatter, and writes their text.
    def refused(chunk, out):
        raise AssertionError("formatted a column the formatter refuses")

    monkeypatch.setattr(artifacts, "_formatter", lambda: refused)
    path = tmp_path / "t.csv"
    for col in refused_columns():
        assert col.itemsize == artifacts.CELL_BYTES or not col.flags.c_contiguous
        write_csv(path, "label", [col])
        assert_same_text(path.read_text(encoding="utf-8"), per_row_csv("label", [col]))


def test_the_widest_cells_fit_cell_bytes():
    # _repr.c's CELL_BYTES and artifacts', which sizes the buffer the
    # writer formats into, are one number.  The widest cells, the negative
    # least normal float and the least int64, fit it, the float taking all
    # of it with its separator, and no byte past the buffer is written.
    with open(SOURCE, encoding="utf-8") as fh:
        defined = re.findall(r"^#define CELL_BYTES (\d+)$", fh.read(), re.M)
    assert defined == [str(artifacts.CELL_BYTES)]
    lib = _rk4.library()
    if lib is None:
        pytest.skip("no C compiler to build the formatter with; CI requires it")
    rows, least, int_min = 1024, -2.2250738585072014e-308, np.iinfo(np.int64).min
    columns = [np.full(rows, least), np.full(rows, int_min), np.full(rows, least)]
    size = rows * len(columns) * artifacts.CELL_BYTES
    guarded = np.full(size + 64, 0xA5, np.uint8)
    written = lib.format_rows(columns, guarded[:size])
    assert written <= size and (guarded[size:] == 0xA5).all()
    cell = f"{least!r},"
    assert len(cell) == artifacts.CELL_BYTES
    assert guarded[:written].tobytes().decode() == f"{cell}{int_min},{least!r}\n" * rows


def power_table():
    """``repr_powers`` of ``_repr.c`` from Python's integers: for b in
    [-292, 324], 10^b scaled by a power of two into [2^127, 2^128),
    floored, plus 1."""
    table = []
    for b in range(-292, 325):
        num, den = (10**b, 1) if b >= 0 else (1, 10**-b)
        log2 = num.bit_length() - den.bit_length()  # floor(log2(num / den)), or one above
        if num << max(-log2, 0) < den << max(log2, 0):
            log2 -= 1
        shift = 127 - log2
        g = (num << shift) // den if shift >= 0 else num // (den << -shift)
        assert 2**127 <= g < 2**128
        table.append(g + 1)
    return table


def test_the_power_table_is_exact(monkeypatch):
    # The rows the library computed when it was loaded, read from the
    # library that load opens, against Python's integers.
    opened = []
    cdll = ctypes.CDLL
    monkeypatch.setattr(_rk4.ctypes, "CDLL", lambda path: opened.append(cdll(path)) or opened[0])
    if _rk4.load(os.path.join(os.path.dirname(SOURCE), "__pycache__")) is None:
        pytest.skip("no C compiler to build the formatter with; CI requires it")
    rows = (ctypes.c_uint64 * 2 * 617).in_dll(opened[0], "repr_powers")
    assert [hi << 64 | lo for hi, lo in rows] == power_table()


def floor_log(base: int, x: Fraction) -> int:
    """floor(log_base(x)) for x > 0, by exact comparison."""
    bits = x.numerator.bit_length() - x.denominator.bit_length()  # log2(x), to within 1
    k = math.floor(bits * math.log(2) / math.log(base)) - 1
    while Fraction(base) ** k > x:
        k -= 1
    while Fraction(base) ** (k + 1) <= x:
        k += 1
    return k


def test_the_floor_logarithms_are_exact():
    # The three multiply-and-shift floors of _repr.c, read from its source,
    # against exact arithmetic over every exponent 1300 either side of 0.
    with open(SOURCE, encoding="utf-8") as fh:
        text = fh.read()
    pattern = r"static int (floor_\w+)\(int e\) \{ return (\(e \* \d+(?: - \d+)?\) >> \d+); \}"
    forms = dict(re.findall(pattern, text))
    exact = {"floor_log10_pow2": lambda e: floor_log(10, Fraction(2) ** e),
             "floor_log10_three_quarters_pow2": lambda e: floor_log(10, Fraction(3, 4) * Fraction(2) ** e),
             "floor_log2_pow10": lambda e: floor_log(2, Fraction(10) ** e)}
    assert sorted(forms) == sorted(exact)
    for name, form in forms.items():
        assert [eval(form, {"e": e}) for e in range(-1300, 1301)] == \
            [exact[name](e) for e in range(-1300, 1301)], name
