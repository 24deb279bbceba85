"""The array formatter ``_format.csv_rows`` against ``'%.17g'``, value by value."""

import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import respole
from respole._format import CSV_CHUNK, _decimal, _digits, _tables, csv_rows, format_float
from respole.poles import _CODE_LABELS


def printf_rows(values):
    """Oracle: the stdlib formatter, one field at a time."""
    return "".join(",".join(format_float(v) for v in row) + "\n"
                   for row in np.asarray(values).tolist())


def printf_labelled_rows(values, codes, names):
    """Oracle for the label column: each row's fields, then its name."""
    return "".join(",".join([*map(format_float, row), names[c]]) + "\n"
                   for row, c in zip(np.asarray(values).tolist(), codes.tolist(), strict=True))


def ulps(x, count):
    """x and its neighbours up to ``count`` ulps either side."""
    out = [x]
    for toward in (0.0, np.inf):
        y = x
        for _ in range(count):
            y = float(np.nextafter(y, toward))
            out.append(y)
    return out


def exact_ties():
    """Doubles whose 18th significant digit is an exact 5 followed by
    nothing, both with an even and an odd 17th digit: x = m / 2**(17 - d)
    with m odd, so that x * 10**(16 - d) = m * 5**(16 - d) / 2."""
    ties = []
    for d in range(-4, 16):
        lo = Fraction(10) ** d * 2 ** (17 - d)
        m = int(lo) + 1 | 1
        for step in (0, 2, 12, 1000):
            x = (m + step) / 2 ** (17 - d)
            assert Fraction(x) * 10 ** (16 - d) % 1 == Fraction(1, 2)
            ties.append(x)
    return ties


BOUNDARY = [
    *(y for k in range(-5, 18) for y in ulps(float(f"1e{k}"), 2)),
    1e-4 * (1 - 2.0**-52), 0.099999999999999992, 9.9999999999999995,
    2.0**53 - 1, 2.0**53, 2.0**53 + 2, 1e16 - 2,
    *exact_ties(),
    0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, np.inf, np.nan,
]


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_boundary_values_match_printf(sign):
    values = np.array([sign * v for v in BOUNDARY]).reshape(-1, 1)
    assert csv_rows(values) == printf_rows(values)


def cell_values():
    """For every exponent d in [-4, 15] and every count of significant digits
    kept, 1 to 17, the first double, counting up from 10**d through the
    decimals of that many digits, whose '%.17g' text has exactly that
    exponent and that many digits."""
    found = {}
    for d in range(-4, 16):
        for keep in range(1, 18):
            for m in range(10 ** (keep - 1) + 1, 10 ** (keep - 1) + 2000):
                digits = str(m)[:keep - 1] + str(m % 9 + 1)  # no trailing zero
                x = float(f"{digits[0]}.{digits[1:]}e{d}")
                mantissa, exp = format(x, ".16e").split("e")
                if int(exp) == d and len(mantissa.replace(".", "").rstrip("0")) == keep:
                    found[d, keep] = x
                    break
    return found


def test_every_exponent_and_digit_count_matches_printf():
    # each (exponent, digits kept) cell of the placement table, both signs,
    # and the zeros, which print from the cell of n = 0
    found = cell_values()
    assert sorted(found) == [(d, keep) for d in range(-4, 16) for keep in range(1, 18)]
    n, d, fast = _decimal(np.array(list(found.values())), _tables())
    assert fast.all()
    assert list(zip(d.tolist(), _digits(n, _tables())[1].tolist())) == list(found)
    for sign in (1.0, -1.0):
        values = np.array([sign * x for x in found.values()] + [sign * 0.0]).reshape(-1, 1)
        assert csv_rows(values) == printf_rows(values)
        assert csv_rows(values.reshape(-1, 11)) == printf_rows(values.reshape(-1, 11))


def test_exact_ties_round_half_to_even():
    # 1 + 2**-17 = 1.00000762939453125 exactly: the tie goes to the even 2
    assert csv_rows(np.array([[1 + 2.0**-17, 1 + 3 * 2.0**-17]])) == (
        "1.0000076293945312,1.0000228881835938\n")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64),
       st.sampled_from([1, 2, 8]))
def test_any_bit_pattern_matches_printf(bits, columns):
    # nan payloads, infinities, signed zeros and subnormals included
    bits += [0] * (-len(bits) % columns)
    values = np.array(bits, dtype=np.uint64).view(np.float64).reshape(-1, columns)
    assert csv_rows(values) == printf_rows(values)


# both sides of a pass boundary, and the same counts around 256 rows, inside
# a pass
@pytest.mark.parametrize("rows,columns", [(1, 1), (1, 8), (255, 8), (256, 8), (257, 8),
                                          (CSV_CHUNK - 1, 8), (CSV_CHUNK, 8),
                                          (CSV_CHUNK + 1, 8), (0, 8)])
def test_shapes_and_chunk_edges(rows, columns):
    rng = np.random.default_rng(rows)
    values = rng.standard_normal((rows, columns)) * 10.0 ** rng.integers(-6, 18, (rows, columns))
    assert csv_rows(values) == printf_rows(values)


@pytest.mark.parametrize("columns", [7, 8])
@pytest.mark.parametrize("rows", [0, 1, CSV_CHUNK - 1, CSV_CHUNK, CSV_CHUNK + 1])
def test_label_column_at_chunk_edges(rows, columns):
    rng = np.random.default_rng(1000 * columns + rows)
    values = rng.standard_normal((rows, columns)) * 10.0 ** rng.integers(-6, 18, (rows, columns))
    codes = rng.integers(0, len(_CODE_LABELS), rows)
    text = csv_rows(values, codes, _CODE_LABELS)
    assert text == printf_labelled_rows(values, codes, _CODE_LABELS)
    assert text.count("\n") == rows


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_label_column_after_special_values(sign):
    # zeros, subnormals, inf and nan go through '%.17g', whose records sit
    # before the label; values at 1e-4 and 1e16 bound the fast range
    special = [0.0, 5e-324, 2.2250738585072014e-308, np.inf, np.nan,
               *ulps(1e-4, 2), *ulps(1e16, 2)]
    values = np.array([sign * v for v in special] * 7).reshape(-1, 7)
    codes = np.arange(len(values)) % len(_CODE_LABELS)
    assert csv_rows(values, codes, _CODE_LABELS) == printf_labelled_rows(
        values, codes, _CODE_LABELS)
    # every row of special values alone, so a whole row takes the slow path
    for v in special:
        row = np.full((1, 7), sign * v)
        assert csv_rows(row, codes[:1], _CODE_LABELS) == printf_labelled_rows(
            row, codes[:1], _CODE_LABELS)


def test_label_names_fill_their_whole_record():
    # 23 bytes leave room only for the closing newline; a name with "%"
    # would be read by the '%.17g' fill-in, and one of 24 bytes has no room
    names = ("x" * 23, "", "a,b")
    values = np.array([[1.5, -0.0], [np.nan, 2.0], [1e-7, 3.0]])
    codes = np.array([0, 1, 2])
    assert csv_rows(values, codes, names) == printf_labelled_rows(values, codes, names)
    for bad in ("x" * 24, "50%", "a\0b"):
        with pytest.raises(ValueError, match="label"):
            csv_rows(values, codes, (bad, "", ""))
    with pytest.raises(ValueError, match="one code per row"):
        csv_rows(values, codes[:2], names)


def test_log_ten_off_by_one_ulp_still_prints_exactly(monkeypatch):
    # some libm and SIMD builds round log10 one ulp off near powers of ten;
    # the range check and the carry must absorb it either way
    exact = np.log10
    values = np.array(BOUNDARY + [-v for v in BOUNDARY]).reshape(-1, 1)
    for toward in (-np.inf, np.inf):
        monkeypatch.setattr(np, "log10", lambda a, t=toward: np.nextafter(exact(a), t))
        assert csv_rows(values) == printf_rows(values)


def test_tables_are_built_on_the_first_call_only():
    # commands that write no array CSV never build the tables; the first
    # csv_rows call builds them and every later call reuses them
    script = textwrap.dedent("""
        import contextlib, io
        import numpy as np
        from respole import _format
        from respole.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["poles", "--t1", "0.5", "--method", "both", "--format", "csv"],
                         ["oracle", "--t1", "0.5", "--sites", "20"],
                         ["wavefunction", "--pole-index", "0"]):
                assert main(argv) == 0, argv
        assert _format._tables.cache_info().currsize == 0
        assert _format.csv_rows(np.full((1, 2), 0.5)) == "0.5,0.5\\n"
        _format.csv_rows(np.ones((_format.CSV_CHUNK + 1, 3)))
        info = _format._tables.cache_info()
        assert (info.misses, info.hits) == (1, 1), info
    """)
    src = os.path.dirname(os.path.dirname(respole.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
