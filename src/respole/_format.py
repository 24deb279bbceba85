"""Deterministic numeric formatting for CSV/JSON output.

Every float is written with 17 significant digits, ``'%.17g' % x``, which
round-trips any double.  ``format_float`` formats one value; ``csv_rows``
formats an (m, c) array in numpy and writes the same bytes, optionally
followed by a text column of names given as integer codes.  The two array
writers use ``csv_rows``: ``scattering.sweep_rows_csv`` (``transmission``)
and ``cli.cmd_sweep`` (``sweep``, whose class column is the text column, by
the codes of ``poles._CODE_LABELS``).  ``wavefunction_csv`` formats value by
value.  ``dumps`` is the reference layout of the JSON that ``cli`` writes
from fixed templates (``poles`` and ``oracle``); no command calls it.
``csv_rows`` builds its tables on its first call, so the other commands
never pay for them.

Why ``csv_rows`` is exact.  Take 1e-4 <= |x| < 1e16 and d = floor(log10|x|)
in [-4, 15].  Then q = 16 - d lies in [1, 20], so 10**q is an exact double,
and Dekker's error-free product (Numer. Math. 18 (1971) 224, with Veltkamp's
split, as numpy has no fma) gives x * 10**q = ph + pl exactly, with |pl| at
most half an ulp of ph.  N = ph + rint(pl) is the 17-digit integer, and it
is kept only if 10**16 <= N <= 10**17.  A kept N is the correctly rounded
one, which is what ``'%.17g'`` prints: ph is then at least 10**16 > 2**53,
so it is an even integer, and numpy's ``rint`` rounds pl half to even, so
ph + rint(pl) is ph + pl rounded half to even.  N = 10**17 carries: the
digits become 10**16 and d grows by one.  The range check also catches
log10 being off by one:

- d one too high means x * 10**q < 10**16, and N reaches 10**16 only if x
  lies within 5e-17 relative below a power of ten.  No double in range does:
  10**d is a double for d >= 0, and the doubles below 0.1, 0.01 and 0.001
  are 8.3e-17, 1.5e-16 and 2.0e-16 below them.
- d one too low means x * 10**q >= 10**17, and N = 10**17 only if
  x * 10**q <= 10**17 + 1/2, where the carried digits are the right ones.

Each kept value becomes a 24-byte record in three 64-bit words: a sign byte,
the integer digits from byte 1 on, and fraction digit j at byte 6 + j
whatever d, NUL padding and the separator in the last byte.  The digits
come from a 4-digit ASCII table and move into place by two fixed shifts;
masks per (d, digits kept) place them, add the point and the leading zeros,
and cut the record after its last significant digit.  Deleting the NULs
from all records gives the CSV text, so the NULs between the point and the
fraction, which leave room for the sign and ``0.000`` of d = -4, cost
nothing.  Zeros print as ``0`` or ``-0`` on the same path.  Every other
value (|x| < 1e-4, which ``'%.17g'`` writes with an exponent, |x| >= 1e16,
inf, nan and the rejected ones) goes through ``'%.17g'`` itself.  A text
column adds one more record per row, taken from a small word table of the
names: the name, NUL padding and ``\n`` in the last byte; the last number's
separator is then ``,``.

``csv_rows`` works in passes of ``CSV_CHUNK`` rows.  A pass makes about 100
numpy calls whatever its size, most of them one sweep over its values, so
larger passes pay the fixed cost less often, until the pass's temporaries
outgrow what the allocator serves from its heap (see ``CSV_CHUNK``).
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

# rows per pass of csv_rows.  At 8 columns (9 with a label) the largest
# temporaries, three words per value, stay below 128 kB, glibc's default
# mmap threshold, so the heap serves them pass after pass.  At 1024 rows
# each is mapped and page-faulted afresh: with that threshold fixed, the
# transmission benchmark ran about 15 % slower than at 256 rows on a 2-core
# Xeon.  Peak RSS of the benchmark's seed-101 sweep items was 33.0, 33.6,
# 34.6 and 34.8 MB at 256, 512, 1024 and 4096 rows, of its transmission
# items 34.2, 34.5, 34.1 and 36.6 MB
CSV_CHUNK = 512

_U64 = np.uint64
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's split of a double
# a record that ``'%.17g' % x`` fills in after the NULs are gone
_FALLBACK = np.frombuffer(b"%.17g\0\0\0", "<u8")[0]
# fraction digit j goes to byte _FRACTION + j of its record, whatever the
# exponent: right after the longest prefix, the sign and "0.000" of d = -4
_FRACTION = 6


class _Tables(NamedTuple):
    """The lookup tables of ``csv_rows``, from :func:`_tables`."""

    pow10: np.ndarray  # 10**q for q = 16 - d in [0, 21], a log10 one off included
    pow10_hi: np.ndarray  # Veltkamp's split: pow10 = pow10_hi + pow10_lo
    pow10_lo: np.ndarray
    digits: np.ndarray  # ASCII of the 4 digits of g < 10**4, a byte each
    last: np.ndarray  # (4, 10**4) significant digits through group j
    # (3, 3, 20 * 18): the integer mask, the fraction mask and the constant
    # bytes, word by word, per exponent d and digits kept (column
    # 18 * (d + 4) + keep), each cut to the record's length
    place: np.ndarray


def _words(record: bytes) -> list[int]:
    """The three little-endian 64-bit words of a 24-byte record."""
    return [int.from_bytes(record[i:i + 8], "little") for i in (0, 8, 16)]


@functools.cache
def _tables() -> _Tables:
    """Digit and placement tables, built on the first call of ``csv_rows``
    (about 1 ms and 0.8 MB of resident memory), so commands that never
    write through it do not pay for them.  The digit tables use the integer
    operations of ``_digits``: numpy maps the code of each kind of loop on
    first use, so new kinds would cost resident memory.  The small tables
    are plain Python."""
    pow10 = 10.0 ** np.arange(22)  # exact up to 10**22
    pow10_hi = pow10 * _SPLIT - (pow10 * _SPLIT - pow10)
    g = np.arange(10000)
    digits = np.zeros(10000, _U64)
    sig = (g != 0).astype(np.uint8)
    for i, p in enumerate((1000, 100, 10, 1)):
        q = g // p
        digits |= ((q - q // 10 * 10).astype(_U64) + _U64(ord("0"))) << _U64(8 * i)
        if p < 1000:
            sig += g - g // (10 * p) * (10 * p) != 0
    # significant digits through group j (digits 4j..4j+3) of the 17; 0 if g == 0
    last = np.stack([sig + (sig != 0) * np.uint8(4 * j) for j in range(4)])
    # per exponent d and number of significant digits kept (column
    # 18 * (d + 4) + keep), three records: the mask of the integer digits
    # (moved one byte, past the sign), the mask of the fraction digits (digit
    # j moved to byte _FRACTION + j) and the constant bytes, each cut to the
    # record's length
    place = []
    for d in range(-4, 16):
        if d >= 0:  # 123.45
            int_mask = b"\0" + b"\xff" * (d + 1)
            const = b"\0" * (d + 2) + b"."
        else:  # 0.0012345
            int_mask = b""
            const = b"\0" + b"0." + b"0" * (-d - 1)
        first = max(d + 1, 0)  # the first fraction digit
        frac_mask = b"\0" * (_FRACTION + first) + b"\xff" * (17 - first)
        for keep in range(18):
            # record length, sign byte included: through the last
            # significant fraction digit, else without the point
            size = _FRACTION + keep if keep > first else len(const) - 1
            place.append([_words(r[:size].ljust(24, b"\0"))
                          for r in (int_mask, frac_mask, const)])
    return _Tables(pow10, pow10_hi, pow10 - pow10_hi, digits, last,
                   np.array(place, _U64).transpose(1, 2, 0).copy())


def _decimal(x: np.ndarray, tab: _Tables) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The correctly rounded 17-digit integer n and the decimal exponent d of
    each value, and the mask of the values that these are exact for; n = d = 0
    elsewhere."""
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)
    a = np.where(fast, a, 1.0)
    d = np.floor(np.log10(a)).astype(np.int64)
    q = 16 - d
    # x * 10**q = ph + pl exactly
    b_hi, b_lo = tab.pow10_hi.take(q), tab.pow10_lo.take(q)
    c = a * _SPLIT
    a_hi = c - (c - a)
    a_lo = a - a_hi
    ph = a * tab.pow10.take(q)
    pl = ((a_hi * b_hi - ph) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    # ph is even wherever a value is kept, so rounding pl half to even
    # rounds ph + pl half to even
    n = ph.astype(np.int64)
    n += np.rint(pl).astype(np.int64)
    fast &= (n >= 10**16) & (n <= 10**17)
    carry = n == 10**17
    n[carry] = 10**16
    d += carry
    n[~fast] = 0
    d[~fast] = 0
    return n, d, fast


def _digits(n: np.ndarray, tab: _Tables) -> tuple[np.ndarray, np.ndarray]:
    """The 17 ASCII digits of each n, digit j in byte j of the three words of
    a (3, len(n)) array, and how many of them are significant (0 for n = 0)."""
    # groups of 4, 4, 4, 4 and 1 digits from the left
    hi = n // 10**9
    lo = n - hi * 10**9
    g0 = hi // 10**4
    g1 = hi - g0 * 10**4
    lo8 = lo // 10
    g4 = lo - lo8 * 10
    g2 = lo8 // 10**4
    g3 = lo8 - g2 * 10**4
    words = np.empty((3, n.size), _U64)
    table = tab.digits
    np.bitwise_or(table.take(g0), table.take(g1) << _U64(32), out=words[0])
    np.bitwise_or(table.take(g2), table.take(g3) << _U64(32), out=words[1])
    np.add(g4, ord("0"), out=words[2], casting="unsafe")
    last = tab.last
    keep = np.maximum(last[0].take(g0), last[1].take(g1))
    np.maximum(keep, last[2].take(g2), out=keep)
    np.maximum(keep, last[3].take(g3), out=keep)
    keep[g4 != 0] = 17
    return words, keep


def _records(x: np.ndarray, sep: np.ndarray, tab: _Tables,
             label: np.ndarray | None = None) -> str:
    """CSV text of the flat values ``x`` of whole rows; ``sep`` holds the
    separator word of each value, row after row.  ``label``, if given, is
    the (rows, 3) words of each row's closing text record."""
    n, d, fast = _decimal(x, tab)
    # zeros print from n = 0; the other values not kept go to '%.17g' below
    slow = np.flatnonzero(~fast & (x != 0))
    digits, keep = _digits(n, tab)
    cell = (d + 4) * 18 + keep  # keep in [0, 17]
    int_mask, frac_mask, const = tab.place
    # the digits moved right by one byte (integer part) and by six bytes
    # (fraction), 8 bits per byte, carrying across the words
    out = digits << _U64(8)
    out[1:] |= digits[:2] >> _U64(56)
    out &= int_mask.take(cell, axis=1)
    frac = digits << _U64(8 * _FRACTION)
    frac[1:] |= digits[:2] >> _U64(64 - 8 * _FRACTION)
    frac &= frac_mask.take(cell, axis=1)
    out |= frac
    out |= const.take(cell, axis=1)
    out[0] |= np.signbit(x) * _U64(ord("-"))
    out[:, slow] = 0
    out[0, slow] = _FALLBACK
    out[2] |= sep[:x.size]
    if label is None:
        buf = out.T
    else:
        buf = np.empty((len(label), x.size // len(label) + 1, 3), _U64)
        buf[:, :-1] = out.T.reshape(len(label), -1, 3)
        buf[:, -1] = label
    text = buf.tobytes().translate(None, b"\0").decode("ascii")
    return text % tuple(x[slow].tolist()) if slow.size else text


def csv_rows(values: np.ndarray, codes: np.ndarray | None = None, names: tuple = (),
             header: str = "", trailer: str = "") -> str:
    """CSV lines of an (m, c) float array, ``\\n`` endings: field for field the
    text of :func:`format_float`, computed in numpy (see the module notes).

    With ``codes``, each line ends in one more field, ``names[codes[i]]``:
    a text of at most 23 ASCII characters with no NUL and no ``%``.
    ``header`` and ``trailer`` go before and after the lines, in the one join
    of the passes, so a caller's table is copied once."""
    values = np.asarray(values, dtype=float)
    m, c = values.shape
    # "," or "\n" in the top byte of each record's third word; with a label
    # the last number is followed by ",", and the label record ends in "\n"
    sep = np.full((CSV_CHUNK, c), ord(","), _U64)
    words = None
    if codes is None:
        sep[:, -1] = ord("\n")
    else:
        codes = np.asarray(codes)
        if codes.shape != (m,):
            raise ValueError(f"need one code per row, got shape {codes.shape} for {m} rows")
        raw = [name.encode("ascii") for name in names]
        if any(len(b) > 23 or b"\0" in b or b"%" in b for b in raw):
            raise ValueError("a label must be at most 23 ASCII bytes, with no NUL and no %")
        words = np.frombuffer(b"".join(b.ljust(23, b"\0") + b"\n" for b in raw),
                              "<u8").astype(_U64).reshape(-1, 3)
    sep = sep.ravel() << _U64(56)
    tab = _tables()
    with np.errstate(all="ignore"):
        passes = [_records(values[lo:lo + CSV_CHUNK].ravel(), sep, tab,
                           None if words is None else words.take(codes[lo:lo + CSV_CHUNK], axis=0))
                  for lo in range(0, m, CSV_CHUNK)]
    return "".join([header, *passes, trailer])


def format_float(x: float) -> str:
    """17 significant digits: enough to round-trip any double exactly."""
    return format(float(x), ".17g")


def dumps(obj, indent: int = 0) -> str:
    """Minimal JSON serializer that renders floats via :func:`format_float`.

    The stdlib encoder insists on repr-style floats; regression outputs here
    pin a fixed digit count instead.  Supports the types its callers pass:
    dict, list, str, float and None, with deterministic key order (insertion
    order).  Anything else, a bool, an int or a tuple included, raises
    TypeError.
    """
    pad = " " * indent
    if obj is None:
        return "null"
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{out}"'
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f'{pad}  {dumps(str(k))}: {dumps(v, indent + 2)}' for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        inner = ",\n".join(f"{pad}  {dumps(v, indent + 2)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")
