"""Sample containers and the on-disk sample-file format.

A :class:`ScoredDataset` is the sole interface between the estimators and the
statistical model: it carries sample points, cached score vectors
``u(x) = grad log pi(x)`` (``pi`` may be un-normalised) and cached integrand
values ``f(x)``.  Nothing downstream ever evaluates the model again.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, InvalidInputError, _bad, _count, _fraction


def _as_finite_array(values, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != ndim:
        raise InvalidInputError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr


def _row_indices(indices, n: int | None = None) -> np.ndarray:
    """``indices`` as a 1-D integer index array, each in 0..n-1 when ``n``
    is given.  A boolean mask is refused, since as int it would pick rows 0
    and 1, not the rows it marks, and so is any other non-integer array but
    an empty one, whose values int would truncate."""
    idx = np.asarray(indices)
    kind = idx.dtype.kind
    if kind == "b":
        raise InvalidInputError("row indices must be integers, not a boolean mask")
    if idx.ndim != 1:
        raise InvalidInputError(f"row indices must be a 1-D array, got shape {idx.shape}")
    if kind not in "iu" and idx.size:
        raise InvalidInputError(f"row indices must be integers, got dtype {idx.dtype}")
    idx = idx.astype(int, copy=False)
    if n is not None and idx.size and not 0 <= idx.min() <= idx.max() < n:
        raise InvalidInputError(f"row indices must lie in 0..{n - 1}, got {idx.min()}..{idx.max()}")
    return idx


@dataclass(frozen=True)
class ScoredDataset:
    """Sample points with cached scores and integrand values.

    Parameters
    ----------
    points : (n, d) array
        Sample coordinates.
    scores : (n, d) array
        Score vectors ``u(x_i) = grad log pi(x_i)`` evaluated at the points.
    f_values : (n,) array
        Integrand values ``f(x_i)``.
    """

    points: np.ndarray
    scores: np.ndarray
    f_values: np.ndarray

    def __post_init__(self):
        points = _as_finite_array(self.points, "points", 2)
        scores = _as_finite_array(self.scores, "scores", 2)
        f_values = _as_finite_array(self.f_values, "f_values", 1)
        if points.shape[0] < 1:
            raise InvalidInputError("dataset must contain at least one sample")
        if points.shape[1] < 1:
            raise InvalidInputError("dimension must be at least 1")
        if scores.shape != points.shape:
            raise InvalidInputError(
                f"scores shape {scores.shape} does not match points shape {points.shape}"
            )
        if f_values.shape[0] != points.shape[0]:
            raise InvalidInputError(
                f"f_values length {f_values.shape[0]} does not match {points.shape[0]} points"
            )
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "f_values", f_values)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.n

    def subset(self, indices) -> "ScoredDataset":
        idx = _row_indices(indices, self.n)
        return ScoredDataset(self.points[idx], self.scores[idx], self.f_values[idx])


@dataclass(frozen=True)
class SplitPlan:
    """A dichotomy of ``0..n-1`` into a fitting set and an evaluation set.

    ``index_d0`` selects the ``m`` fitting samples (at least one),
    ``index_d1`` the remaining evaluation samples; together they must cover
    every index exactly once.
    """

    index_d0: np.ndarray
    index_d1: np.ndarray

    def __post_init__(self):
        d0, d1 = _row_indices(self.index_d0), _row_indices(self.index_d1)
        if d0.size == 0:
            raise InvalidInputError("index_d0 must select at least one sample")
        combined = np.concatenate([d0, d1])
        if not np.array_equal(np.sort(combined), np.arange(combined.size)):
            raise InvalidInputError("index_d0 and index_d1 must partition 0..n-1")
        object.__setattr__(self, "index_d0", d0)
        object.__setattr__(self, "index_d1", d1)

    @property
    def m(self) -> int:
        return self.index_d0.size

    @property
    def n(self) -> int:
        return self.index_d0.size + self.index_d1.size


def random_split(n: int, m: int, seed, index: int = 0) -> SplitPlan:
    """Draw a uniformly random split of ``n`` samples with ``|D0| = m``.

    ``index`` selects an independent stream derived from ``seed``, so a family
    of splits (e.g. for multi-splitting) is reproducible and order-free.
    """
    m = _count("m", m, 1)
    if m > n:
        raise _bad("m", f"at most n={n}", m)
    seq = _seed_sequence(seed)
    stream = np.random.SeedSequence(entropy=seq.entropy, spawn_key=tuple(seq.spawn_key) + (index,))
    rng = np.random.Generator(np.random.Philox(stream))
    perm = rng.permutation(n)
    return SplitPlan(index_d0=perm[:m], index_d1=perm[m:])


def _seed_sequence(seed) -> np.random.SeedSequence:
    """``seed`` as a SeedSequence: one as it is, else an integer >= 0."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(_count("seed", seed, 0))


def _split_size(n: int, fraction: float) -> int:
    """|D0| = ceil(fraction * n) of a split of ``n`` samples, which must leave
    both sides non-empty."""
    fraction = _fraction("split_fraction", fraction)
    m = math.ceil(fraction * n)
    if not 1 <= m < n:
        raise InvalidInputError(f"split fraction {fraction} of n={n} gives degenerate m={m}")
    return m


def sample_file_header(dimension: int) -> list[str]:
    """Canonical header: ``x_1..x_d, f, u_1..u_d``."""
    return (
        [f"x_{j + 1}" for j in range(dimension)]
        + ["f"]
        + [f"u_{j + 1}" for j in range(dimension)]
    )


def write_sample_file(path, data: ScoredDataset) -> None:
    """Write ``data`` as a comma-delimited sample file.

    Floats are written with ``repr`` so a read-back is value-identical.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(sample_file_header(data.dimension))
        for i in range(data.n):
            row = (
                [repr(float(v)) for v in data.points[i]]
                + [repr(float(data.f_values[i]))]
                + [repr(float(v)) for v in data.scores[i]]
            )
            writer.writerow(row)


def read_sample_file(path) -> ScoredDataset:
    """Read a sample file written in the format of :func:`write_sample_file`.

    Raises
    ------
    DataFormatError
        On a malformed header, an inconsistent row, or a value that does not
        parse as a finite real.  Messages name the offending line.
    """
    with open(path, newline="") as fh:
        lines = fh.readlines()
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise DataFormatError(f"{path}: file is empty") from None
    header = [h.strip() for h in header]
    d = (len(header) - 1) // 2
    if len(header) < 3 or len(header) % 2 == 0 or header != sample_file_header(d):
        raise DataFormatError(f"{path}: header must be x_1..x_d, f, u_1..u_d, got {header}")
    table = _parse_table(lines[1:], 2 * d + 1) if reader.line_num == 1 else None
    if table is None:
        table = _parse_rows(path, reader, d)
    return ScoredDataset(
        points=np.ascontiguousarray(table[:, :d]),
        scores=np.ascontiguousarray(table[:, d + 1 :]),
        f_values=np.ascontiguousarray(table[:, d]),
    )


# Lines the csv module reads as an empty row, which a sample file may hold.
_EMPTY_LINES = frozenset(("\n", "\r\n", "\r"))


def _parse_table(lines: list[str], width: int):
    """The body ``lines`` of a sample file as a (rows, ``width``) array in
    one ``np.loadtxt`` call, or None when :func:`_parse_rows` has to read
    them.  Where ``loadtxt`` reads a value, ``float`` reads the same bits;
    it refuses the quoted fields, underscores and non-ASCII digits that
    ``csv`` and ``float`` accept, and a whitespace-only line, which
    ``_parse_rows`` reports."""
    body = [line for line in lines if line not in _EMPTY_LINES]
    if not body:
        return None
    try:
        table = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if table.shape != (len(body), width) or not np.all(np.isfinite(table)):
        return None
    return table


def _parse_rows(path, reader, d: int) -> np.ndarray:
    """The rows left in the csv ``reader`` of a sample file, one line at a
    time, as a (rows, 2d + 1) array; raises the DataFormatError that names
    the first bad line."""
    rows = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 2 * d + 1:
            raise DataFormatError(
                f"{path}: line {line_no}: expected {2 * d + 1} fields, got {len(row)}"
            )
        try:
            values = [float(v) for v in row]
        except ValueError as exc:
            raise DataFormatError(f"{path}: line {line_no}: {exc}") from None
        if not all(map(math.isfinite, values)):
            raise DataFormatError(f"{path}: line {line_no}: non-finite value")
        rows.append(values)
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    return np.array(rows)
