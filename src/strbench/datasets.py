"""LibSVM-format ingestion and synthetic binary-classification datasets.

A :class:`Dataset` is one dense, read-only ``(n, d)`` float64 feature matrix
with a label vector in ``{-1, +1}``.  :func:`parse_libsvm` scatters a file's
entries into the matrix once; :func:`to_libsvm` writes each row's nonzeros
back.  File indices are one-based on disk and zero-based in memory.
"""

from __future__ import annotations

import io
import math
import numbers
from dataclasses import dataclass
from typing import Iterable

import numpy as np

# Synthetic rows are resampled until the (unit) hyperplane margin clears this
# floor, so separable instances stay perceptron-learnable in bounded time.
_MARGIN_FLOOR = 0.05

# Code that walks a data matrix (finiteness check, row normalization, Hessians,
# the analytic Lipschitz bound) takes consecutive blocks of max(_BLOCK_ROWS, 16 d)
# rows, so no temporary grows with n.  Measured per Hessian, Gram and signed link,
# one BLAS thread, best of 21-101 interleaved calls, one product over all rows ->
# blocks by this rule: (12000, 50) 3.07 -> 2.84 and 4.85 -> 3.91 ms; (12000, 30)
# 1.47 -> 1.36 and 1.82 -> 1.45; (20000, 100) 13.3 -> 12.0 and 18.5 -> 15.5;
# (200000, 50) 85.2 -> 49.4 and 98.3 -> 51.5; (20000, 200) 31.5 -> 32.5 and 48.8
# -> 48.9; (10000, 400) 44.3 -> 45.6 and 77.6 -> 78.4 (within the sweep's +-3%
# noise at d >= 200).  Each block makes a d x d product and adds it, so a block
# must be long against d: 2048-row blocks at d = 400 were slower, (5000,
# 400) 23.0 -> 24.3 and 40.0 -> 40.6, (3000, 400) 14.0 -> 15.0 and 24.5 -> 25.1,
# (10000, 400) 44.3 -> 47.9 (Gram); with 16 d rows the first two are one block.
# At (12000, 50), 1024 and 4096 rows gave 2.56 and 3.02 ms (Gram); 2048 keeps the
# wide (1000 x 400) and the LibSVM (2000 x 30) benchmark data in one block.
_BLOCK_ROWS = 2048


class LibsvmParseError(ValueError):
    """Malformed LibSVM text (bad token, bad index, bad label)."""


class DimensionError(ValueError):
    """An explicit feature dimension conflicts with observed indices, or the
    dense matrix is too large to allocate."""


@dataclass(frozen=True, eq=False)
class Dataset:
    """Dense labeled sample matrix: ``X`` is a C-contiguous ``(n, d)`` float64
    array of finite values, ``y`` holds ``n`` float64 labels, each exactly -1
    or +1.  Both are stored as read-only views, not copies, of the arrays given.
    """

    X: np.ndarray
    y: np.ndarray
    source: str = ""

    def __post_init__(self):
        X = np.ascontiguousarray(self.X, dtype=float).view()
        y = np.asarray(self.y, dtype=float).view()
        X.flags.writeable = y.flags.writeable = False
        if X.ndim != 2 or y.shape != X.shape[:1]:
            raise ValueError("X must be an (n, d) array and y must hold n labels")
        if not all(np.isfinite(X[b]).all() for b in row_blocks(*X.shape)):
            raise ValueError("non-finite feature value")
        if not (np.abs(y) == 1.0).all():
            raise ValueError("labels must be -1 or +1")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def to_dense(self) -> np.ndarray:
        """The (n, d) feature matrix itself (read-only, no copy)."""
        return self.X

    def label_array(self) -> np.ndarray:
        """The n labels as a read-only float64 array (no copy)."""
        return self.y


def row_blocks(n: int, d: int) -> list[slice]:
    """Consecutive slices that cover the rows of an ``(n, d)`` matrix in order,
    each ``max(_BLOCK_ROWS, 16 d)`` rows long but the last.  An ``n`` up to that
    length gives one slice, the whole matrix."""
    step = max(_BLOCK_ROWS, 16 * d)
    return [slice(i, i + step) for i in range(0, n, step)]


def _iter_lines(source) -> Iterable[str]:
    if isinstance(source, bytes):
        source = source.decode("utf-8", errors="replace")
    if isinstance(source, str):
        return io.StringIO(source)
    return source  # file-like or any iterable of lines


def parse_libsvm(source, d_override: int | None = None, name: str = "") -> Dataset:
    """Parse LibSVM text (``<label> <idx>:<val> ...``) into a :class:`Dataset`.

    Labels are binarized by sign (value > 0 maps to +1, otherwise -1).
    One-based file indices become zero-based.  Blank lines and lines whose
    first non-space character is ``#`` are skipped; LF and CRLF both work.

    Raises :class:`LibsvmParseError` with the offending line number on any
    malformed token, and :class:`DimensionError` if ``d_override`` is not a
    positive integer (a bool is not one) or is smaller than ``1 + max index``,
    or if the dense ``(n, d)`` matrix cannot be allocated.
    """
    integral = isinstance(d_override, numbers.Integral) and not isinstance(d_override, bool)
    if d_override is not None and not (integral and d_override > 0):
        raise DimensionError("d_override must be a positive integer")
    labels: list[float] = []
    counts: list[int] = []  # entries per row
    cols: list[int] = []
    vals: list[float] = []
    d_seen = 0  # largest one-based index
    for lineno, raw in enumerate(_iter_lines(source), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        try:
            lab_val = float(tokens[0])
        except ValueError:
            raise LibsvmParseError(f"line {lineno}: bad label {tokens[0]!r}") from None
        if not math.isfinite(lab_val):
            raise LibsvmParseError(f"line {lineno}: non-finite label")
        labels.append(1.0 if lab_val > 0 else -1.0)
        prev = 0
        for tok in tokens[1:]:
            idx_s, sep, val_s = tok.partition(":")
            if not sep:
                raise LibsvmParseError(f"line {lineno}: bad feature token {tok!r}")
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise LibsvmParseError(f"line {lineno}: bad feature token {tok!r}") from None
            if idx <= 0:
                raise LibsvmParseError(f"line {lineno}: index {idx} must be >= 1")
            if idx <= prev:
                raise LibsvmParseError(f"line {lineno}: indices must be strictly increasing")
            if not math.isfinite(val):
                raise LibsvmParseError(f"line {lineno}: non-finite value in {tok!r}")
            cols.append(idx - 1)
            vals.append(val)
            prev = idx
        counts.append(len(tokens) - 1)
        d_seen = max(d_seen, prev)
    if d_override is None:
        d = d_seen
    else:
        if d_override < d_seen:
            raise DimensionError(f"d_override={d_override} smaller than required {d_seen}")
        d = d_override
    n = len(labels)
    try:
        X = np.zeros((n, d))
    except (ValueError, MemoryError) as exc:
        raise DimensionError(f"cannot allocate a dense {n} x {d} matrix: {exc}") from None
    X[np.repeat(np.arange(n), counts), np.array(cols, dtype=np.intp)] = vals
    return Dataset(X, np.array(labels), source=name or "<stream>")


def load_libsvm(path, d_override: int | None = None) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_libsvm(fh, d_override=d_override, name=str(path))


def to_libsvm(dataset: Dataset) -> str:
    """Serialize to LibSVM text, one ``idx:value`` token per nonzero.

    Round-trips through :func:`parse_libsvm` given ``d_override=dataset.d``
    (without it, trailing all-zero columns are dropped).
    """
    lines = []
    for x, lab in zip(dataset.X, dataset.y):
        nz = np.flatnonzero(x)
        parts = ["+1" if lab > 0 else "-1"]
        parts.extend(f"{j}:{v!r}" for j, v in zip((nz + 1).tolist(), x[nz].tolist()))
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


def _row_dots(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``A[i] @ b[i]`` (or ``A[i] @ b`` for a vector ``b``) for every row, each
    through the same dot kernel as a 1-D ``x @ x``, so bit for bit the same."""
    return (A[:, None, :] @ b[..., :, None]).reshape(-1)


def generate_synthetic(n: int, d: int, seed: int, separable: bool = False) -> Dataset:
    """Deterministic synthetic dataset: unit-norm Gaussian rows, labels from a
    random hyperplane, 10% label flips unless ``separable``.

    Rows with relative margin below ``0.05/sqrt(d)`` are redrawn so that the
    separable variant is strictly separable with a usable margin.

    Stream contract: the generator of ``seed`` gives the unit normal ``w``
    (``d`` draws), then candidate rows of ``d`` draws each, in order, until
    ``n`` are accepted, then ``n`` uniforms for the label flips.  A candidate
    is accepted if its norm is nonzero and its normalized margin ``|w @ x|``
    is at least the floor.  Candidates are drawn in blocks straight into
    ``X``: with ``a`` rows accepted, the next ``n - a`` candidates fill
    ``X[a:]``, never more than the rows still needed take, and the accepted
    ones move up over the rejected ones.  Norms and margins are row dots
    through the kernel of ``x @ x``; a matrix-vector product or ``einsum``
    sums in another order, so its last bit differs, which flips near-margin
    rows and changes every row and label after them.

    Raises :class:`DimensionError` if the ``(n, d)`` matrix cannot be
    allocated.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    try:
        X = np.empty((n, d))
    except (ValueError, MemoryError) as exc:
        raise DimensionError(f"cannot allocate a dense {n} x {d} matrix: {exc}") from None
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(d)
    w /= np.linalg.norm(w)
    margin = _MARGIN_FLOOR / math.sqrt(d)
    a = 0  # rows accepted so far
    while a < n:
        C = X[a:]
        rng.standard_normal(out=C)
        nrm = np.sqrt(_row_dots(C, C))
        ok = nrm > 0.0
        np.divide(C, nrm[:, None], out=C, where=ok[:, None])
        ok &= np.abs(_row_dots(C, w)) >= margin
        rejected = (a + np.flatnonzero(~ok)).tolist()
        # move each run of accepted rows up to row a, the end of those kept so far
        for start, stop in zip([a] + [r + 1 for r in rejected], rejected + [n]):
            if a != start:
                X[a:a + stop - start] = X[start:stop]
            a += stop - start
    y = np.where(X @ w > 0, 1.0, -1.0)
    if not separable:
        flips = rng.random(n) < 0.1
        y = np.where(flips, -y, y)
    return Dataset(X, y, source=f"synthetic(n={n},d={d},seed={seed},separable={separable})")
