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
        if not np.isfinite(X).all():
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


def generate_synthetic(n: int, d: int, seed: int, separable: bool = False) -> Dataset:
    """Deterministic synthetic dataset: unit-norm Gaussian rows, labels from a
    random hyperplane, 10% label flips unless ``separable``.

    Rows with relative margin below ``0.05/sqrt(d)`` are redrawn so that the
    separable variant is strictly separable with a usable margin.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(d)
    w /= np.linalg.norm(w)
    margin = _MARGIN_FLOOR / math.sqrt(d)
    X = np.empty((n, d))
    for i in range(n):
        while True:
            x = rng.standard_normal(d)
            nrm = np.linalg.norm(x)
            if nrm == 0.0:
                continue
            x /= nrm
            if abs(float(w @ x)) >= margin:
                break
        X[i] = x
    y = np.where(X @ w > 0, 1.0, -1.0)
    if not separable:
        flips = rng.random(n) < 0.1
        y = np.where(flips, -y, y)
    return Dataset(X, y, source=f"synthetic(n={n},d={d},seed={seed},separable={separable})")
