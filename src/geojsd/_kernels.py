"""numpy forms of the few scipy routines the library's sums and solves need.

``rel_entr``, ``kl_div`` and ``logsumexp`` follow the branches and limit
conventions of their ``scipy.special`` namesakes: ``0 log 0 = 0``,
``x > 0 = y`` gives ``+inf``, ``kl_div(0, y) = y``, a NaN argument gives
NaN, and ``logsumexp`` of all ``-inf`` is ``-inf``.  The two solves take
the lower Cholesky factor ``L`` that :mod:`geojsd.gaussian` keeps.
Importing scipy costs a cold process more time than any of these calls;
only the quadrature route imports it.
"""

from __future__ import annotations

import numpy as np

# DBL_MIN: a ratio x / y at or below it has lost digits to underflow
_TINY = np.finfo(float).tiny

# Long inputs are taken in blocks of _BLOCK entries, so that the temporaries
# stay in cache and below malloc's mmap threshold: fresh 8 MB temporaries
# cost page faults on every call.
_BLOCK = 8192


def _x_log_ratio_block(x: np.ndarray, y: np.ndarray, extended: bool,
                       out: np.ndarray) -> None:
    """:func:`_x_log_ratio` of 1-D ``x`` and ``y``, written into ``out``."""
    np.divide(x, y, out=out)
    near = (out > 0.5) & (out < 2.0)
    inside = (x > 0.0) & (y > 0.0)
    far = inside & ((out <= _TINY) | (out == np.inf))
    np.log(out, out=out)
    step = x - y
    step /= y
    np.copyto(out, np.log1p(step, out=step), where=near)
    if np.count_nonzero(far):
        out[far] = np.log(x[far]) - np.log(y[far])
    out *= x
    if extended:
        out -= x
        out += y
    if np.count_nonzero(inside) < inside.size:
        edge = np.where((x == 0.0) & (y >= 0.0), y if extended else 0.0,
                        np.where(np.isnan(x) | np.isnan(y), np.nan, np.inf))
        np.copyto(out, edge, where=~inside)


def _x_log_ratio(x, y, extended: bool) -> np.ndarray:
    """``x log(x/y)``, plus ``y - x`` when ``extended``, with scipy's limits.

    scipy's branches: ``log1p((x - y)/y)`` for ``x/y`` in (1/2, 2),
    ``log(x) - log(y)`` where ``x/y`` under- or overflows, ``log(x/y)``
    elsewhere; ``0`` (``y`` when extended) where ``x == 0 <= y``, NaN where
    either is NaN, ``+inf`` elsewhere.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        x, y = np.broadcast_arrays(x, y)
    shape = x.shape
    x, y = x.ravel(), y.ravel()
    out = np.empty(x.size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for start in range(0, x.size, _BLOCK):
            block = slice(start, start + _BLOCK)
            _x_log_ratio_block(x[block], y[block], extended, out[block])
    return out.reshape(shape)


def rel_entr(x, y) -> np.ndarray:
    """Elementwise ``x log(x/y)``: 0 where ``x == 0 <= y``, +inf where ``x > 0 = y``."""
    return _x_log_ratio(x, y, extended=False)


def kl_div(x, y) -> np.ndarray:
    """Elementwise extended KL ``x log(x / y) - x + y``; ``y`` where ``x == 0 <= y``.

    The log term is :func:`rel_entr`'s, so a ratio that under- or overflows
    still gives the finite value (scipy returns -inf for ``(1e-300, 1e300)``).
    """
    return _x_log_ratio(x, y, extended=True)


def logsumexp(a, axis: int | None = None):
    """``log(sum(exp(a)))`` along ``axis`` (all axes by default).

    The maxima are taken out of the sum, as scipy does:
    ``log1p(s / m) + log(m) + max`` with ``m`` the number of maxima and ``s``
    the sum of the other terms shifted by the max.  All ``-inf`` gives
    ``-inf``; any ``+inf`` gives ``+inf``.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    top = a.max(axis=axis, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = np.exp(a - top)
        maxima = a == top
        terms[maxima] = 0.0
        count = np.count_nonzero(maxima, axis=axis, keepdims=True)
        rest = terms.sum(axis=axis, keepdims=True) / count
        out = np.log1p(rest) + np.log(count) + top
        finite = np.isfinite(out)
        if not finite.all():
            # an infinite max: the direct form follows the IEEE rules
            out = np.where(finite, out,
                           np.log(np.exp(a).sum(axis=axis, keepdims=True)))
    return np.squeeze(out, axis=axis)[()]


def solve_lower(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``L^-1 b`` for the lower Cholesky factor ``L``."""
    return np.linalg.solve(chol, b)


def cho_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(L L')^-1 b`` from the lower Cholesky factor ``L``."""
    return np.linalg.solve(chol.T, solve_lower(chol, b))
