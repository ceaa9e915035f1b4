"""numpy kernels of the library's sums, means, Gaussian rows and integrals.

``sum_x_log_ratio`` and ``logsumexp`` follow the branches and limit
conventions of ``scipy.special``'s ``rel_entr``, ``kl_div`` and
``logsumexp``: ``0 log 0 = 0``, ``x > 0 = y`` gives ``+inf``, the extended
term at ``(0, y)`` is ``y``, a NaN argument gives NaN, and ``logsumexp`` of
all ``-inf`` is ``-inf``.  One block kernel computes ``x log(x/y)`` for 8192
entries at a time in reused scratch arrays; ``sum_x_log_ratio`` and
``sum_x_log_ratio_to_midpoint`` sum each block with ``np.sum`` and add the
block sums in order, so they leave no support-sized array, and at or below
one block they give the bits of one ``np.sum`` of all the terms.
``sum_x_log_ratio_to_mean`` gives the mixture JSDs their sums in one such
pass, with one log per atom, of ``x1/x2``, for the power means.  A second
block kernel, ``power_mean``, forms the weighted geometric and power means
(and the arithmetic mean of logs) 8192 entries at a time, taking each
argument's log once and the log-add as ``max(u, v) + log1p(exp(-|u - v|))``
with vector ``exp`` and ``log1p``: the geometric mean keeps the bits of its
per-entry form, and the log-add kinds are within about 2 ulp of
``np.logaddexp``'s, whose scalar loop costs many times more.  Two row
kernels, ``gaussian_rows`` and ``gaussian_log_rows``, draw and evaluate a
d-variate Gaussian on (n, d) arrays a row block at a time, with the bits of
the whole-array matmul forms.  ``gauss_kronrod`` is QUADPACK's globally
adaptive Gauss-Kronrod 10/21 rule, the rule behind ``scipy.integrate.quad``,
with each refinement round evaluated in one call on a 1-D array of nodes.
Importing scipy costs a cold process more time than any of these calls, so
the library does not import it.
"""

from __future__ import annotations

import warnings
from typing import Callable

import numpy as np

# DBL_MIN: a ratio x / y at or below it has lost digits to underflow
_TINY = np.finfo(float).tiny

# Long inputs are taken in blocks of _BLOCK entries, so that the temporaries
# stay in cache and below malloc's mmap threshold: fresh 8 MB temporaries
# cost page faults on every call.
_BLOCK = 8192

# The Gaussian row kernels take (n, d) arrays in blocks of about this many
# entries (128 KB): fresh chunk-sized temporaries (2 MB at 32k draws, d = 8)
# cost a page fault per 4 KB page on every call, and much smaller blocks
# add per-block calls.
_ROW_ENTRIES = 16384


def _scratch(size: int) -> tuple[np.ndarray, ...]:
    """Block-sized work arrays, allocated once per call for all its blocks."""
    size = min(size, _BLOCK)
    return (np.empty(size), np.empty(size), np.empty(size),
            np.empty(size, dtype=bool), np.empty(size, dtype=bool))


def _log_ratio_block(x: np.ndarray, y: np.ndarray,
                     scratch: tuple[np.ndarray, ...]
                     ) -> tuple[np.ndarray, np.ndarray | None]:
    """``log(x/y)`` with scipy's branches for 1-D ``x`` and ``y`` at most one
    block long, written into the scratch; and the mask of atoms where
    ``x > 0`` and ``y > 0``, or None when the block has no other atom.

    scipy's branches: ``log1p((x - y)/y)`` for ``x/y`` in (1/2, 2),
    ``log(x) - log(y)`` where ``x/y`` under- or overflows, ``log(x/y)``
    elsewhere.  Outside the mask the log is not defined and is left as is.
    """
    out, step, pick, near, below = scratch
    k = x.size
    if k < out.size:
        out, step, pick, near, below = (a[:k] for a in scratch)
    np.divide(x, y, out=out)
    # Out-of-domain and far-ratio atoms need masks; a block whose ratios
    # all lie in (DBL_MIN, inf), with y > 0, has none.
    if (np.minimum.reduce(out) > _TINY and np.maximum.reduce(out) < np.inf
            and np.minimum.reduce(y) > 0.0):
        inside = far = None
    else:
        inside = (x > 0.0) & (y > 0.0)
        far = inside & ((out <= _TINY) | (out == np.inf))
    np.greater(out, 0.5, out=near)
    np.less(out, 2.0, out=below)
    near &= below
    np.log(out, out=out)
    np.subtract(x, y, out=step)
    step /= y
    # no near atom is below -1/2 (Sterbenz: x - y is exact there), and
    # the floor keeps log1p finite on the others
    np.maximum(step, -0.5, out=step)
    np.log1p(step, out=step)
    # A branch-free select of log1p where near, log elsewhere: with pick
    # 0.0 or 1.0 each product is the value or a zero, so the sum is the
    # chosen value exactly.  A product is NaN only where log1p is inf,
    # a far or out-of-domain atom, which the fix-up below or the caller
    # overwrites.
    np.copyto(pick, near)
    step *= pick
    np.subtract(1.0, pick, out=pick)
    out *= pick
    out += step
    if far is not None and np.count_nonzero(far):
        out[far] = np.log(x[far]) - np.log(y[far])
    return out, inside


def _x_log_ratio_block(x: np.ndarray, y: np.ndarray, extended: bool,
                       scratch: tuple[np.ndarray, ...]) -> np.ndarray:
    """``x log(x/y)``, plus ``y - x`` when ``extended``, with scipy's limits,
    for 1-D ``x`` and ``y`` at most one block long; written into the scratch.

    The log is :func:`_log_ratio_block`'s; ``0`` (``y`` when extended)
    where ``x == 0 <= y``, NaN where either is NaN, ``+inf`` elsewhere.
    """
    out, inside = _log_ratio_block(x, y, scratch)
    out *= x
    if extended:
        out -= x
        out += y
    if inside is not None and np.count_nonzero(inside) < inside.size:
        edge = np.where((x == 0.0) & (y >= 0.0), y if extended else 0.0,
                        np.where(np.isnan(x) | np.isnan(y), np.nan, np.inf))
        np.copyto(out, edge, where=~inside)
    return out


def _flat_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"arrays of shapes {x.shape} and {y.shape}")
    return x.ravel(), y.ravel()


def _blocks(*arrays: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """Consecutive blocks of up to ``_BLOCK`` entries of equal-length arrays."""
    size = arrays[0].size
    if size <= _BLOCK:
        return [arrays] if size else []
    return [tuple(a[start:start + _BLOCK] for a in arrays)
            for start in range(0, size, _BLOCK)]


def _block_sums(x: np.ndarray, y: np.ndarray,
                pairs: Callable[[np.ndarray, np.ndarray], tuple],
                extended: bool = False) -> list[float]:
    """Sums of ``x log(x/y)`` over the ``(x, y)`` pairs that ``pairs`` makes
    of each block of ``x`` and ``y``, one sum per pair.

    Each block's terms are summed by ``np.sum``; the block sums are added
    in order.  Empty inputs sum to 0.
    """
    scratch = _scratch(x.size)
    totals = None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for a, b in _blocks(x, y):
            sums = [float(np.add.reduce(_x_log_ratio_block(u, v, extended,
                                                           scratch)))
                    for u, v in pairs(a, b)]
            totals = sums if totals is None else [
                total + part for total, part in zip(totals, sums)]
    return totals if totals is not None else [0.0] * len(pairs(x, y))


def sum_x_log_ratio(x, y, extended: bool = False) -> float:
    """The sum of ``x log(x/y)``, plus ``y - x`` when ``extended``, over
    equal-shaped ``x`` and ``y``, without a support-sized array of terms.

    Each block of up to 8192 entries is summed by ``np.sum``, so an input of
    at most one block gives the bits of one ``np.sum`` of its terms; longer
    inputs add the block sums in order.  Shapes that differ raise
    ``ValueError``.
    """
    x, y = _flat_pair(x, y)
    (total,) = _block_sums(x, y, lambda a, b: ((a, b),), extended)
    return total


def sum_x_log_ratio_to_midpoint(x1, x2) -> tuple[float, float]:
    """:func:`sum_x_log_ratio` of ``(x1, mid)`` and ``(x2, mid)``, mid = (x1 + x2)/2.

    The midpoint is formed a block at a time, and each sum is taken as in
    :func:`sum_x_log_ratio`.
    """
    x1, x2 = _flat_pair(x1, x2)
    mid = np.empty(min(x1.size, _BLOCK))

    def to_midpoint(a, b):
        m = mid[:a.size]
        np.add(a, b, out=m)
        m *= 0.5
        return (a, m), (b, m)

    to_mid_1, to_mid_2 = _block_sums(x1, x2, to_midpoint)
    return to_mid_1, to_mid_2


def _power_terms(x1: np.ndarray, x2: np.ndarray, alpha: float, gamma: float,
                 out: tuple[np.ndarray, ...], scratch: tuple[np.ndarray, ...]
                 ) -> np.ndarray | None:
    """:func:`sum_x_log_ratio_to_mean`'s five terms of one block, written
    into ``out``, for the power mean of exponent ``gamma`` (0: geometric),
    from one log-ratio ``r = log(x1/x2)`` per atom by the closed forms in
    README's Conventions; returns the mask of atoms with a zero argument,
    where no term is set, or None."""
    t1, t2, m, both, diff = out
    r, inside = _log_ratio_block(x1, x2, scratch)
    work, weight, ref = (s[:r.size] for s in scratch[1:4])
    if gamma == 0.0:
        np.multiply(r, 1.0 - alpha, out=t1)
        np.multiply(r, -alpha, out=t2)
    else:
        # u = log(x_ref/m), x_ref the larger argument for gamma > 0 and the
        # smaller for gamma < 0, and the other weight 1 - alpha where x1 is
        # x_ref; selects by arithmetic, as masked copies are many times
        # slower on random masks
        (np.greater_equal if gamma > 0.0 else np.less_equal)(r, 0.0, out=ref)
        np.copyto(weight, ref)
        weight *= (1.0 - alpha) - alpha
        weight += alpha
        np.absolute(r, out=work)
        work *= -abs(gamma)
        np.expm1(work, out=work)
        work *= weight
        np.log1p(work, out=work)
        work *= -1.0 / gamma
        # log(x1/m) is u, or u + r where x2 is x_ref; log(x2/m) is u, or u - r
        low, high = (np.minimum, np.maximum) if gamma > 0.0 else (np.maximum, np.minimum)
        low(r, 0.0, out=t1)
        t1 += work
        high(r, 0.0, out=t2)
        np.subtract(work, t2, out=t2)
    # with u >= 0 the larger argument's log, m = max(x1, x2) exp(-u) and its
    # gap m - max(x1, x2) = max(x1, x2) expm1(-u); the smaller one's gap is
    # that plus |x1 - x2|
    np.maximum(t1, t2, out=work)
    np.negative(work, out=work)
    np.exp(work, out=m)
    np.expm1(work, out=both)
    np.maximum(x1, x2, out=weight)
    # exp(-u) below DBL_MIN has lost digits that m may keep (arguments some
    # 308 decades apart): there m is exp(log max(x1, x2) - u)
    deep = m < _TINY if np.fmin.reduce(m) < _TINY else None
    m *= weight
    if deep is not None:
        m[deep] = np.exp(np.log(weight[deep]) + work[deep])
    both *= weight
    np.subtract(x1, x2, out=diff)
    np.absolute(diff, out=work)
    work += both
    both += work
    t1 *= x1
    t2 *= x2
    if inside is None or np.count_nonzero(inside) == inside.size:
        return None
    return ~inside


def sum_x_log_ratio_to_mean(x1, x2, mean: Callable[[np.ndarray, np.ndarray], np.ndarray],
                            alpha: float, gamma: float | None
                            ) -> tuple[float, float, float, float, float]:
    """The sums of ``x1 log(x1/m)``, ``x2 log(x2/m)``, ``m``,
    ``(m - x1) + (m - x2)`` and ``x1 - x2`` over equal-shaped ``x1`` and
    ``x2``, for ``m = mean(x1, x2)``, a block at a time; the block sums are
    added in order.  A power mean (``gamma`` its exponent, ``alpha`` the
    weight of ``x1``) goes through :func:`_power_terms`; atoms with a zero
    argument, and every atom when ``gamma`` is None, call ``mean`` and take
    :func:`sum_x_log_ratio`'s logs and limits.
    """
    x1, x2 = _flat_pair(x1, x2)
    scratch = _scratch(x1.size)
    work = tuple(np.empty(min(x1.size, _BLOCK)) for _ in range(5))
    totals = (0.0,) * 5
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for a, b in _blocks(x1, x2):
            out = tuple(w[:a.size] for w in work)
            edge = (slice(None) if gamma is None
                    else _power_terms(a, b, alpha, gamma, out, scratch))
            if edge is not None:
                t1, t2, m, both, diff = out
                ea, eb = a[edge], b[edge]
                m[edge] = mixed = mean(ea, eb)
                t1[edge] = _x_log_ratio_block(ea, mixed, False, scratch)
                t2[edge] = _x_log_ratio_block(eb, mixed, False, scratch)
                both[edge] = (mixed - ea) + (mixed - eb)
                diff[edge] = ea - eb
            totals = tuple(total + float(np.add.reduce(part))
                           for total, part in zip(totals, out))
    return totals


def power_mean(a, b, alpha: float, gamma: float, log_space: bool) -> np.ndarray:
    """The weighted power mean ``(alpha a^gamma + (1-alpha) b^gamma)^(1/gamma)``
    of equal-shaped ``a`` and ``b``, as a new 1-D array; ``gamma = 0`` is the
    geometric mean ``a^alpha b^(1-alpha)``.

    With ``log_space`` the arguments and the result are logarithms, and
    ``gamma = 1`` gives the log of the arithmetic mean; otherwise each
    argument's log is taken once and the result exponentiated.  In log
    space the mean is ``alpha la + (1-alpha) lb`` (geometric), or the log-add
    ``max(u, v) + log1p(exp(-|u - v|))`` of ``u = log(alpha) + gamma la`` and
    ``v = log1p(-alpha) + gamma lb``, divided by ``gamma``.

    A zero argument (log ``-inf``) takes the continuous limit: it drops out
    of a ``gamma > 0`` sum and sends the geometric and ``gamma < 0`` means to
    zero, also where the other argument is ``+inf`` or NaN, where the
    expression alone gives NaN.  Equal arguments give their common value
    exactly.  The work is done 8192 entries at a time in reused scratch, so
    the result is the one support-sized array.
    """
    a, b = _flat_pair(a, b)
    out = np.empty(a.size)
    size = min(a.size, _BLOCK)
    scratch = np.empty(size), np.empty(size), np.empty(size, dtype=bool)
    log_alpha, log_beta = np.log(alpha), np.log1p(-alpha)
    # the argument whose log is -inf: the zero limit is read from the
    # arguments, with no second log
    zero = -np.inf if log_space else 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for x, y, o in _blocks(a, b, out):
            t, top, same = scratch
            if x.size < t.size:
                t, top, same = (s[:x.size] for s in scratch)
            # each log is taken once, into the array that it is scaled in
            la = x if log_space else np.log(x, out=t)
            lb = y if log_space else np.log(y, out=o)
            if gamma == 0.0:
                np.multiply(la, alpha, out=t)
                np.multiply(lb, 1.0 - alpha, out=o)
                o += t
            else:
                np.multiply(la, gamma, out=t)
                t += log_alpha
                np.multiply(lb, gamma, out=o)
                o += log_beta
                np.maximum(t, o, out=top)
                np.minimum(t, o, out=t)
                t -= top
                np.exp(t, out=t)
                np.log1p(t, out=t)
                # equal infinities leave NaN here, and the log-add is top
                np.fmax(t, 0.0, out=t)
                np.add(top, t, out=o)
                o /= gamma
            if gamma <= 0.0 and np.isnan(o, out=same).any():
                same &= (x == zero) | (y == zero)
                o[same] = -np.inf
            if not log_space:
                np.exp(o, out=o)
            # idempotence is definitional: M(a, a) = a without rounding drift
            np.copyto(o, x, where=np.equal(x, y, out=same))
    return out


def _row_blocks(n: int, d: int) -> tuple[list[slice], int]:
    """Row slices of an (n, d) array, ``_ROW_ENTRIES // d`` rows each but
    the last, which takes the remainder too; and the largest block's rows.

    No block has fewer rows than a full one unless it is the only one: a
    one-row or few-row block goes through another BLAS path (``gemv``, or a
    small-matrix kernel) than the whole array's ``gemm``, and rounds
    otherwise.
    """
    rows = max(1, _ROW_ENTRIES // d)
    bounds = [rows * i for i in range(max(1, n // rows))] + [n]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])], n - bounds[-2]


def gaussian_rows(rng: np.random.Generator, n: int, chol: np.ndarray,
                  mu: np.ndarray) -> np.ndarray:
    """``n`` draws of ``N(mu, L L')`` as an (n, d) array, ``L`` lower triangular.

    The bits of ``rng.standard_normal((n, d)) @ L.T + mu``, and the same
    stream: each row block is drawn into one block of scratch, mapped by
    ``L'`` into the result and shifted by ``mu`` there, so the result is
    the one (n, d) array.
    """
    d = mu.size
    out = np.empty((n, d))
    blocks, size = _row_blocks(n, d)
    z = np.empty((size, d))
    chol_t = chol.T
    for rows in blocks:
        block = out[rows]
        w = z[:len(block)]
        rng.standard_normal(out=w)
        np.matmul(w, chol_t, out=block)
        block += mu
    return out


def gaussian_log_rows(x, mu: np.ndarray, inv_chol_t: np.ndarray,
                      log_norm: float) -> np.ndarray:
    """``log_norm - 0.5 |(x - mu) L^-T|^2`` for each row of ``x`` (a 1-D
    ``x`` is one point), from ``L^-T`` and the log normalizer.

    The bits of the whole-array form, ``z = (x - mu) @ L^-T`` and then
    ``log_norm - 0.5 * einsum("ij,ij->i", z, z)``, one row block at a time
    in two blocks of scratch, so the result is the one length-n array.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n, d = len(x), mu.size
    out = np.empty(n)
    blocks, size = _row_blocks(n, d)
    diff, z = np.empty((size, d)), np.empty((size, d))
    for rows in blocks:
        k = rows.stop - rows.start
        np.subtract(x[rows], mu, out=diff[:k])
        np.matmul(diff[:k], inv_chol_t, out=z[:k])
        np.einsum("ij,ij->i", z[:k], z[:k], out=out[rows])
    # log_norm + (-0.5 q) has the bits of log_norm - 0.5 q
    out *= -0.5
    out += log_norm
    return out


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


# QUADPACK's QK21 rule (dqk21.f): the 21-point Kronrod extension of the
# 10-point Gauss rule.  Nodes on [0, 1] in decreasing order, the Kronrod
# weights of each, and the Gauss weights of the odd-indexed nodes.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208272359290, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])

# the 21 nodes on [-1, 1], left to right, with their two weight vectors
_GK_NODES = np.concatenate((-_XGK, _XGK[-2::-1]))
_GK_KRONROD = np.concatenate((_WGK, _WGK[-2::-1]))
_GAUSS_HALF = np.zeros(11)
_GAUSS_HALF[1::2] = _WG
_GK_GAUSS = np.concatenate((_GAUSS_HALF, _GAUSS_HALF[-2::-1]))

_EPS = np.finfo(float).eps
# scipy.integrate.quad's defaults: epsabs = epsrel, and at most 300
# subintervals; the first partition has 64
_GK_EPS = 1.49e-8
_GK_LIMIT = 300
_GK_START = 64


def _qk21(f: Callable[[np.ndarray], np.ndarray], a: np.ndarray,
          b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QK21 integral and error estimate of ``f`` on each ``[a[i], b[i]]``.

    ``f`` is called once, on the 1-D array of all ``21 * a.size`` nodes.  The
    error estimate is QUADPACK's: ``resasc * min(1, (200 |K - G| / resasc)^1.5)``
    with ``resasc`` the Kronrod integral of ``|f - mean f|``, floored at
    ``50 eps`` times the integral of ``|f|``.
    """
    half = 0.5 * (b - a)
    nodes = 0.5 * (a + b)[:, None] + half[:, None] * _GK_NODES
    fx = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    kronrod = fx @ _GK_KRONROD
    width = np.abs(half)
    resabs = np.abs(fx) @ _GK_KRONROD * width
    resasc = np.abs(fx - 0.5 * kronrod[:, None]) @ _GK_KRONROD * width
    err = np.abs(kronrod - fx @ _GK_GAUSS) * width
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    err = np.where(resabs > _TINY / (50.0 * _EPS),
                   np.maximum(50.0 * _EPS * resabs, err), err)
    return kronrod * half, err


def gauss_kronrod(f: Callable[[np.ndarray], np.ndarray], lo: float,
                  hi: float) -> tuple[float, float]:
    """``integral of f over [lo, hi]`` and its error estimate, for finite bounds.

    QUADPACK's globally adaptive QK21 scheme with ``scipy.integrate.quad``'s
    defaults: stop once the summed error estimate is at most
    ``max(epsabs, epsrel |integral|)`` with both 1.49e-8, or at 300
    subintervals, with a ``RuntimeWarning`` in that case.  There is no
    extrapolation (QAGS's epsilon algorithm), so an integrable singularity
    converges slowly; the library's integrands are smooth.  It starts from
    64 equal subintervals, so a peak much narrower than ``hi - lo`` is seen
    from the first round.  Each round bisects the fewest largest-error
    subintervals whose errors, were they gone, would leave at most half the
    tolerance, and evaluates ``f`` once on a 1-D array of all their nodes.
    """
    edges = np.linspace(lo, hi, _GK_START + 1)
    a, b = edges[:-1], edges[1:]
    area, err = _qk21(f, a, b)
    while True:
        total, total_err = float(area.sum()), float(err.sum())
        tol = _GK_EPS * max(1.0, abs(total))
        if total_err <= tol:
            return total, total_err
        mid = 0.5 * (a + b)
        # an interval too short to halve in floating point is left as it is
        rank = np.where((a < mid) & (mid < b), err, 0.0)
        order = np.argsort(rank)[::-1]
        left = total_err - np.cumsum(rank[order])
        count = min(np.count_nonzero(left > 0.5 * tol) + 1,
                    np.count_nonzero(rank > 0.0), _GK_LIMIT - a.size)
        if count <= 0:
            warnings.warn(
                f"quadrature stopped at {a.size} subintervals with error "
                f"estimate {total_err:.3g} above the tolerance {tol:.3g}",
                RuntimeWarning, stacklevel=2)
            return total, total_err
        split, kept = order[:count], order[count:]
        new_a = np.concatenate((a[split], mid[split]))
        new_b = np.concatenate((mid[split], b[split]))
        new_area, new_err = _qk21(f, new_a, new_b)
        a = np.concatenate((a[kept], new_a))
        b = np.concatenate((b[kept], new_b))
        area = np.concatenate((area[kept], new_area))
        err = np.concatenate((err[kept], new_err))
