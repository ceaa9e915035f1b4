"""Independent oracles backing the frozen expected values in the tests.

Everything here is deliberately written against mpmath scalars (50 decimal
digits), not against the library's numpy code paths, so agreement between
the two is meaningful.  Frozen constants in the tests were produced by these
functions and are re-derivable by calling them.  The one numpy exception is
:func:`per_entry_power_mean`, the whole-array form of the weighted power
means that ``geojsd._kernels.power_mean`` replaced, kept as the reference
for that kernel's bits.
"""

import math

import mpmath as mp
import numpy as np

mp.mp.dps = 50


def _to_mp(weights):
    return [mp.mpf(repr(float(w))) for w in weights]


def kl_oracle(p, q):
    p, q = _to_mp(p), _to_mp(q)
    total = mp.mpf(0)
    for a, b in zip(p, q):
        if a > 0 and b == 0:
            return mp.inf
        if a > 0:
            total += a * mp.log(a / b)
    return float(total)


def kl_extended_oracle(p, q):
    p, q = _to_mp(p), _to_mp(q)
    total = mp.mpf(0)
    for a, b in zip(p, q):
        if a > 0 and b == 0:
            return mp.inf
        if a > 0:
            total += a * mp.log(a / b)
        total += b - a
    return float(total)


def js_oracle(p, q):
    p, q = _to_mp(p), _to_mp(q)
    m = [(a + b) / 2 for a, b in zip(p, q)]
    return float((kl_oracle(p, m) + kl_oracle(q, m)) / 2)


def geometric_z_oracle(p, q):
    p, q = _to_mp(p), _to_mp(q)
    return float(mp.fsum(mp.sqrt(a * b) for a, b in zip(p, q)))


def bhattacharyya_oracle(p, q, alpha=0.5):
    p, q = _to_mp(p), _to_mp(q)
    alpha = mp.mpf(repr(float(alpha)))
    coeff = mp.fsum(a ** alpha * b ** (1 - alpha) for a, b in zip(p, q))
    return float(-mp.log(coeff)) if coeff > 0 else float(mp.inf)


def chernoff_oracle(p, q):
    """Chernoff information and its maximizer: the root of the equalizer.

    The skew Bhattacharyya distance over the shared support has slope
    E_mix[log(q/p)] in alpha; its root in (0, 1) is found by the Illinois
    method.  Both end slopes must have opposite signs (an interior maximum).
    """
    pairs = [(a, b) for a, b in zip(_to_mp(p), _to_mp(q)) if a > 0 and b > 0]

    def weights(alpha):
        return [a ** alpha * b ** (1 - alpha) for a, b in pairs]

    def slope(alpha):
        w = weights(alpha)
        return mp.fsum(wi * mp.log(b / a) for wi, (a, b) in zip(w, pairs)) / mp.fsum(w)

    alpha = mp.findroot(slope, (mp.mpf(0), mp.mpf(1)), solver="illinois")
    return float(-mp.log(mp.fsum(weights(alpha)))), float(alpha)


def js_geometric_oracle(p, q):
    """Normalized geometric JSD by direct summation (not the J/4 - B identity)."""
    p, q = _to_mp(p), _to_mp(q)
    z = mp.fsum(mp.sqrt(a * b) for a, b in zip(p, q))
    m = [mp.sqrt(a * b) / z for a, b in zip(p, q)]
    return float((kl_oracle(p, m) + kl_oracle(q, m)) / 2)


def js_geometric_extended_oracle(p, q):
    """Extended geometric JSD by direct summation of its defining integrand."""
    p, q = _to_mp(p), _to_mp(q)
    total = mp.mpf(0)
    for a, b in zip(p, q):
        g = mp.sqrt(a * b)
        for x in (a, b):
            if x > 0:
                total += x * mp.log(x / g)
            total += g - x
    return float(total / 2)


def taneja_oracle(p, q):
    p, q = _to_mp(p), _to_mp(q)
    total = mp.mpf(0)
    for a, b in zip(p, q):
        if a + b == 0:
            continue
        g = mp.sqrt(a * b)
        if g == 0:
            return mp.inf
        total += (a + b) / 2 * mp.log((a + b) / (2 * g))
    return float(total)


def kl_between_mixtures_oracle(p, q):
    """KL between the arithmetic and normalized geometric mixtures."""
    p, q = _to_mp(p), _to_mp(q)
    z_g = mp.fsum(mp.sqrt(a * b) for a, b in zip(p, q))
    arith = [(a + b) / 2 for a, b in zip(p, q)]
    geo = [mp.sqrt(a * b) / z_g for a, b in zip(p, q)]
    return kl_oracle(arith, geo)


def total_variation_oracle(p, q):
    p, q = _to_mp(p), _to_mp(q)
    return float(mp.fsum(abs(a - b) for a, b in zip(p, q)) / 2)


# ---------------------------------------------------------------------------
# Gaussian oracles via mpmath quadrature (fixed pairs only; slow but exact)
# ---------------------------------------------------------------------------

def _gauss_pdf(mu, sigma):
    mu, sigma = mp.mpf(repr(float(mu))), mp.mpf(repr(float(sigma)))

    def pdf(x):
        return mp.e ** (-(x - mu) ** 2 / (2 * sigma ** 2)) / (sigma * mp.sqrt(2 * mp.pi))

    return pdf


def _gauss_interval(m1, s1, m2, s2):
    lo = min(m1, m2) - 14 * max(s1, s2)
    hi = max(m1, m2) + 14 * max(s1, s2)
    return [lo, hi]


def gaussian_kl_quad(m1, s1, m2, s2):
    p1, p2 = _gauss_pdf(m1, s1), _gauss_pdf(m2, s2)
    return float(mp.quad(lambda x: p1(x) * mp.log(p1(x) / p2(x)),
                         _gauss_interval(m1, s1, m2, s2)))


def gaussian_bhattacharyya_quad(m1, s1, m2, s2, alpha=0.5):
    p1, p2 = _gauss_pdf(m1, s1), _gauss_pdf(m2, s2)
    alpha = mp.mpf(repr(float(alpha)))
    coeff = mp.quad(lambda x: p1(x) ** alpha * p2(x) ** (1 - alpha),
                    _gauss_interval(m1, s1, m2, s2))
    return float(-mp.log(coeff))


def gaussian_gjsd_quad(m1, s1, m2, s2):
    p1, p2 = _gauss_pdf(m1, s1), _gauss_pdf(m2, s2)
    interval = _gauss_interval(m1, s1, m2, s2)
    z = mp.quad(lambda x: mp.sqrt(p1(x) * p2(x)), interval)

    def integrand(x):
        mix = mp.sqrt(p1(x) * p2(x)) / z
        return (p1(x) * mp.log(p1(x) / mix) + p2(x) * mp.log(p2(x) / mix)) / 2

    return float(mp.quad(integrand, interval))


def gaussian_gjsd_extended_quad(m1, s1, m2, s2):
    p1, p2 = _gauss_pdf(m1, s1), _gauss_pdf(m2, s2)
    interval = _gauss_interval(m1, s1, m2, s2)

    def integrand(x):
        g = mp.sqrt(p1(x) * p2(x))
        return (p1(x) * mp.log(p1(x) / g) + p2(x) * mp.log(p2(x) / g)
                + 2 * g - p1(x) - p2(x)) / 2

    return float(mp.quad(integrand, interval))


def gaussian_js_m_extended_quad(m1, s1, m2, s2, power, alpha=0.5):
    """Extended M-JSD of N(m1, s1^2) and N(m2, s2^2) for the weighted power
    mean ``M = (alpha p1^power + (1-alpha) p2^power)^(1/power)``."""
    p1, p2 = _gauss_pdf(m1, s1), _gauss_pdf(m2, s2)
    power, alpha = mp.mpf(repr(float(power))), mp.mpf(repr(float(alpha)))

    def integrand(x):
        a, b = p1(x), p2(x)
        m = (alpha * a ** power + (1 - alpha) * b ** power) ** (1 / power)
        return (a * mp.log(a / m) + b * mp.log(b / m)) / 2 + m - (a + b) / 2

    return float(mp.quad(integrand, _gauss_interval(m1, s1, m2, s2)))


def gaussian_tv_quad(m1, s1, m2, s2):
    p1, p2 = _gauss_pdf(m1, s1), _gauss_pdf(m2, s2)
    lo, hi = _gauss_interval(m1, s1, m2, s2)

    # locate density crossovers by sign scan + bisection (no closed form used)
    def diff(x):
        return p1(x) - p2(x)

    step = (hi - lo) / 4000
    points = [lo]
    last_sign, last_x = 0, lo
    for i in range(4001):
        x = lo + i * step
        sign = mp.sign(diff(x))
        if sign == 0:
            points.append(x)  # the grid point is itself a crossover
        elif last_sign != 0 and sign != last_sign:
            a, b = last_x, x
            for _ in range(200):
                mid = (a + b) / 2
                if mp.sign(diff(mid)) == mp.sign(diff(a)):
                    a = mid
                else:
                    b = mid
            points.append((a + b) / 2)
        last_sign, last_x = sign, x
    points.append(hi)
    return float(mp.quad(lambda x: abs(diff(x)), sorted(points)) / 2)


def gaussian_tv_mp(m1, s1, m2, s2):
    """TV of N(m1, s1^2), N(m2, s2^2) at 50 digits, the float inputs read exactly.

    Standardized by N1 (not by the wider density), the crossovers are the
    roots of ``(r^2 - 1) z^2 + 2 d z - d^2 - r^2 log r^2 = 0`` with
    ``d = (m2 - m1) / s1`` and ``r = s2 / s1``, solved at 50 digits; TV is half
    the sum over the pieces between them of |P1(piece) - P2(piece)|.
    """
    m1, s1, m2, s2 = (mp.mpf(float(x)) for x in (m1, s1, m2, s2))
    d, r = (m2 - m1) / s1, s2 / s1
    if r == 1:
        if d == 0:
            return 0.0
        roots = [d / 2]
    else:
        a, b, c = r * r - 1, 2 * d, -d * d - r * r * mp.log(r * r)
        root = mp.sqrt(b * b - 4 * a * c)
        roots = sorted([(-b - root) / (2 * a), (-b + root) / (2 * a)])
    points = [-mp.inf] + roots + [mp.inf]
    total = mp.mpf(0)
    for lo, hi in zip(points, points[1:]):
        p1 = mp.ncdf(hi) - mp.ncdf(lo)
        p2 = mp.ncdf((hi - d) / r) - mp.ncdf((lo - d) / r)
        total += abs(p1 - p2)
    return float(total / 2)


# ---------------------------------------------------------------------------
# Univariate Gaussian closed forms in moment parameters, at 50 digits
# ---------------------------------------------------------------------------

def _gauss_kl_moments(m1, v1, m2, v2):
    return (v1 / v2 + (m2 - m1) ** 2 / v2 - 1 + mp.log(v2) - mp.log(v1)) / 2


def gaussian_closed_forms_oracle(m1, v1, m2, v2, alpha=0.5, beta=0.5):
    """KL, Jeffreys, B_alpha, skew G-JSD and extended G-JSD of N(m1, v1), N(m2, v2).

    The geometric mixture p1^alpha p2^(1-alpha) / Z is the Gaussian with
    harmonic-barycenter variance; B_alpha = -log Z; the extended G-JSD is
    J/4 + exp(-B_1/2) - 1.
    """
    m1, v1, m2, v2 = (mp.mpf(repr(float(x))) for x in (m1, v1, m2, v2))
    alpha, beta = mp.mpf(repr(float(alpha))), mp.mpf(repr(float(beta)))
    va = 1 / (alpha / v1 + (1 - alpha) / v2)
    ma = va * (alpha * m1 / v1 + (1 - alpha) * m2 / v2)
    avg = alpha * v2 + (1 - alpha) * v1
    b = (alpha * (1 - alpha) * (m2 - m1) ** 2 / avg + mp.log(avg)
         - alpha * mp.log(v2) - (1 - alpha) * mp.log(v1)) / 2
    b_half = ((m2 - m1) ** 2 / (4 * (v1 + v2) / 2) + mp.log((v1 + v2) / 2)
              - (mp.log(v1) + mp.log(v2)) / 2) / 2
    jeffreys = _gauss_kl_moments(m1, v1, m2, v2) + _gauss_kl_moments(m2, v2, m1, v1)
    return {
        "kl": float(_gauss_kl_moments(m1, v1, m2, v2)),
        "jeffreys": float(jeffreys),
        "bhattacharyya": float(b),
        "gjsd": float(beta * _gauss_kl_moments(m1, v1, ma, va)
                      + (1 - beta) * _gauss_kl_moments(m2, v2, ma, va)),
        "gjsd_extended": float(jeffreys / 4 + mp.exp(-b_half) - 1),
    }


def power_mixture_log_moments_oracle(m1, v1, m2, v2, power, gamma, support,
                                     pieces=16):
    """``log I(f, h) = log integral of f h^gamma`` over ``support``, in mpmath.

    ``f`` and ``h`` range over N(m1, v1), N(m2, v2) and their unnormalised
    balanced power mean ``m = ((p1^power + p2^power) / 2)^(1/power)``; the
    keys are ``"11", "22", "1m", "2m", "mm"``.  ``I(p, p)`` is the Gaussian
    closed form ``(2 pi v)^(-gamma/2) / sqrt(1 + gamma)`` (the support must
    hold all but a negligible tail); the others are by tanh-sinh
    quadrature, with the support cut into ``pieces`` equal parts and at the
    means so that narrow peaks are seen.  25 digits suffice at this cut.
    """
    with mp.workdps(25):
        power = mp.mpf(repr(float(power)))
        gamma = mp.mpf(repr(float(gamma)))

        def log_gauss(m, v):
            m, v = mp.mpf(repr(float(m))), mp.mpf(repr(float(v)))
            return lambda x: -(x - m) ** 2 / (2 * v) - mp.log(2 * mp.pi * v) / 2

        def log_self_moment(v):
            v = mp.mpf(repr(float(v)))
            return float(-gamma * mp.log(2 * mp.pi * v) / 2 - mp.log(1 + gamma) / 2)

        l1, l2 = log_gauss(m1, v1), log_gauss(m2, v2)

        def lmix(x):
            return mp.log((mp.exp(power * l1(x)) + mp.exp(power * l2(x))) / 2) / power

        lo, hi = (float(s) for s in support)
        cuts = {lo + (hi - lo) * k / pieces for k in range(pieces + 1)}
        cuts |= {float(m) for m in (m1, m2) if lo < m < hi}
        points = [mp.mpf(repr(c)) for c in sorted(cuts)]

        def log_moment(f, h):
            return float(mp.log(mp.quad(lambda x: mp.exp(f(x) + gamma * h(x)),
                                        points)))

        return {"11": log_self_moment(v1), "22": log_self_moment(v2),
                "1m": log_moment(l1, lmix), "2m": log_moment(l2, lmix),
                "mm": log_moment(lmix, lmix)}


def _gauss_log_moment(mf, vf, mh, vh, gamma):
    """``log I(f, h) = log integral of f h^gamma`` for f = N(mf, vf), h = N(mh, vh).

    ``h^gamma`` is ``(2 pi vh)^(-gamma/2) sqrt(2 pi vh / gamma)`` times the
    density of N(mh, vh / gamma), and the integral of a product of two
    Gaussian densities is a Gaussian density in the difference of means.
    """
    return (-gamma * mp.log(2 * mp.pi * vh) / 2 - mp.log(1 + gamma * vf / vh) / 2
            - gamma * (mf - mh) ** 2 / (2 * (vh + gamma * vf)))


def gaussian_gamma_oracle(m1, v1, m2, v2, gamma, alpha=0.5):
    """Projective gamma-divergence of N(m1, v1), N(m2, v2) and their geometric JSD.

    ``D_gamma(f, h) = log I(f,f)/(g(1+g)) - log I(f,h)/g + log I(h,h)/(1+g)``
    from the log moment integrals of normalized Gaussians; ``"js_m_gamma"``
    is the mean of ``D_gamma`` from each argument to the geometric mixture
    ``p1^alpha p2^(1-alpha)``, normalized (projectivity makes its scale
    irrelevant) to the Gaussian with the harmonic-barycenter variance.
    """
    m1, v1, m2, v2 = (mp.mpf(repr(float(x))) for x in (m1, v1, m2, v2))
    gamma, alpha = mp.mpf(repr(float(gamma))), mp.mpf(repr(float(alpha)))

    def divergence(mf, vf, mh, vh):
        return (_gauss_log_moment(mf, vf, mf, vf, gamma) / (gamma * (1 + gamma))
                - _gauss_log_moment(mf, vf, mh, vh, gamma) / gamma
                + _gauss_log_moment(mh, vh, mh, vh, gamma) / (1 + gamma))

    va = 1 / (alpha / v1 + (1 - alpha) / v2)
    ma = va * (alpha * m1 / v1 + (1 - alpha) * m2 / v2)
    return {
        "gamma": float(divergence(m1, v1, m2, v2)),
        "js_m_gamma": float((divergence(m1, v1, ma, va)
                             + divergence(m2, v2, ma, va)) / 2),
    }


# ---------------------------------------------------------------------------
# Multivariate Gaussian log-density, at 50 digits
# ---------------------------------------------------------------------------

def gaussian_log_density_oracle(mu, chol, points):
    """``log N(x; mu, L L')`` at each row of ``points``, from the factor ``L``.

    Taking the lower Cholesky factor rather than the covariance measures
    how well a log-density whitens its points with that factor, apart from
    the factorization's own rounding (which moves an ill-conditioned
    covariance's density by far more).  ``L^-1 (x - mu)`` is found by
    forward substitution.
    """
    d = len(mu)
    low = [[mp.mpf(repr(float(v))) for v in row] for row in chol]
    mu = _to_mp(mu)
    log_norm = -d * mp.log(2 * mp.pi) / 2 - mp.fsum(mp.log(low[i][i]) for i in range(d))
    out = []
    for row in points:
        r = [a - m for a, m in zip(_to_mp(row), mu)]
        z = []
        for i in range(d):
            z.append((r[i] - mp.fsum(low[i][j] * z[j] for j in range(i))) / low[i][i])
        out.append(float(log_norm - mp.fsum(v * v for v in z) / 2))
    return out


# ---------------------------------------------------------------------------
# The weighted power means in their former whole-array form
# ---------------------------------------------------------------------------

def per_entry_power_mean(alpha, gamma, a, b, log_space):
    """The weighted power mean of exponent ``gamma`` (0: geometric), as
    ``geojsd.means`` computed it before the blocked kernel: each operation
    on the whole array, the log-add by ``np.logaddexp``.

    With ``log_space`` the arguments and the result are logs.  A zero
    argument (log ``-inf``) sends the geometric and ``gamma < 0`` means to
    zero where the expression gives NaN, and equal arguments give their
    common value.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        la, lb = (a, b) if log_space else (np.log(a), np.log(b))
        if gamma == 0.0:
            out = alpha * la + (1.0 - alpha) * lb
        else:
            out = np.logaddexp(np.log(alpha) + gamma * la,
                               np.log1p(-alpha) + gamma * lb) / gamma
        if gamma <= 0.0:
            zero = np.isneginf(la) | np.isneginf(lb)
            out = np.where(np.isnan(out) & zero, -np.inf, out)
        if not log_space:
            out = np.exp(out)
    return np.where(a == b, a, out)


def log_add_tolerance(log_mean, gamma):
    """Two ulps of a log-add ``max(u, v) + log1p(exp(-|u - v|))``, for a
    power mean whose log is ``log_mean``: ulps of the log-add's value
    ``gamma * log_mean`` or of ``ln 2``, the most its log1p term adds,
    whichever is larger, carried through the division by ``gamma``, plus one
    rounding of that division."""
    log_add = np.abs(gamma * log_mean)
    return (2.0 * np.maximum(np.spacing(log_add), np.spacing(math.log(2.0)))
            / abs(gamma) + np.spacing(np.abs(log_mean)))


# ---------------------------------------------------------------------------
# Mixture JSDs of any weighted mean, by direct summation
# ---------------------------------------------------------------------------

def _quasi_exp_mean(alpha, a, b):
    """log(alpha e^a + (1-alpha) e^b) about the larger argument, so that
    masses near 1e300 need no exp of their own size, and with log1p and
    expm1, so that masses near 1e-300 keep their digits at any precision."""
    hi, lo, w_lo = (a, b, 1 - alpha) if a >= b else (b, a, alpha)
    return hi + mp.log1p(w_lo * mp.expm1(lo - hi))


def _log_mean(kind, alpha, gamma, a, b, la, lb):
    """log M(a, b) of positive ``a`` and ``b`` with logs ``la`` and ``lb``."""
    if kind == "geometric":
        return alpha * la + (1 - alpha) * lb
    if kind == "arithmetic":
        return mp.log(alpha * a + (1 - alpha) * b)
    if kind == "power":
        return mp.log(alpha * mp.exp(gamma * la)
                      + (1 - alpha) * mp.exp(gamma * lb)) / gamma
    if kind == "quasi_arithmetic":
        return mp.log(_quasi_exp_mean(alpha, a, b))
    return min(la, lb) if kind == "min" else max(la, lb)


def _mean_at_zero(kind, alpha, gamma, a, b):
    """M(a, b) where ``a`` or ``b`` is zero: the continuous limits."""
    if kind == "quasi_arithmetic":
        return _quasi_exp_mean(alpha, a, b)
    if kind == "arithmetic":
        return alpha * a + (1 - alpha) * b
    if kind == "max":
        return max(a, b)
    if kind in ("min", "geometric") or gamma < 0:
        return mp.mpf(0)
    return (alpha * a ** gamma + (1 - alpha) * b ** gamma) ** (1 / gamma)


def mixture_sums_oracle(p, q, kind, alpha, gamma):
    """``(sum p log(p/mix), sum q log(q/mix), sum mix, sum p, sum q)`` as
    mpmath numbers, for the pointwise weighted mean ``mix`` of the weights
    ``p`` and ``q``: ``kind`` one of arithmetic, geometric, power,
    quasi_arithmetic (the exp generator), min and max, of skew ``alpha`` and
    exponent ``gamma``.

    ``0 log 0 = 0``, and a sum is ``+inf`` where the mixture vanishes under
    positive mass.  The float inputs are read exactly, so ulp-apart atoms
    keep their difference.
    """
    alpha = mp.mpf(float(alpha))
    gamma = None if gamma is None else mp.mpf(float(gamma))
    mix, to_p, to_q, mass_p, mass_q = [], [], [], [], []
    for a, b in zip(p, q):
        a, b = mp.mpf(float(a)), mp.mpf(float(b))
        mass_p.append(a)
        mass_q.append(b)
        if a > 0 and b > 0:
            la, lb = mp.log(a), mp.log(b)
            lm = la if a == b else _log_mean(kind, alpha, gamma, a, b, la, lb)
            mix.append(mp.exp(lm))
            to_p.append(a * (la - lm))
            to_q.append(b * (lb - lm))
            continue
        m = _mean_at_zero(kind, alpha, gamma, a, b)
        mix.append(m)
        for x, terms in ((a, to_p), (b, to_q)):
            if x > 0:
                terms.append(x * mp.log(x / m) if m > 0 else mp.inf)
    return tuple(mp.fsum(terms) for terms in (to_p, to_q, mix, mass_p, mass_q))


def mixture_jsd_oracle(p, q, kind, alpha, gamma, betas):
    """``{beta: (js_m, js_m_extended)}`` of the weights ``p`` and ``q`` for
    the mean of :func:`mixture_sums_oracle`: by the definitions,
    ``beta KL(p, mix/Z) + (1-beta) KL(q, mix/Z)`` and
    ``beta KL+(p, mix) + (1-beta) KL+(q, mix)``, from its sums."""
    s_p, s_q, z, mass_p, mass_q = mixture_sums_oracle(p, q, kind, alpha, gamma)
    out = {}
    for beta in betas:
        w = mp.mpf(float(beta))
        normalized = w * (s_p + mp.log(z) * mass_p) + (1 - w) * (s_q + mp.log(z) * mass_q)
        extended = w * (s_p + z - mass_p) + (1 - w) * (s_q + z - mass_q)
        out[beta] = float(normalized), float(extended)
    return out
