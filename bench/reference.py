"""Independent references for the output-correctness gate.

Nothing here calls geojsd.  Finite supports use plain numpy sums (the
generated weights are strictly positive, so no limit conventions arise);
Gaussians use the textbook closed forms through ``numpy.linalg``; 1-D
integrals use mpmath; where no closed form exists a numpy Monte Carlo with
many more draws than the timed call supplies the reference.

Each check returns True when the output agrees with the reference within the
tolerance stated next to it.
"""

from __future__ import annotations

import math

import numpy as np

# Discrete paper identities hold to this absolute residual (README criterion).
IDENTITY_TOL = 1e-12
# Chernoff: value against B at the returned alpha*, and the equalizer gap
# KL(mix, p1) - KL(mix, p2) at alpha* (acceptance criterion 8).
CHERNOFF_VALUE_TOL = 1e-12
CHERNOFF_EQUALIZER_TOL = 1e-8
# Gaussian closed forms against the textbook forms, relative to
# max(1, Jeffreys): two different factorisations of the same matrices
# (observed: below 3e-15 at d = 1, 8 and 64).
GAUSSIAN_REL_TOL = 1e-10
# Monte Carlo estimates with a standard error: |estimate - reference| within
# this many combined standard errors.
MC_SIGMAS = 6.0
# Monte Carlo gamma-divergence (the library reports no standard error):
# absolute tolerance.  Over 40 seeds at the workload's sample sizes the
# largest error was 0.007 (d = 8) and the median 0.0015.
GAMMA_MC_ABS_TOL = 0.02
# js_m_gamma by quadrature against mpmath at 30 digits.  The library asks
# scipy's quad for its default accuracy, 1.49e-8, on each of three
# log-integrals near 1, and the gamma-divergence weighs them by 1/(gamma (1 +
# gamma)), 1/gamma and 1/(1 + gamma), which sum to 2/gamma.  Observed at
# gamma = 1e-3: about 3e-13 on 99 of 100 input pairs, 4.1e-6 on one, where
# quad's own error estimate for one integral was 8e-9.
QUAD_EPS = 1.49e-8


def quadrature_abs_tol(gamma: float) -> float:
    return 2.0 * QUAD_EPS / gamma


LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Finite supports
# ---------------------------------------------------------------------------

def mean_values(kind: str, gamma: float | None, a: np.ndarray,
                b: np.ndarray) -> np.ndarray:
    """Balanced (alpha = 1/2) mean of two positive vectors, elementwise."""
    if kind == "arithmetic":
        return 0.5 * (a + b)
    if kind == "geometric":
        return np.sqrt(a * b)
    if kind == "power":
        return (0.5 * a ** gamma + 0.5 * b ** gamma) ** (1.0 / gamma)
    if kind == "min":
        return np.minimum(a, b)
    if kind == "max":
        return np.maximum(a, b)
    raise ValueError(f"no reference for mean {kind!r}")


def kl(p: np.ndarray, q: np.ndarray) -> float:
    return float(np.sum(p * np.log(p / q)))


def js(p: np.ndarray, q: np.ndarray) -> float:
    mid = 0.5 * (p + q)
    return 0.5 * (kl(p, mid) + kl(q, mid))


def jeffreys(p: np.ndarray, q: np.ndarray) -> float:
    return float(np.sum((p - q) * np.log(p / q)))


def bhattacharyya(p: np.ndarray, q: np.ndarray) -> float:
    return -math.log(float(np.sum(np.sqrt(p * q))))


def js_m_pair(p: np.ndarray, q: np.ndarray, kind: str,
              gamma: float | None) -> tuple[float, float]:
    """(JS_M, JS+_M) from JS_M = JS + KL(A, M/Z) and JS+_M = JS_M + Z - log Z - 1."""
    m = mean_values(kind, gamma, p, q)
    z = float(m.sum())
    normalized = js(p, q) + kl(0.5 * (p + q), m / z)
    return normalized, normalized + z - math.log(z) - 1.0


def f_divergence(p: np.ndarray, q: np.ndarray, generator: str) -> float:
    """sum(p * f(q/p)) for the library's registered generators."""
    if generator == "kl":
        return kl(p, q)
    if generator == "js":
        return js(p, q)
    if generator == "extended_gjs":
        return 0.25 * jeffreys(p, q) + math.exp(-bhattacharyya(p, q)) - 1.0
    if generator == "jeffreys":
        return jeffreys(p, q)
    if generator == "taneja":
        avg = 0.5 * (p + q)
        return float(np.sum(avg * np.log(avg / np.sqrt(p * q))))
    if generator == "bhattacharyya_coeff":
        return float(np.sum(np.sqrt(p * q)))
    raise ValueError(f"no reference for generator {generator!r}")


def discrete_expected(op: str, p: np.ndarray, q: np.ndarray,
                      kind: str | None = None, gamma: float | None = None,
                      generator: str | None = None) -> list[float]:
    """Reference values a discrete output must match, each within IDENTITY_TOL."""
    if op == "js":
        return [js(p, q)]
    if op == "jeffreys":
        return [jeffreys(p, q)]
    if op == "bhattacharyya":
        return [bhattacharyya(p, q)]
    if op == "total_variation":
        return [0.5 * float(np.abs(p - q).sum())]
    if op == "f_divergence":
        return [f_divergence(p, q, generator)]
    if op in ("js_m", "js_m_extended"):
        normalized, extended = js_m_pair(p, q, kind, gamma)
        refs = [normalized if op == "js_m" else extended]
        if kind == "geometric":
            quarter_j = 0.25 * jeffreys(p, q)
            b = bhattacharyya(p, q)
            refs.append(quarter_j - b if op == "js_m"
                        else quarter_j + math.exp(-b) - 1.0)
        return refs
    raise ValueError(f"no reference for {op!r}")


def matches(value: float, refs: list[float], tol: float = IDENTITY_TOL) -> bool:
    return all(abs(float(value) - r) <= tol for r in refs)


def _logsumexp(x: np.ndarray) -> float:
    top = float(x.max())
    return top + math.log(float(np.exp(x - top).sum()))


def chernoff_ok(p: np.ndarray, q: np.ndarray, out) -> bool:
    """Value equals B at alpha*, and alpha* equalizes the two reverse KLs."""
    value, alpha = out
    if not 0.0 < alpha < 1.0:
        return False
    la, lb = np.log(p), np.log(q)
    log_mix = alpha * la + (1.0 - alpha) * lb
    b_alpha = -_logsumexp(log_mix)
    weights = np.exp(log_mix - log_mix.max())
    gap = float((weights * (lb - la)).sum() / weights.sum())
    return (abs(value - b_alpha) <= CHERNOFF_VALUE_TOL
            and abs(gap) <= CHERNOFF_EQUALIZER_TOL)


# ---------------------------------------------------------------------------
# Gaussians
# ---------------------------------------------------------------------------

def _logdet(mat: np.ndarray) -> float:
    sign, value = np.linalg.slogdet(mat)
    if sign <= 0:
        raise ValueError("matrix is not positive-definite")
    return float(value)


def gauss_kl(m1, s1, m2, s2) -> float:
    delta = m2 - m1
    return 0.5 * (float(np.trace(np.linalg.solve(s2, s1)))
                  + float(delta @ np.linalg.solve(s2, delta)) - m1.size
                  + _logdet(s2) - _logdet(s1))


def gauss_bhattacharyya(m1, s1, m2, s2) -> float:
    """B_{1/2} through the arithmetic average of the covariances."""
    avg = 0.5 * (s1 + s2)
    delta = m2 - m1
    return (0.125 * float(delta @ np.linalg.solve(avg, delta))
            + 0.5 * (_logdet(avg) - 0.5 * (_logdet(s1) + _logdet(s2))))


class GaussianPairRef:
    """Closed forms of one Gaussian pair, from the textbook formulas."""

    def __init__(self, m1, s1, m2, s2) -> None:
        self.kl12 = gauss_kl(m1, s1, m2, s2)
        self.jeffreys = self.kl12 + gauss_kl(m2, s2, m1, s1)
        self.bhattacharyya = gauss_bhattacharyya(m1, s1, m2, s2)
        self.gjsd = 0.25 * self.jeffreys - self.bhattacharyya
        self.gjsd_extended = (0.25 * self.jeffreys
                              + math.exp(-self.bhattacharyya) - 1.0)
        self.scale = max(1.0, abs(self.jeffreys))

    def expected(self, op: str) -> float:
        return {
            "kl_gaussian": self.kl12,
            "jeffreys_gaussian": self.jeffreys,
            "bhattacharyya_gaussian": self.bhattacharyya,
            "gjsd_gaussian": self.gjsd,
            "gjsd_extended_gaussian": self.gjsd_extended,
            "gjsd_ef": self.gjsd,
        }[op]

    def ok(self, op: str, value: float) -> bool:
        return abs(float(value) - self.expected(op)) <= GAUSSIAN_REL_TOL * self.scale


def gauss_log_moment(m1, s1, m2, s2, gamma: float) -> float:
    """log of the integral of N1 * N2**gamma, from the product of Gaussians."""
    d = m1.size
    widened = s1 + s2 / gamma
    delta = m1 - m2
    return (-0.5 * d * gamma * LOG_2PI - 0.5 * gamma * _logdet(s2)
            + 0.5 * _logdet(s2 / gamma) - 0.5 * _logdet(widened)
            - 0.5 * float(delta @ np.linalg.solve(widened, delta)))


def gauss_gamma_divergence(m1, s1, m2, s2, gamma: float) -> float:
    i11 = gauss_log_moment(m1, s1, m1, s1, gamma)
    i12 = gauss_log_moment(m1, s1, m2, s2, gamma)
    i22 = gauss_log_moment(m2, s2, m2, s2, gamma)
    return i11 / (gamma * (1.0 + gamma)) - i12 / gamma + i22 / (1.0 + gamma)


def within_sigmas(value: float, se: float, ref: float, ref_se: float = 0.0) -> bool:
    return abs(value - ref) <= MC_SIGMAS * math.hypot(se, ref_se) + 1e-12


# ---------------------------------------------------------------------------
# Monte Carlo references for non-geometric means
# ---------------------------------------------------------------------------

def _gauss_sampler(m, s):
    chol = np.linalg.cholesky(s)
    log_norm = -0.5 * m.size * LOG_2PI - float(np.log(np.diag(chol)).sum())

    def log_pdf(x: np.ndarray) -> np.ndarray:
        z = np.linalg.solve(chol, (x - m).T).T
        return log_norm - 0.5 * (z * z).sum(axis=1)

    def draw(rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.standard_normal((n, m.size)) @ chol.T + m

    return log_pdf, draw


def power_mc_reference(m1, s1, m2, s2, gamma: float, samples: int,
                       seed: int, chunk: int) -> dict[str, tuple[float, float]]:
    """(value, standard error) of Z and JS+ for the balanced power mean.

    Z = E_p1[M/p1]; JS+ = (E_p1[log(p1/M) + M/p1 - 1] + E_p2[log(p2/M) + M/p2 - 1]) / 2.
    Draws ``chunk`` samples at a time and keeps running sums, so the
    reference's temporaries are no larger than the timed calls' and do not
    set the process's peak RSS.
    """
    rng = np.random.default_rng(seed)
    lp1, draw1 = _gauss_sampler(m1, s1)
    lp2, draw2 = _gauss_sampler(m2, s2)

    def log_mean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.logaddexp(math.log(0.5) + gamma * a,
                            math.log(0.5) + gamma * b) / gamma

    # [sum, sum of squares] of M/p1 under p1, and of the JS+ term under each
    sums = {"z": [0.0, 0.0], "first": [0.0, 0.0], "second": [0.0, 0.0]}
    for key, own, other, draw in (("first", lp1, lp2, draw1), ("second", lp2, lp1, draw2)):
        for start in range(0, samples, chunk):
            x = draw(rng, min(chunk, samples - start))
            la, lb = own(x), other(x)
            ratio = np.exp(log_mean(la, lb) - la)
            parts = [(key, -np.log(ratio) + ratio - 1.0)]
            if key == "first":
                parts.append(("z", ratio))
            for name, v in parts:
                sums[name][0] += float(v.sum())
                sums[name][1] += float((v * v).sum())

    def mean_se(name: str) -> tuple[float, float]:
        total, squares = sums[name]
        mean = total / samples
        var = max(squares - samples * mean * mean, 0.0) / (samples - 1)
        return mean, math.sqrt(var / samples)

    first, second = mean_se("first"), mean_se("second")
    js_plus = (0.5 * (first[0] + second[0]), 0.5 * math.hypot(first[1], second[1]))
    return {"z": mean_se("z"), "js_plus": js_plus}


# ---------------------------------------------------------------------------
# One-dimensional quadrature (mpmath)
# ---------------------------------------------------------------------------

def _mp_gauss(mpmath, mu: float, var: float):
    mu, var = mpmath.mpf(mu), mpmath.mpf(var)
    norm = 1 / mpmath.sqrt(2 * mpmath.pi * var)
    return lambda x: norm * mpmath.exp(-(x - mu) ** 2 / (2 * var))


def _mp_integral(mpmath, f, support: tuple[float, float], points: list[float]):
    """Integral over the support, split at the modes so tanh-sinh sees smooth pieces."""
    lo, hi = support
    return mpmath.quad(f, sorted({lo, hi, *(p for p in points if lo < p < hi)}))


def js_m_gamma_1d(mu1: float, var1: float, mu2: float, var2: float,
                  mean_gamma: float, gamma: float,
                  support: tuple[float, float]) -> float:
    """Projective M-JSD for the balanced power mean, by mpmath quadrature."""
    import mpmath

    with mpmath.workdps(30):
        p1 = _mp_gauss(mpmath, mu1, var1)
        p2 = _mp_gauss(mpmath, mu2, var2)
        g = mpmath.mpf(mean_gamma)
        gam = mpmath.mpf(gamma)

        def mix(x):
            return (p1(x) ** g / 2 + p2(x) ** g / 2) ** (1 / g)

        def log_i(f, h):
            return mpmath.log(_mp_integral(mpmath, lambda x: f(x) * h(x) ** gam,
                                           support, [mu1, mu2]))

        def divergence(f, h):
            return (log_i(f, f) / (gam * (1 + gam)) - log_i(f, h) / gam
                    + log_i(h, h) / (1 + gam))

        return float((divergence(p1, mix) + divergence(p2, mix)) / 2)


def js_1d(mu1: float, var1: float, mu2: float, var2: float,
          support: tuple[float, float]) -> float:
    """Jensen-Shannon divergence between 1-D Gaussians, by mpmath quadrature."""
    import mpmath

    with mpmath.workdps(20):
        p1 = _mp_gauss(mpmath, mu1, var1)
        p2 = _mp_gauss(mpmath, mu2, var2)

        def term(x):
            a, b = p1(x), p2(x)
            m = (a + b) / 2
            return (a * mpmath.log(a / m) + b * mpmath.log(b / m)) / 2

        return float(_mp_integral(mpmath, term, support, [mu1, mu2]))
