"""Algebraic connectivity with a certified interval, and the spectral gonality bound.

Sign convention: the library's Laplacian carries negative valences on the
diagonal, so this module works with A = -L, which is positive semidefinite.
The flip is documented here once; every eigenvalue below refers to A.

LAPACK (`numpy.linalg.eigh`) gives the estimate of lambda2 and the Fiedler
vector; two checks that hold under rounding then prove lo <= lambda2 <= hi.

* hi: lambda2 is the minimum of the Rayleigh quotient of A over vectors
  orthogonal to the all-ones vector 1.  The Fiedler vector is scaled to
  integers, projected exactly onto that complement, and its quotient is
  evaluated in integers, then rounded up to a float.
* lo: for sigma >= 0 and an integer c > sigma/n, M(sigma) = A - sigma*I +
  c*11^T has eigenvalue c*n - sigma on 1 and lambda_i - sigma on its
  complement, so it is positive definite exactly when lambda2 > sigma.
  sigma and r lie on a dyadic grid fine enough that M(sigma) - r*I is exact
  in binary64, and r = gamma_{n+1}/(1 - gamma_{n+1}) * tr M plus an
  underflow term.  A floating-point Cholesky factorization of M(sigma) - r*I
  that runs to completion then proves M(sigma) positive definite, for any
  summation order, blocking or fused multiply-add (S. M. Rump,
  "Verification of positive definiteness", BIT 46, 2006).  When sigma <= 0
  (a disconnected graph, or lambda2 within the margin of 0), lo = 0 needs
  no test, since A is positive semidefinite.

sigma sits max(TOL/2, 3r) below the estimate, so `error_bound` is about
max(TOL/2, 3r): at most TOL = 1e-9 until 3r reaches it.  r grows like
n * tr M * 2^-53, so cubic graphs from about n = 870 get the wider
certified `error_bound` (1.3e-9 at n = 1000).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from gonlab.graph import Multigraph, laplacian

TOL = 1e-9
"""The `error_bound` aimed for; a larger Cholesky rounding margin overrides it."""


@dataclass(frozen=True)
class SpectralSummary:
    """Second-smallest Laplacian eigenvalue with a certified error interval."""

    n: int
    d_max: int
    lambda2: float
    error_bound: float
    connected: bool
    fiedler_vector: tuple[float, ...]

    @property
    def interval(self) -> tuple[float, float]:
        return (max(self.lambda2 - self.error_bound, 0.0), self.lambda2 + self.error_bound)


def _round_up(q: Fraction) -> float:
    """The least float >= q."""
    f = float(q)
    return f if Fraction(f) >= q else math.nextafter(f, math.inf)


def algebraic_connectivity(g: Multigraph) -> SpectralSummary:
    """lambda_2 of the positive-semidefinite Laplacian with a certified error.

    `error_bound` is at most TOL unless the rounding margin of the
    Cholesky test is larger (see the module docstring).  The zero test for
    connectivity is combinatorial (graph search), never numeric: lambda2 of
    a disconnected graph is reported as the computed near-zero value
    (clamped at 0) but `connected` is authoritative.
    """
    if g.n < 2:
        raise ValueError("algebraic connectivity needs at least 2 vertices")
    n = g.n
    psd = -laplacian(g).astype(float)
    values, vectors = np.linalg.eigh(psd)
    estimate = max(float(values[1]), 0.0)
    fiedler = vectors[:, 1].tolist()

    x = [round(v * 2**40) for v in fiedler]
    total = sum(x)
    y = [n * xi - total for xi in x]
    quadratic_form = sum(mult * (y[u] - y[v]) ** 2 for u, v, mult in g.edges)
    hi = _round_up(Fraction(quadratic_form, sum(yi * yi for yi in y)))

    # c > sigma/n for every sigma <= estimate; `top` bounds |M(sigma) - r*I|
    # and 2m + n*c bounds tr M(sigma) for sigma > 0
    c = math.floor(estimate / n) + 1
    top = g.max_valence + c + math.ceil(estimate)
    unit = Fraction(1, 2 ** (52 - top.bit_length()))
    gamma = Fraction(n + 1, 2**53 - n - 1)
    margin = gamma / (1 - gamma) * (2 * g.m + n * c) + Fraction(4 * (2 * n + 4 + top), 2**1074)
    r = math.ceil(margin / unit) * unit
    sigma = math.floor((Fraction(estimate) - max(Fraction(TOL) / 2, 3 * r)) / unit) * unit
    lo = Fraction(0)
    if sigma > 0:
        shifted = psd + c
        shifted[np.diag_indices(n)] -= float(sigma + r)
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            raise RuntimeError(f"Cholesky test failed to certify lambda2 > {float(sigma)}") from None
        lo = sigma
    error = max(Fraction(estimate) - lo, Fraction(hi) - Fraction(estimate))
    return SpectralSummary(
        n=n,
        d_max=g.max_valence,
        lambda2=estimate,
        error_bound=_round_up(error),
        connected=g.is_connected(),
        fiedler_vector=tuple(fiedler),
    )


def separator_lower_bound(size_a: int, size_b: int, lambda2: float, d: int, n: int) -> float:
    """Minimum size of a set separating sides of the given sizes:
    4*lambda2*|A|*|B| / (d*n - lambda2*|A u B|).
    """
    if size_a < 1 or size_b < 1:
        raise ValueError("both sides must be non-empty")
    if size_a + size_b > n:
        raise ValueError("sides exceed the vertex count")
    if lambda2 <= 0:
        raise ValueError("lambda2 must be positive")
    denom = d * n - lambda2 * (size_a + size_b)
    if denom <= 0:
        raise ValueError(
            f"non-positive denominator {denom}; lambda2={lambda2} too large for valence {d}"
        )
    return 4.0 * lambda2 * size_a * size_b / denom


def gonality_bound_formula(lambda2: float, d: int, n: int) -> float:
    """(n / 2*lambda2) * [-(7*lambda2 + 9d) + 3*sqrt(9*lambda2^2 + 14*d*lambda2 + 9*d^2)].

    Tends to 0 as lambda2 -> 0+ (disconnected graphs need no separator).
    """
    if lambda2 <= 0.0:
        return 0.0
    root = math.sqrt(9.0 * lambda2 * lambda2 + 14.0 * d * lambda2 + 9.0 * d * d)
    return n / (2.0 * lambda2) * (-(7.0 * lambda2 + 9.0 * d) + 3.0 * root)


def support_quadratic(x: float, lambda2: float, d: int, n: int) -> float:
    """The quadratic whose positive root is the gonality bound:
    lambda2*x^2 + (7*lambda2 + 9d)*n*x - 8*lambda2*n^2.
    """
    return lambda2 * x * x + (7.0 * lambda2 + 9.0 * d) * n * x - 8.0 * lambda2 * n * n


@dataclass(frozen=True)
class SpectralBound:
    """Spectral gonality lower bound with interval certification.

    `low`/`high` bracket the true formula value through the lambda2 error
    interval; `ceiling` is the certified integer bound ceil(low) (gonality
    is an integer).
    """

    value: float
    low: float
    high: float
    ceiling: int
    lambda2: float
    lambda2_error: float
    d_max: int
    n: int


def spectral_gonality_bound(g: Multigraph) -> SpectralBound:
    """Closed-form gonality lower bound from lambda2 and the maximum valence.

    Refuses disconnected graphs (lambda2 = 0 makes the expression
    degenerate).  The bound is evaluated across the certified lambda2
    interval; `ceiling` uses the interval's low end, so it is itself
    certified.
    """
    summary = algebraic_connectivity(g)
    if not summary.connected:
        raise ValueError("spectral gonality bound requires a connected graph")
    lam_lo, lam_hi = summary.interval
    d, n = summary.d_max, summary.n
    evals = [gonality_bound_formula(lam, d, n) for lam in (lam_lo, summary.lambda2, lam_hi)]
    slack = 1e-12 * max(1.0, abs(evals[1])) + 1e-15
    low = min(evals) - slack
    high = max(evals) + slack
    return SpectralBound(
        value=evals[1],
        low=low,
        high=high,
        ceiling=math.ceil(low),
        lambda2=summary.lambda2,
        lambda2_error=summary.error_bound,
        d_max=d,
        n=n,
    )
