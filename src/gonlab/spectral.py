"""Algebraic connectivity with a certified interval, and the spectral gonality bound.

Sign convention: the library's Laplacian carries negative valences on the
diagonal, so this module works with A = -L, which is positive semidefinite.
The flip is documented here once; every eigenvalue below refers to A.

LAPACK (`numpy.linalg.eigh`) gives the estimate of lambda2 and the Fiedler
vector; two checks that hold under rounding then prove lo <= lambda2 <= hi.
numpy is imported by `algebraic_connectivity` on its first call, so
importing this module does not load it.

* hi: lambda2 is the minimum of the Rayleigh quotient of A over vectors
  orthogonal to the all-ones vector 1.  The Fiedler vector is scaled to
  integers, projected exactly onto that complement, and its quotient is
  evaluated in integers, then rounded up to a float.
* lo: for sigma >= 0 and an integer c > sigma/n, M(sigma) = A - sigma*I +
  c*11^T has eigenvalue c*n - sigma on 1 and lambda_i - sigma on its
  complement, so it is positive definite exactly when lambda2 > sigma.
  sigma and r lie on a dyadic grid of unit 2^-e fine enough that M(sigma) -
  r*I is exact in binary64, and r rounds gamma_{n+1}/(1 - gamma_{n+1}) *
  tr M plus an underflow term of 4(2n + 4 + top) * 2^-1074 up to the grid.
  In units, that first term is a rational X with denominator below 2^53,
  and the underflow term is below 2^-1000, so r/unit = floor(X) + 1
  whether or not X is an integer.  A floating-point Cholesky factorization
  of M(sigma) - r*I that runs to completion then proves M(sigma) positive
  definite, for any summation order, blocking or fused multiply-add (S. M.
  Rump, "Verification of positive definiteness", BIT 46, 2006).  When
  sigma <= 0 (a disconnected graph, or lambda2 within the margin of 0),
  lo = 0 needs no test, since A is positive semidefinite.

The estimate, hi, TOL and the grid are all dyadic rationals p/2^k, so sigma,
r and `error_bound` are computed in integers and rounded to floats by
correctly rounded int/int division.  A itself is built as floats whose
zero entries are -0.0, as negating the float Laplacian gives them:
LAPACK's reflector signs read the sign of zero, and with +0.0 the
estimate's last bits moved on most graphs of the test corpus.

sigma sits max(TOL/2, 3r) below the estimate, so `error_bound` is about
max(TOL/2, 3r): at most TOL = 1e-9 until 3r reaches it.  r grows like
n * tr M * 2^-53, so cubic graphs from about n = 870 get the wider
certified `error_bound` (1.3e-9 at n = 1000).

The gonality bound (n/2*lambda2) * (-(7*lambda2 + 9d) + 3*sqrt(...)) is
evaluated exactly, never in floats: its two terms cancel to O(lambda2^2),
so a float evaluation loses its leading digits for small lambda2.
`gonality_bound_bracket` uses the conjugate form, which increases with
lambda2, in rationals with an integer square-root bracket; the ends of the
certified lambda2 interval, taken as exact rationals, then give a proven
`ceiling`, on graphs of at least MIN_VERTICES vertices.
`spectral_gonality_bound` evaluates the same brackets on integer
numerators and denominators (`_bracket`), at each end in lowest terms.

One result type: the `SpectralBound` of `spectral_gonality_bound` is the
`SpectralSummary` of `algebraic_connectivity` extended by the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from gonlab.graph import Multigraph

TOL = 1e-9
"""The `error_bound` aimed for; a larger Cholesky rounding margin overrides it."""

ROOT_BITS = 64
"""Binary digits after the point kept by the square-root bracket of the bound."""

MIN_VERTICES = 3
"""Fewest vertices for which the spectral bound is a theorem.  Its
derivation splits off a component strictly smaller than n/2, which no
2-vertex graph has.  On two vertices lambda2 = 2d, where the formula is
1.316 for any multiplicity: right for a multiple edge (gonality 2), wrong
for K2, a tree, whose gonality is 1."""


@dataclass(frozen=True)
class SpectralSummary:
    """Second-smallest Laplacian eigenvalue with a certified error interval."""

    n: int
    d_max: int
    lambda2: float
    error_bound: float
    connected: bool
    fiedler_vector: tuple[float, ...] = field(repr=False)

    @property
    def interval(self) -> tuple[float, float]:
        return (max(self.lambda2 - self.error_bound, 0.0), self.lambda2 + self.error_bound)


def _round_up(p: int, q: int) -> float:
    """The least float >= p/q, for integers p and q > 0.  int/int division
    is correctly rounded, so the nearest float is the answer or one step
    below it."""
    f = p / q
    a, b = f.as_integer_ratio()
    return f if a * q >= p * b else math.nextafter(f, math.inf)


def _psd_matrix(g: Multigraph):
    """A = -L as floats, built directly.  Its zeros are -0.0, as in the
    negated float Laplacian: LAPACK's Householder reflectors take their
    signs from the entries, zeros included, so +0.0 would move the last
    bits of lambda2 and of the Fiedler vector."""
    import numpy as np

    psd = np.full((g.n, g.n), -0.0)
    for u, v, mult in g.edges:
        psd[u, v] = psd[v, u] = -mult
    for v, val in enumerate(g._val):
        if val:
            psd[v, v] = val
    return psd


def algebraic_connectivity(g: Multigraph) -> SpectralSummary:
    """lambda_2 of the positive-semidefinite Laplacian with a certified error.

    `error_bound` is at most TOL unless the rounding margin of the
    Cholesky test is larger (see the module docstring).  The zero test for
    connectivity is combinatorial (graph search), never numeric: lambda2 of
    a disconnected graph is reported as the computed near-zero value
    (clamped at 0) but `connected` is authoritative.
    """
    import numpy as np

    if g.n < 2:
        raise ValueError("algebraic connectivity needs at least 2 vertices")
    n = g.n
    psd = _psd_matrix(g)
    values, vectors = np.linalg.eigh(psd)
    estimate = max(float(values[1]), 0.0)
    fiedler = vectors[:, 1].tolist()

    x = [round(v * 2**40) for v in fiedler]
    total = sum(x)
    y = [n * xi - total for xi in x]
    quadratic_form = sum(mult * (y[u] - y[v]) ** 2 for u, v, mult in g.edges)
    hi = _round_up(quadratic_form, sum(yi * yi for yi in y))

    # c > sigma/n for every sigma <= estimate; `top` bounds |M(sigma) - r*I|
    # and 2m + n*c bounds tr M(sigma) for sigma > 0.  sigma and r are
    # counted in units of 2^-e.
    c = math.floor(estimate / n) + 1
    top = g.max_valence + c + math.ceil(estimate)
    e = 52 - top.bit_length()
    # r = margin rounded up to the grid, margin = gamma/(1 - gamma) * (2m +
    # n*c) plus an underflow term below 2^-1000 units, where gamma/(1 -
    # gamma) = (n + 1)/(2^53 - 2n - 2): so r = floor(the first term) + 1
    r = ((n + 1) * (2 * g.m + n * c) << e) // (2**53 - 2 * n - 2) + 1
    est_p, est_q = estimate.as_integer_ratio()
    tol_p, tol_q = TOL.as_integer_ratio()
    tol_q *= 2  # TOL/2
    if tol_p << e > 3 * r * tol_q:  # sigma = floor((estimate - TOL/2) * 2^e)
        sigma = ((est_p * tol_q - tol_p * est_q) << e) // (est_q * tol_q)
    else:  # sigma = floor((estimate - 3r) * 2^e)
        sigma = (est_p << e) // est_q - 3 * r
    lo = 0
    if sigma > 0:
        shifted = psd + c
        shifted[np.diag_indices(n)] -= (sigma + r) / (1 << e)
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            bound = sigma / (1 << e)
            raise RuntimeError(f"Cholesky test failed to certify lambda2 > {bound}") from None
        lo = sigma
    # error = max(estimate - lo, hi - estimate) over the common denominator
    hi_p, hi_q = hi.as_integer_ratio()
    den = max(est_q, hi_q, 1 << e)  # all powers of 2
    est = est_p * (den // est_q)
    error = max(est - lo * (den >> e), hi_p * (den // hi_q) - est)
    return SpectralSummary(
        n=n,
        d_max=g.max_valence,
        lambda2=estimate,
        error_bound=_round_up(error, den),
        connected=g.is_connected(),
        fiedler_vector=tuple(fiedler),
    )


def _bracket(a: int, b: int, d: int, n: int) -> tuple[int, int, int]:
    """(numerator, low_den, high_den): the bracket numerator/low_den <=
    f(lam) <= numerator/high_den of `gonality_bound_bracket` at lam = a/b.
    The square-root bracket depends on how lam is written, so a/b must be
    in lowest terms, as a `Fraction` holds it."""
    r = math.isqrt((9 * a * a + 14 * d * a * b + 9 * d * d * b * b) << (2 * ROOT_BITS))
    rational = (7 * a + 9 * d * b) << ROOT_BITS
    return (16 * n * a) << ROOT_BITS, rational + 3 * (r + 1), rational + 3 * r


def gonality_bound_bracket(lam: Fraction, d: int, n: int) -> tuple[Fraction, Fraction]:
    """Rationals lower <= f(lam) <= upper for the spectral gonality bound

        f(lam) = (n / 2*lam) * (-B + 3*sqrt(A)) = 16*n*lam / (B + 3*sqrt(A)),
        A = 9*lam^2 + 14*d*lam + 9*d^2,  B = 7*lam + 9d.

    The conjugate form on the right (9A - B^2 = 32*lam^2) has no
    cancellation and increases with lam, with f(0) = 0.  For lam = a/b,
    sqrt(A) = sqrt(M)/b with M = 9a^2 + 14dab + 9d^2b^2, and `math.isqrt`
    brackets sqrt(M) within 2^-ROOT_BITS, so the bracket's relative width
    is below 2^-ROOT_BITS / (3d).
    """
    if lam < 0:
        raise ValueError("lambda2 must be non-negative")
    numerator, low_den, high_den = _bracket(lam.numerator, lam.denominator, d, n)
    return Fraction(numerator, low_den), Fraction(numerator, high_den)


@dataclass(frozen=True)
class SpectralBound(SpectralSummary):
    """The lambda2 summary extended by the certified spectral gonality bound.

    `low`/`high` are floats rounded outward from the exact bracket of the
    formula over the lambda2 error interval; `ceiling` is the certified
    integer bound, the ceiling of the exact lower end (gonality is an
    integer) where the theorem applies (n >= MIN_VERTICES) and the trivial
    1 below that; `value` is the formula at the lambda2 estimate.  The
    bound report sorts the vertices by the inherited `fiedler_vector` for
    the sweep cuts that seed its Cheeger scan, so the eigensolver runs once
    per report.
    """

    value: float
    low: float
    high: float
    ceiling: int

    @property
    def note(self) -> str | None:
        """Why `ceiling` is the trivial 1 below MIN_VERTICES; None from there on."""
        if self.n >= MIN_VERTICES:
            return None
        return (
            f"n={self.n} below {MIN_VERTICES}: the spectral bound does not apply, "
            "its ceiling is the trivial 1"
        )


def spectral_gonality_bound(g: Multigraph) -> SpectralBound:
    """Closed-form gonality lower bound from lambda2 and the maximum valence.

    Refuses disconnected graphs (lambda2 = 0 makes the expression
    degenerate).  The bound increases with lambda2, so it is evaluated once
    at each end of the certified lambda2 interval; `ceiling` uses the low
    end, so it is itself certified.  Below MIN_VERTICES the formula is
    still evaluated, but `ceiling` is 1: the theorem does not cover such
    graphs, and on K2 its value exceeds the gonality.
    """
    summary = algebraic_connectivity(g)
    if not summary.connected:
        raise ValueError("spectral gonality bound requires a connected graph")
    d, n = summary.d_max, summary.n

    def at(p: int, q: int) -> tuple[int, int, int]:
        """`_bracket` at lam = max(p/q, 0), taken in lowest terms."""
        p = max(p, 0)
        common = math.gcd(p, q)
        return _bracket(p // common, q // common, d, n)

    lam_p, lam_q = summary.lambda2.as_integer_ratio()
    err_p, err_q = summary.error_bound.as_integer_ratio()
    value, value_den, _ = at(lam_p, lam_q)
    lower, lower_den, _ = at(lam_p * err_q - err_p * lam_q, lam_q * err_q)
    upper, _, upper_den = at(lam_p * err_q + err_p * lam_q, lam_q * err_q)
    return SpectralBound(
        **vars(summary),
        value=value / value_den,
        low=-_round_up(-lower, lower_den),
        high=_round_up(upper, upper_den),
        ceiling=-(-lower // lower_den) if n >= MIN_VERTICES else 1,
    )
