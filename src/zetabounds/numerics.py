"""Deterministic floating-point building blocks.

Compensated summation, Bernoulli numbers, geometric grids, and a
certified Gauss-Legendre rule for the analytic, rapidly oscillating
integrands of the lemma checks.  Each returns the same bits for the same
inputs (the quadrature, for the same integrand values) and carries an
explicit error contract:

* ``compensated_sum``  -- correctly rounded (``math.fsum``)
* ``exact_sum`` -- correctly rounded, the bits of ``math.fsum``, by
  error-free extraction on long arrays (``docs/exact_summation.md``)
* ``bernoulli_number`` -- exact rational recurrence, rounded once to float
* ``integrate_gauss_legendre`` -- |value - integral| <= radius for each
  integral of a batch, given a bound on |f| over each panel's Bernstein
  ellipse and one on the error of each integrand value
  (``docs/oscillatory_tails.md``, "Certified quadrature")

Only the array kernels need numpy, and each loads it when it runs:
``exact_sum``, ``gauss_legendre`` and ``integrate_gauss_legendre``.
``compensated_sum``, ``bernoulli_number``, ``geometric_grid`` and the
integer check ``_integer`` run without it, so the optimizer, which uses
the last two, loads no numpy.
"""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable

EPS = math.ulp(1.0)  # 2^-52
BERNOULLI_MAX_M = 120  # largest index bernoulli_number accepts


def _integer(name: str, value: int) -> int:
    """``value`` as an int: an int or a numpy integer, never a bool.  A value
    can be a numpy integer only once numpy is loaded, so this loads none."""
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    np = sys.modules.get("numpy")  # None when numpy is unloaded or blocked
    if np is None or not isinstance(value, np.integer):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def compensated_sum(terms: Iterable[float]) -> float:
    """Correctly rounded sum of ``terms`` (``math.fsum``).

    Raises ValueError on non-finite input.  The empty sum is 0.0.
    """
    values = [float(x) for x in terms]
    if not all(map(math.isfinite, values)):
        raise ValueError("non-finite term in compensated sum")
    return math.fsum(values)


# Exact summation by error-free extraction (docs/exact_summation.md): for
# n <= 2^m - 2 terms with |r| <= 2^-m sigma, q = fl(sigma + r) - sigma sums
# exactly in any order, and r - q is exact with |r - q| <= 2^-53 sigma.
_EXACT_MIN_TERMS = 512  # below this, math.fsum is the faster of the two
_BLOCK = 2**16  # terms per extraction pass; bounds the temporaries
_ROUNDS = 2  # extraction rounds per block; the residual left goes to fsum
_TOP_MAX = 2.0**1005  # with 2^m <= 2^17, sigma <= 2^1022 below this max|x|


def _extract(block: np.ndarray, top: float) -> list[float]:
    """Doubles whose exact sum is the sum of ``block``, |block| <= ``top``:
    the sum of each round's extracted parts, then the nonzero residual."""
    import numpy as np

    m = (block.size + 1).bit_length()  # 2^m >= size + 2
    sigma = math.ldexp(1.0, m + math.frexp(top)[1])  # 2^-m sigma > top
    q = np.empty_like(block)
    r, parts = block, []
    for _ in range(_ROUNDS):
        np.add(r, sigma, out=q)
        q -= sigma
        r = np.subtract(r, q, out=None if r is block else r)  # block is the caller's
        parts.append(float(q.sum()))
        sigma = math.ldexp(sigma, m - 53)  # 2^-m of it bounds the residual
    return parts + r[r != 0].tolist()


def exact_sum(values: np.ndarray) -> float:
    """Correctly rounded sum of a 1-D float64 array, the bits of
    ``math.fsum``: ``math.fsum`` itself below _EXACT_MIN_TERMS terms, else
    error-free extraction in blocks of _BLOCK terms, rounded once.
    OverflowError only when the sum itself overflows; ValueError on
    non-finite or non-1-D input."""
    import numpy as np

    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("exact_sum takes a 1-D array")
    top = float(max(arr.max(initial=0.0), -arr.min(initial=0.0)))  # nan if any term is
    if not math.isfinite(top):
        raise ValueError("non-finite term in compensated sum")
    if top >= _TOP_MAX:
        return _integer_sum(arr)
    if arr.size < _EXACT_MIN_TERMS:  # n max|x| < 2^1014: no partial sum overflows
        return math.fsum(arr.tolist())
    parts: list[float] = []
    for start in range(0, arr.size, _BLOCK):
        parts += _extract(arr[start:start + _BLOCK], top)
    try:
        return math.fsum(parts)
    except OverflowError:  # a partial sum overflowed, which the sum may not
        return _integer_sum(arr)


def _integer_sum(arr: np.ndarray) -> float:
    """The sum in whole multiples of 2^-1074, rounded once by int / int,
    half to even; OverflowError when the sum itself overflows."""
    ratios = map(float.as_integer_ratio, arr.tolist())
    return sum(p * ((1 << 1074) // q) for p, q in ratios) / (1 << 1074)


@lru_cache(maxsize=None)
def _bernoulli_exact(m: int) -> Fraction:
    # B_m by the defining recurrence sum_{k<=m} C(m+1,k) B_k = 0, exact
    # rationals throughout.  The cache makes each B_k a single computation
    # however many orders are requested.
    if m == 0:
        return Fraction(1)
    s = Fraction(0)
    for k in range(m):
        if k < 2 or k % 2 == 0:  # B_k = 0 for odd k >= 3
            s += math.comb(m + 1, k) * _bernoulli_exact(k)
    return -s / (m + 1)


def bernoulli_number(m: int) -> float:
    """Bernoulli number B_m for even m with 2 <= m <= BERNOULLI_MAX_M (120),
    twice the largest Euler-Maclaurin order ``zeta.EMConfig`` accepts.

    Computed through the exact rational recurrence and rounded once, so
    the result is within 1 ulp of the true value.  Each B_m is computed
    on first use and cached, together with every B_k below it; a cold
    B_120 takes milliseconds, so callers ask only for the orders they use.
    """
    m = _integer("m", m)
    if m % 2 != 0 or not (2 <= m <= BERNOULLI_MAX_M):
        raise ValueError(
            f"bernoulli_number requires even m in [2, {BERNOULLI_MAX_M}], got {m!r}"
        )
    return float(_bernoulli_exact(m))


# (nodes, owner) -> f at the nodes, where owner[i] is the batch index of
# the integral that node i belongs to
BatchFunction = Callable[["np.ndarray", "np.ndarray"], "np.ndarray"]
# (panel midpoints, real and imaginary semi-axes with a row per rho, owner
# of each panel) -> M_rho
EllipseBound = Callable[["np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray"], "np.ndarray"]

RHO_GRID = (1.25, 1.5, 2.0, 3.0, 4.0, 6.0)  # Bernstein ellipse parameters tried
MAX_GL_NODES = 64  # nodes per panel; the node and weight errors are pinned up to here
GL_WEIGHT_ERR = 2e-13  # relative error of the computed weights (measured: 1.3e-13)
_ROUND_UP = 1.0 + 1e-12  # covers the rounding of the truncation bound's few operations
_GL_SIZES = range(4, MAX_GL_NODES + 1, 4)  # the rule sizes tried, fewest nodes first


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    import numpy as np

    p0, p1 = np.ones_like(x), x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


@lru_cache(maxsize=None)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending, symmetric) and weights of the n-point
    Gauss-Legendre rule on [-1, 1] for even n, read-only and cached: the
    positive roots by Newton's method on the Legendre recurrence, each
    weight 2 / ((1 - x^2) P_n'(x)^2) at its final root."""
    if n < 2 or n % 2:
        raise ValueError(f"gauss_legendre needs an even n >= 2, got {n}")
    import numpy as np

    x = np.cos(math.pi * (np.arange(1, n // 2 + 1) - 0.25) / (n + 0.5))  # descending
    for _ in range(100):
        p, dp = _legendre(n, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= EPS:
            break
    dp = _legendre(n, x)[1]
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    x, w = np.concatenate([-x, x[::-1]]), np.concatenate([w, w[::-1]])
    x.flags.writeable = w.flags.writeable = False
    return x, w


def integrate_gauss_legendre(
    f: BatchFunction,
    a: np.ndarray,
    b: np.ndarray,
    tol: float,
    ellipse_bound: EllipseBound,
    wavelength: np.ndarray,
    node_err: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of ``f`` over each [a[i], b[i]] by a fixed Gauss-Legendre
    rule, with certified radii: (values, radii), one entry per integral.

    ``a``, ``b``, ``wavelength`` and ``node_err`` are 1-D arrays with one
    entry per integral of the batch; ``tol`` holds for each.  Integral i's
    [a, b] is cut into ceil((b - a) / (8 wavelength)) equal panels,
    ``wavelength`` being the shortest period of f's oscillation on [a, b].
    Each of its panels gets the n-point rule, n the smallest multiple of 4
    up to MAX_GL_NODES whose truncation bound, the sum over its panels of
    (64/15) h M_rho rho^(2 - 2n) / (rho^2 - 1), meets ``tol`` for some rho
    in RHO_GRID; h is a panel's half-length and M_rho bounds |f| over its
    Bernstein ellipse.  ``ellipse_bound`` returns M_rho per panel from the
    midpoints, the ellipse's semi-axes h (rho + 1/rho) / 2 and h (rho -
    1/rho) / 2 rounded up, and the batch index of each panel's integral; a
    non-finite M_rho means the ellipse leaves f's domain.  ``f`` maps a
    1-D float64 node array and the batch index of each node's integral to
    an array of its shape, and is called once per batch.  Panels and nodes
    come integral by integral in batch order, so the nodes of an integral,
    or of a run of integrals, form one contiguous slice.  The radius adds
    the rounding of the weights, the products and the sum, and (b - a)
    ``node_err``, where ``node_err`` bounds the error of each computed f
    value (docs/oscillatory_tails.md, "Certified quadrature").

    Every step that decides bits is elementwise or per integral, so an
    integral gets the same value and radius in any batch.  Raises
    ValueError on a non-finite or empty [a, b], a non-positive ``tol``, or
    a wavelength not positive and finite, before anything is evaluated.
    Then, for the first integral in batch order that fails:
    ArithmeticError when no rho gives a finite bound or ``tol`` needs more
    than MAX_GL_NODES nodes, and ValueError on an f not finite at a node
    (naming its leftmost such panel).
    """
    import numpy as np

    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("integrate_gauss_legendre takes a and b as 1-D arrays of one shape")
    width = b - a
    valid = (a < b) & np.isfinite(width)
    if not valid.all():
        i = int(np.argmin(valid))
        raise ValueError(
            f"integrate_gauss_legendre requires finite a < b, got [{float(a[i])}, {float(b[i])}]"
        )
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    wavelength = np.asarray(wavelength, dtype=np.float64)
    if not ((wavelength > 0.0) & np.isfinite(wavelength)).all():
        raise ValueError("wavelength must be positive and finite")
    count = a.size
    if not count:
        return np.empty(0), np.empty(0)

    # panels, integral by integral: edges a + ((b - a) j) / P, the last one b
    per_integral = np.ceil(width / (8.0 * wavelength))
    panels = per_integral.astype(np.intp)
    ends = panels.cumsum()
    starts = ends - panels
    owner = np.arange(count).repeat(panels)
    j = np.arange(ends[-1], dtype=np.float64) - starts.astype(np.float64).repeat(panels)
    left = a[owner] + width[owner] * j / per_integral[owner]
    right = np.empty_like(left)
    right[:-1] = left[1:]
    right[ends - 1] = b
    mid, half = 0.5 * (left + right), 0.5 * (right - left)

    # each integral's fewest nodes that meet tol, from its own fsum of h M_rho
    rho = np.array(RHO_GRID)[:, None]  # one row per rho
    gl_sizes = np.array(_GL_SIZES)
    up = half * (1.0 + 4.0 * EPS)
    with np.errstate(all="ignore"):  # cosh overflows, logs of negatives
        m_rho = ellipse_bound(
            mid, up * (0.5 * (rho + 1.0 / rho)), up * (0.5 * (rho - 1.0 / rho)), owner
        )
    rows, cuts = (half * m_rho).tolist(), ends.tolist()
    sums = np.array([[math.fsum(row[s:e]) for row in rows] for s, e in zip([0, *cuts], cuts)])
    ok = np.isfinite(sums)
    sums[~ok] = np.inf  # rho whose ellipse leaves f's domain
    bounds = (64.0 / 15.0 * sums)[:, :, None] * rho ** (2 - 2 * gl_sizes) / (rho * rho - 1.0)
    bounds = _ROUND_UP * bounds.min(axis=1)  # for each integral and n, over rho
    fits = bounds <= tol
    pick = fits.argmax(axis=1)
    live = count if fits[:, -1].all() else int(fits[:, -1].argmin())  # before the first failure
    nodes = gl_sizes[pick]
    nodes[live:] = 0

    # each panel's rule: nodes mid + h x, weights h w
    terms = np.empty(0)
    if live:
        per = nodes[owner]
        sizes = sorted(set(nodes[:live].tolist()))
        rules = [gauss_legendre(n) for n in sizes]
        offset = np.zeros(MAX_GL_NODES + 1, dtype=np.intp)
        offset[sizes] = list(itertools.accumulate([0, *sizes[:-1]]))
        node_ends = per.cumsum()
        index = np.arange(node_ends[-1]) + (offset[per] - (node_ends - per)).repeat(per)
        node_half = half.repeat(per)
        x = mid.repeat(per) + node_half * np.concatenate([r[0] for r in rules])[index]
        fx = np.asarray(f(x, owner.repeat(per)), dtype=np.float64)
        if fx.shape != x.shape:
            raise ValueError("integrand must map a 1-D node array to an array of its shape")
        finite = np.isfinite(fx)
        if not finite.all():
            p = int(np.searchsorted(node_ends, finite.argmin(), side="right"))
            raise ValueError(f"integrand not finite on [{float(left[p])}, {float(right[p])}]")
        terms = node_half * np.concatenate([r[1] for r in rules])[index] * fx
    if live < count:
        where = f"[{float(a[live])}, {float(b[live])}]"
        if not ok[live].any():
            raise ArithmeticError(f"no Bernstein ellipse gives a finite bound on {where}")
        raise ArithmeticError(f"tol {tol:g} needs more than {MAX_GL_NODES} nodes on {where}")

    # per integral: the correctly rounded sum of its terms, and sum |terms|
    # over its own slice
    size = panels * nodes
    cuts = size.cumsum().tolist()
    magnitudes, slices = np.abs(terms), list(zip([0, *cuts], cuts))
    values = np.array([math.fsum(terms[s:e].tolist()) for s, e in slices])
    scale = np.array([np.add.reduce(magnitudes[s:e]) for s, e in slices])
    # weights, two products and the sum: (2 eps + GL_WEIGHT_ERR) sum |w h f|,
    # that sum rounded up by its recursive-summation bound
    scale *= 1.0 + size * EPS
    rounding = (2.0 * EPS + GL_WEIGHT_ERR) * scale + width * np.asarray(node_err, dtype=np.float64)
    return values, bounds[np.arange(count), pick] + rounding


def geometric_grid(lo: float, hi: float, n: int) -> list[float]:
    """n >= 1 geometrically spaced points from lo to hi inclusive, both finite
    and positive; for n >= 3, hi / lo must be a finite, normal double."""
    n = _integer("n", n)
    if n < 1:
        raise ValueError("need at least one grid point")
    if not (0.0 < lo < math.inf and 0.0 < hi < math.inf):
        raise ValueError(f"grid ends must be finite and positive, got {lo!r} and {hi!r}")
    if n == 1:
        return [lo]
    ratio = hi / lo
    if n > 2 and not (sys.float_info.min <= ratio < math.inf):  # an interior 0 or inf
        raise ValueError(f"grid ends must have a finite, normal ratio, got {lo!r} and {hi!r}")
    ratio **= 1.0 / (n - 1)
    pts = [lo * ratio**i for i in range(n)]
    pts[-1] = hi
    return pts
