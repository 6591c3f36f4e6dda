"""Approximate structural equivalence: cosine similarity and curvature bounds.

Cosine similarity is irrational in general, so every comparison here works on
the exact triple (eta, d_x, d_y) in squared or cleared form; floating point
only appears in rendered output. The curvature bounds relate sigma to the
Ollivier-Ricci curvature of the pair. `bounds_hold` decides them by integer
cross-multiplication on kappa's numerator and denominator, and
`curvature_bounds` builds each bound as one `Fraction` of two integers, so
no `Fraction` arithmetic runs per pair.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .errors import PreconditionError
from .transport import SimilarityWalk, _Batch, _check_walk

SQRT_SCALE_BITS = 64  # rational sqrt enclosure denominator 2**64


class CosineData(namedtuple("CosineData", "eta d_x d_y")):
    """Exact ingredients of cosine similarity: common and own neighbour counts."""

    __slots__ = ()

    @property
    def value(self) -> float:
        return self.eta / math.sqrt(self.d_x * self.d_y)

    def is_zero(self):
        return self.eta == 0

    def is_one(self):
        # eta <= min(d_x, d_y), so equality needs eta == d_x == d_y
        return self.eta * self.eta == self.d_x * self.d_y


def cosine_similarity(g_or_h, x, y) -> CosineData:
    """eta = |N(x) & N(y)|, d_x = |N(x)|, d_y = |N(y)| (not a hypergraph's degree)."""
    nx_, ny_ = g_or_h.neighbors(x), g_or_h.neighbors(y)
    if not nx_ or not ny_:
        raise PreconditionError("cosine similarity requires positive degrees")
    return CosineData(eta=len(nx_ & ny_), d_x=len(nx_), d_y=len(ny_))


def curvature_bounds(sigma: CosineData, distance: int):
    """Exact lower bound and certified upper bound for the pair's curvature.

    lower = 3*eta/(d_x v d_y) - 2 (exact; uses sigma*sqrt(d_x d_y) = eta).
    upper = 1 - (1 - sigma)/distance, exact when sigma is 0 or 1 and
    otherwise certified from above through a rational sqrt enclosure:
    r = isqrt(d_x d_y 2**128) gives r/2**64 <= sqrt(d_x d_y), so sigma <=
    eta 2**64/r. Each bound is one Fraction of two integers.
    """
    if distance is None or distance < 1:
        raise PreconditionError("curvature bounds require a finite distance >= 1")
    eta, d_x, d_y = sigma.eta, sigma.d_x, sigma.d_y
    m = max(d_x, d_y)
    lower = Fraction(3 * eta - 2 * m, m)
    if sigma.is_zero():
        upper = Fraction(distance - 1, distance)
    elif sigma.is_one():
        upper = Fraction(1)
    else:
        r = math.isqrt(d_x * d_y << 2 * SQRT_SCALE_BITS)
        upper = Fraction((distance - 1) * r + (eta << SQRT_SCALE_BITS), distance * r)
    return lower, upper


def bounds_hold(sigma: CosineData, distance: int, kappa: Fraction) -> bool:
    """Exact check of lower <= kappa <= upper, with no interval slack.

    With kappa = p/q and m = d_x v d_y, the lower bound holds iff
    p*m >= (3*eta - 2*m)*q. The upper comparison kappa <= 1 - (1 - sigma)/d
    is cleared to sigma >= t/q with t = q - d(q - p); it holds when t <= 0,
    and otherwise iff eta**2 q**2 >= t**2 d_x d_y. Integers throughout.
    """
    eta, d_x, d_y = sigma.eta, sigma.d_x, sigma.d_y
    p, q = kappa.numerator, kappa.denominator
    m = max(d_x, d_y)
    if p * m < (3 * eta - 2 * m) * q:
        return False
    t = q - distance * (q - p)
    return t <= 0 or eta * eta * q * q >= t * t * d_x * d_y


class SimilarityReport(namedtuple(
    "SimilarityReport",
    "x y eta d_x d_y distance kappa lower_bound upper_bound fully_dissimilar curvature",
    defaults=(None,),
)):
    __slots__ = ()


def similarity_reports(g_or_h, pairs, walk: SimilarityWalk = SimilarityWalk.GRAPH):
    """`similarity_report` of every vertex pair in `pairs`, yielded in order.

    Each pair raises as a one-pair call would; the first failing pair in list
    order raises and ends the run. The distances and curvatures come from one
    batch of shared measures and BFS rows (see `transport.curvatures`).
    """
    batch = _Batch(g_or_h, pairs, walk)
    for x, y in batch:
        yield _report(batch, x, y)


def similarity_report(
    g_or_h, x, y, walk: SimilarityWalk = SimilarityWalk.GRAPH
) -> SimilarityReport:
    """Combined eta/sigma/distance/curvature/bounds report for a vertex pair.

    Curvature is computed whenever the pair shares a component; the bounds
    are only defined for the graph walk. fully_dissimilar means the
    shortest-path distance exceeds 2 (no common neighbours).
    """
    return next(similarity_reports(g_or_h, [(x, y)], walk))


def _report(batch, x, y) -> SimilarityReport:
    g_or_h, walk = batch.structure, batch.walk
    if x == y:
        raise PreconditionError("similarity report requires two distinct vertices")
    _check_walk(g_or_h, walk)
    sigma = cosine_similarity(g_or_h, x, y)
    distance = batch.distance(x, y)
    fully_dissimilar = distance is None or distance > 2
    result = None if distance is None else batch.curvature(x, y, distance)
    lower = upper = None
    if walk is SimilarityWalk.GRAPH and distance is not None:
        lower, upper = curvature_bounds(sigma, distance)
    return SimilarityReport(
        x=x,
        y=y,
        eta=sigma.eta,
        d_x=sigma.d_x,
        d_y=sigma.d_y,
        distance=distance,
        kappa=None if result is None else result.kappa,
        lower_bound=lower,
        upper_bound=upper,
        fully_dissimilar=fully_dissimilar,
        curvature=result,
    )
