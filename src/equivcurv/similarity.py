"""Approximate structural equivalence: cosine similarity and curvature bounds.

Cosine similarity is irrational in general, so every comparison here works on
the exact triple (eta, d_x, d_y) in squared or cleared form; floating point
only appears in rendered output. The curvature bounds relate sigma to the
Ollivier-Ricci curvature of the pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import Graph, Hypergraph
from .errors import PreconditionError
from .transport import CurvatureResult, SimilarityWalk, _curvature

SQRT_SCALE_BITS = 64  # rational sqrt enclosure denominator 2**64


@dataclass(frozen=True)
class CosineData:
    """Exact ingredients of cosine similarity: common-neighbour count and degrees."""

    eta: int
    d_x: int
    d_y: int

    @property
    def value(self) -> float:
        return self.eta / math.sqrt(self.d_x * self.d_y)

    def is_zero(self):
        return self.eta == 0

    def is_one(self):
        # eta <= min(d_x, d_y), so equality needs eta == d_x == d_y
        return self.eta * self.eta == self.d_x * self.d_y


def cosine_similarity(g_or_h, x, y) -> CosineData:
    """Common-neighbour count and degrees of x, y, kept exact."""
    nx_, ny_ = g_or_h.neighbors(x), g_or_h.neighbors(y)
    dx, dy = g_or_h.degree(x), g_or_h.degree(y)
    if dx == 0 or dy == 0:
        raise PreconditionError("cosine similarity requires positive degrees")
    return CosineData(eta=len(nx_ & ny_), d_x=dx, d_y=dy)


def _sqrt_interval(n: int):
    """Rational enclosure [lo, hi] of sqrt(n) with denominator 2**SQRT_SCALE_BITS."""
    scale = 1 << SQRT_SCALE_BITS
    root = math.isqrt(n * scale * scale)
    lo = Fraction(root, scale)
    if root * root == n * scale * scale:
        return lo, lo
    return lo, Fraction(root + 1, scale)


def _lower_bound(sigma: CosineData) -> Fraction:
    return Fraction(3 * sigma.eta, max(sigma.d_x, sigma.d_y)) - 2


def curvature_bounds(sigma: CosineData, distance: int):
    """Exact lower bound and certified upper bound for the pair's curvature.

    lower = 3*eta/(d_x v d_y) - 2 (exact; uses sigma*sqrt(d_x d_y) = eta).
    upper = 1 - (1 - sigma)/distance, exact when sigma is 0 or 1 and
    otherwise certified from above through a rational sqrt enclosure.
    """
    if distance is None or distance < 1:
        raise PreconditionError("curvature bounds require a finite distance >= 1")
    lower = _lower_bound(sigma)
    if sigma.is_zero():
        upper = 1 - Fraction(1, distance)
    elif sigma.is_one():
        upper = Fraction(1)
    else:
        # sigma <= eta / sqrt_lo, so this over-estimates the true bound.
        sqrt_lo, _ = _sqrt_interval(sigma.d_x * sigma.d_y)
        upper = 1 - (1 - Fraction(sigma.eta) / sqrt_lo) / distance
    return lower, upper


def bounds_hold(sigma: CosineData, distance: int, kappa: Fraction) -> bool:
    """Exact check of lower <= kappa <= upper, with no interval slack.

    The upper comparison kappa <= 1 - (1 - sigma)/d is cleared to
    sigma >= 1 - d(1 - kappa) and squared, so the decision is rational.
    """
    if kappa < _lower_bound(sigma):
        return False
    threshold = 1 - distance * (1 - kappa)  # sigma must be >= this
    if threshold <= 0:
        return True
    return Fraction(sigma.eta) ** 2 >= threshold**2 * sigma.d_x * sigma.d_y


@dataclass(frozen=True)
class SimilarityReport:
    x: str
    y: str
    eta: int
    d_x: int
    d_y: int
    distance: int | None
    kappa: Fraction | None
    lower_bound: Fraction | None
    upper_bound: Fraction | None
    fully_dissimilar: bool
    curvature: CurvatureResult | None = None


def similarity_report(
    g_or_h, x, y, walk: SimilarityWalk = SimilarityWalk.GRAPH
) -> SimilarityReport:
    """Combined eta/sigma/distance/curvature/bounds report for a vertex pair.

    Curvature is computed whenever the pair shares a component; the bounds
    are only defined for the graph walk. fully_dissimilar means the
    shortest-path distance exceeds 2 (no common neighbours).
    """
    if x == y:
        raise PreconditionError("similarity report requires two distinct vertices")
    if walk is SimilarityWalk.GRAPH:
        if not isinstance(g_or_h, Graph):
            raise PreconditionError("graph walk requires a graph input")
    elif not isinstance(g_or_h, Hypergraph):
        raise PreconditionError("EN/EE walks require a hypergraph input")
    sigma = cosine_similarity(g_or_h, x, y)
    distance = g_or_h.distance(x, y)
    fully_dissimilar = distance is None or distance > 2
    result = None if distance is None else _curvature(g_or_h, x, y, walk, distance)
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
