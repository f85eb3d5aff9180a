"""Tangent space of mean-zero directions and the policy geometry on it.

A tangent vector at P is a mean-zero, square-integrable function of the
data, represented by node samples. Quantile influence functions carry a
jump at the quantile, so a TangentVector, like a GridDensity, is a
PiecewiseField (a smooth part plus explicit cut terms) and every inner
product here splits the quadrature at the jump locations.

Two metrics are supported on the tangent space, each a class with the
methods `apply`, `inverse`, `inner` and `causes`. The information metric is
the plain L2(P) inner product and its gradient operator is the literal
identity. A policy metric is the L2(Q) inner product for a policy measure
Q equivalent to P with bounded ratio; its gradient operator is the
multiplication operator

    apply:   v -> (v - P(v r) / P(r)) * r,      r = dP/dQ,
    inverse: u -> u / r - Q(u),

which maps influence functions to policy gradients. Both directions
re-center the output under P, since multiplication by the ratio loses
exact mean-zeroness to quadrature noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SensanError
from .model_space import (RATIO_CLAMP, CutTerm, GridDensity,
                          LikelihoodRatio, PiecewiseField, likelihood_ratio)

__all__ = [
    "TangentVector",
    "InformationMetric",
    "PolicyMetric",
    "Metric",
    "information_metric",
    "policy_metric",
    "inner",
    "grad_op_apply",
    "grad_op_inverse",
]


class TangentVector(PiecewiseField):
    """Mean-zero direction at a base density: a field centered under it.

    Construction centers the values under the base unless the caller
    certifies them centered already (internal use). The arithmetic below
    keeps the base and does not re-center.
    """

    def __init__(self, base: GridDensity, values: np.ndarray, *,
                 terms: tuple[CutTerm, ...] = (), _centered: bool = False):
        smooth = np.asarray(values, dtype=float)
        terms = tuple(terms)
        if smooth.shape != base.grid.shape:
            raise SensanError("tangent values do not match the grid shape")
        if not np.all(np.isfinite(smooth)) or not all(
                np.all(np.isfinite(t.samples)) for t in terms):
            raise SensanError("tangent values must be finite")
        if not _centered:
            smooth = smooth - PiecewiseField(
                base.grid, smooth, terms).times(base).quad()
        super().__init__(base.grid, smooth, terms)
        object.__setattr__(self, "base", base)

    def mean_under_base(self) -> float:
        return self.times(self.base).quad()

    def _tangent(self, f: PiecewiseField) -> "TangentVector":
        return TangentVector(self.base, f.smooth, terms=f.terms, _centered=True)

    def shift(self, c: float) -> "TangentVector":
        return TangentVector(self.base, self.smooth + c, terms=self.terms,
                             _centered=True)

    def scale(self, a: np.ndarray | float) -> "TangentVector":
        """Pointwise product with a scalar or a smooth node array."""
        return self._tangent(super().scale(a))

    def add(self, other: "TangentVector") -> "TangentVector":
        _check_same_base(self, other)
        return self._tangent(super().add(other))


def _same_base(P: GridDensity, Q: GridDensity) -> bool:
    """One base density: the same object, else the same grid geometry and
    equal node values."""
    return P is Q or (P.grid.same_as(Q.grid)
                      and np.array_equal(P.values, Q.values))


def _check_same_base(u: TangentVector, v: TangentVector) -> None:
    if not _same_base(u.base, v.base):
        raise SensanError("mismatched bases for tangent vectors")


@dataclass(frozen=True)
class InformationMetric:
    """The information metric, L2(P): its gradient operator is the
    literal identity, and a dual-path failure has no cause to name."""

    kind = label = "information"

    def apply(self, v: TangentVector) -> TangentVector:
        return v

    inverse = apply     # the identity is its own inverse

    def inner(self, u: TangentVector, v: TangentVector) -> float:
        return inner_p(u, v)

    def causes(self, base: GridDensity) -> str:
        return ""


@dataclass(frozen=True)
class PolicyMetric:
    """The L2(Q) metric of a policy measure Q, carrying the ratio dP/dQ."""

    Q: GridDensity
    ratio: LikelihoodRatio
    label: str = "L2(Q)"
    kind = "policy"

    def __post_init__(self):
        if self.Q is None or self.ratio is None:
            raise SensanError("policy metric needs a policy measure and a "
                              "likelihood ratio")

    def apply(self, v: TangentVector) -> TangentVector:
        r = self.ratio.ratio_values
        # v r is an intermediate, not a direction: plain field arithmetic
        pvr = PiecewiseField.scale(v, r).times(v.base).quad()
        pr = v.base.quad(r)
        out = v.shift(-pvr / pr).scale(r)
        return out.shift(-out.mean_under_base())

    def inverse(self, u: TangentVector) -> TangentVector:
        qu = u.times(self.Q).quad()
        out = u.scale(1.0 / self.ratio.ratio_values).shift(-qu)
        return out.shift(-out.mean_under_base())

    def inner(self, u: TangentVector, v: TangentVector) -> float:
        _check_same_base(u, v)
        return u.times(v).times(self.Q).quad()

    def causes(self, base: GridDensity) -> str:
        """A dual-path failure's causes: a clamped ratio, and jumps of base."""
        cause = ""
        if self.ratio.clamped:
            m, M = RATIO_CLAMP
            cause = (f"; the likelihood ratio dP/dQ was clamped into "
                     f"[{m:g}, {M:g}]")
        if base.terms:
            cause += ("; P has jumps, and the likelihood ratio dP/dQ, "
                      "a quotient of node values, turns each into a "
                      "ramp across one cell")
        return cause


Metric = InformationMetric | PolicyMetric


def information_metric() -> InformationMetric:
    return InformationMetric()


def policy_metric(P: GridDensity, Q: GridDensity,
                  label: str | None = None) -> PolicyMetric:
    return PolicyMetric(Q, likelihood_ratio(P, Q), label or "L2(Q)")


def inner(u: TangentVector, v: TangentVector, metric: Metric) -> float:
    """Metric inner product: L2(P) under information, L2(Q) under policy."""
    return metric.inner(u, v)


def inner_p(u: TangentVector, v: TangentVector) -> float:
    """Plain L2(P) pairing, the information inner product."""
    _check_same_base(u, v)
    return u.times(v).times(u.base).quad()


def grad_op_apply(v: TangentVector, metric: Metric) -> TangentVector:
    """Adjoint gradient operator for the metric. Applied to an influence
    function it gives the metric gradient of the functional."""
    return metric.apply(v)


def grad_op_inverse(u: TangentVector, metric: Metric) -> TangentVector:
    """Inverse of `grad_op_apply`."""
    return metric.inverse(u)
