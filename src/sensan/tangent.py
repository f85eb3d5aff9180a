"""Tangent space of mean-zero directions and the policy geometry on it.

A tangent vector at P is a mean-zero, square-integrable function of the
data, represented by node samples. Quantile influence functions carry a
jump at the quantile, so a TangentVector, like a GridDensity, is a
PiecewiseField (a smooth part plus explicit cut terms) and every inner
product here splits the quadrature at the jump locations.

Two metrics are supported on the tangent space. The information metric is
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
from .model_space import (CutTerm, GridDensity, LikelihoodRatio,
                          PiecewiseField, likelihood_ratio)

__all__ = [
    "TangentVector",
    "PolicyMetric",
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


def _check_same_base(u: TangentVector, v: TangentVector) -> None:
    if u.base is v.base:
        return
    if not u.grid.same_as(v.grid) or not np.array_equal(u.base.values, v.base.values):
        raise SensanError("mismatched bases for tangent vectors")


@dataclass(frozen=True)
class PolicyMetric:
    """Metric on the tangent space: either the information metric or the
    L2(Q) metric of a policy measure, carrying Q and the ratio dP/dQ."""

    kind: str                      # "information" | "policy"
    Q: GridDensity | None = None
    ratio: LikelihoodRatio | None = None
    label: str = "information"

    def __post_init__(self):
        if self.kind not in ("information", "policy"):
            raise SensanError(f"unknown metric kind '{self.kind}'")
        if self.kind == "policy" and (self.Q is None or self.ratio is None):
            raise SensanError("policy metric needs a policy measure and a "
                              "likelihood ratio")


def information_metric() -> PolicyMetric:
    return PolicyMetric(kind="information")


def policy_metric(P: GridDensity, Q: GridDensity,
                  label: str | None = None) -> PolicyMetric:
    ratio = likelihood_ratio(P, Q)
    return PolicyMetric(kind="policy", Q=Q, ratio=ratio,
                        label=label or "L2(Q)")


def inner(u: TangentVector, v: TangentVector, metric: PolicyMetric) -> float:
    """Metric inner product: L2(P) under information, L2(Q) under policy."""
    if metric.kind == "information":
        return inner_p(u, v)
    _check_same_base(u, v)
    return u.times(v).times(metric.Q).quad()


def inner_p(u: TangentVector, v: TangentVector) -> float:
    """Plain L2(P) pairing, the information inner product."""
    _check_same_base(u, v)
    return u.times(v).times(u.base).quad()


def grad_op_apply(v: TangentVector, metric: PolicyMetric) -> TangentVector:
    """Adjoint gradient operator for the metric. Applied to an influence
    function it gives the metric gradient of the functional.

    Information: the literal identity. Policy: multiply by r = dP/dQ after
    subtracting the constant P(v r) / P(r), then re-center under P.
    """
    if metric.kind == "information":
        return v
    r = metric.ratio.ratio_values
    # v r is an intermediate, not a direction: plain field arithmetic
    pvr = PiecewiseField.scale(v, r).times(v.base).quad()
    pr = v.base.quad(r)
    out = v.shift(-pvr / pr).scale(r)
    return out.shift(-out.mean_under_base())


def grad_op_inverse(u: TangentVector, metric: PolicyMetric) -> TangentVector:
    """Inverse of `grad_op_apply`: u / r - Q(u), re-centered under P."""
    if metric.kind == "information":
        return u
    qu = u.times(metric.Q).quad()
    out = u.scale(metric.ratio.reciprocal_values()).shift(-qu)
    return out.shift(-out.mean_under_base())
