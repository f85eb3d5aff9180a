"""Reference checks. Each raises GateFailure naming what missed and by how
much; a job whose check raises counts as failed."""

from __future__ import annotations

import math

import numpy as np


class GateFailure(Exception):
    """An output missed its reference."""


def close(what: str, value: float, ref: float, tol: float,
          relative: bool = False) -> None:
    """|value - ref| <= tol, or <= tol * (1 + |ref|) when relative."""
    bound = tol * (1.0 + abs(ref)) if relative else tol
    err = abs(float(value) - float(ref))
    if not err <= bound:
        raise GateFailure(f"{what}: {value!r} vs reference {ref!r}, "
                          f"error {err:.3g} > {bound:.3g}")


def below(what: str, value: float, limit: float) -> None:
    if not float(value) < limit:
        raise GateFailure(f"{what}: {value!r} not below {limit!r}")


def inside(what: str, value: float, lo: float, hi: float) -> None:
    if not lo < float(value) < hi:
        raise GateFailure(f"{what}: {value!r} outside ({lo!r}, {hi!r})")


def sup_error(what: str, values, ref, keep, tol: float) -> float:
    """Largest |values - ref| over the nodes in `keep`, which must not be
    empty, checked against tol."""
    keep = np.asarray(keep, dtype=bool)
    if not keep.any():
        raise GateFailure(f"{what}: no node left outside the exclusion zones")
    err = float(np.max(np.abs(np.asarray(values) - np.asarray(ref))[keep]))
    if not err < tol:
        raise GateFailure(f"{what}: sup error {err:.3g} >= {tol:.3g}")
    return err


def rmse_ratios(estimates: dict[int, list[float]], population: float
                ) -> list[float]:
    """RMSE(n_{k+1}) / RMSE(n_k) over increasing sample sizes."""
    sizes = sorted(estimates)
    rmse = [math.sqrt(float(np.mean((np.asarray(estimates[n]) - population) ** 2)))
            for n in sizes]
    return [b / a for a, b in zip(rmse, rmse[1:])]
