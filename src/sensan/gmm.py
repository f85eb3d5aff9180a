"""GMM functionals on the nonparametric model.

theta_W(P) minimizes Pg(theta)' W Pg(theta) over a box. The influence
function of the minimizer, valid also off the correctly specified model,
is

    psi~_W = -B^{-1} (J(x)' c + G' W g(x)),
    B = sum_i c_i P[Hess g_i] + G' W G,       c = W Pg,

with G = P dg/dtheta and J(x) the pointwise Jacobian; B is half the
Hessian of the criterion. When Pg = 0 the curvature terms drop and the
familiar -(G'WG)^{-1} G'W g remains.

On the correctly specified model the tangent set restricts, and scores
decompose through the whitened moment space: the projection onto the
model tangent set, the efficient influence function, and the
out-of-model directions zeta all live here. Moment functions are
whitelisted expressions so every theta-derivative is exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SensanError, nested
from .expressions import as_array_function, parse_whitelisted
from .model_space import GridDensity, integrate
from .tangent import TangentVector, inner_p

__all__ = [
    "MomentSpec",
    "GmmSolution",
    "moment_spec",
    "gmm_solve",
    "gmm_influence",
    "gmm_efficient_influence",
    "gmm_project_tangent",
    "gmm_out_direction",
]

_FOC_TOL = 1e-8       # acceptance threshold on the criterion gradient
_FOC_TARGET = 1e-13   # the solver aims lower so downstream gates have slack
_SPECIFIED_TOL = 1e-8


@dataclass(frozen=True)
class MomentSpec:
    """Moment conditions g: X x Theta -> R^r with exact theta-derivatives.

    g_fns[i](x..., th...) evaluates moment i; jac_fns[i][j] its
    d/dtheta_j; hess_fns[i][j][k] the second derivative. All compiled
    from whitelisted polynomial expressions.
    """

    texts: tuple[str, ...]
    data_vars: tuple[str, ...]
    theta_dim: int
    bounds: tuple[tuple[float, float], ...]
    g_fns: tuple
    jac_fns: tuple
    hess_fns: tuple

    @property
    def moment_dim(self) -> int:
        return len(self.texts)


def moment_spec(g_texts, theta_dim: int, bounds,
                data_vars: tuple[str, ...] = ("x",)) -> MomentSpec:
    """Compile moment conditions; a problem names the config key that
    carries it: theta_dim, bounds or moments."""
    g_texts = tuple(g_texts)
    bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
    if theta_dim < 1:
        raise ConfigError("theta_dim", "theta_dim must be at least 1")
    if len(bounds) != theta_dim:
        raise ConfigError("bounds", "bounds box must have one interval per parameter")
    if any(hi <= lo for lo, hi in bounds):
        raise ConfigError("bounds", "bounds intervals must be nonempty")
    if len(g_texts) < theta_dim:
        raise ConfigError("moments", "need at least as many moments as parameters")
    th_names = tuple(f"th{j}" for j in range(theta_dim))
    variables = data_vars + th_names
    g_fns, jac_fns, hess_fns = [], [], []
    for text in g_texts:
        with nested("moments"):
            expr = parse_whitelisted(text, variables)
        g_fns.append(as_array_function(expr, variables))
        jrow, hrow = [], []
        for tj in th_names:
            dj = expr.diff(tj)
            jrow.append(as_array_function(dj, variables))
            hrow.append(tuple(as_array_function(dj.diff(tk), variables)
                              for tk in th_names))
        jac_fns.append(tuple(jrow))
        hess_fns.append(tuple(hrow))
    return MomentSpec(texts=g_texts, data_vars=data_vars, theta_dim=theta_dim,
                      bounds=bounds, g_fns=tuple(g_fns), jac_fns=tuple(jac_fns),
                      hess_fns=tuple(hess_fns))


@dataclass(frozen=True)
class GmmSolution:
    """An accepted GMM minimizer with the matrices the theory runs on."""

    theta: np.ndarray
    W: np.ndarray
    Pg: np.ndarray
    G: np.ndarray
    Omega: np.ndarray
    criterion: float

    def __post_init__(self):
        grad = 2.0 * self.G.T @ self.W @ self.Pg
        if float(np.linalg.norm(grad)) >= _FOC_TOL:
            raise SensanError(
                f"criterion gradient norm {np.linalg.norm(grad):.3g} fails "
                "the first-order condition")
        if np.max(np.abs(self.Omega - self.Omega.T)) > 1e-10:
            raise SensanError("moment second-moment matrix is not symmetric")
        if float(np.linalg.eigvalsh(self.Omega)[0]) <= 1e-10:
            raise SensanError("moment second-moment matrix is not "
                              "positive-definite")

    @property
    def correctly_specified(self) -> bool:
        return float(np.linalg.norm(self.Pg)) < _SPECIFIED_TOL


def _node_args(P: GridDensity, spec: MomentSpec):
    if len(spec.data_vars) != P.grid.ndim:
        raise SensanError("moment data variables do not match the grid "
                          "dimension")
    return P.grid.mesh()


def _moment_arrays(P: GridDensity, spec: MomentSpec, theta) -> list[np.ndarray]:
    args = _node_args(P, spec)
    return [np.broadcast_to(np.asarray(fn(*args, *theta), dtype=float),
                            P.grid.shape)
            for fn in spec.g_fns]


def _solution_matrices(P: GridDensity, spec: MomentSpec, theta):
    args = _node_args(P, spec)
    g_arrays = _moment_arrays(P, spec, theta)
    Pg = np.array([integrate(a, P) for a in g_arrays])
    G = np.array([[integrate(np.broadcast_to(
        np.asarray(spec.jac_fns[i][j](*args, *theta), dtype=float),
        P.grid.shape), P)
        for j in range(spec.theta_dim)] for i in range(spec.moment_dim)])
    return g_arrays, Pg, G


def _criterion(P: GridDensity, spec: MomentSpec, W: np.ndarray, theta) -> float:
    _, Pg, _ = _solution_matrices(P, spec, theta)
    return float(Pg @ W @ Pg)


def _check_weight(W, r: int) -> np.ndarray:
    W = np.asarray(W, dtype=float)
    if W.shape != (r, r):
        raise ConfigError("weight", f"weight matrix must be {r}x{r}")
    if np.max(np.abs(W - W.T)) > 1e-12 * (1.0 + np.max(np.abs(W))):
        raise ConfigError("weight", "weight matrix must be symmetric")
    if float(np.linalg.eigvalsh(W)[0]) <= 0.0:
        raise ConfigError("weight", "weight matrix must be positive-definite")
    return W


def _gauss_newton(P: GridDensity, spec: MomentSpec, W: np.ndarray, start):
    """One local solve. Returns (theta, criterion) or None."""
    lo = np.array([b[0] for b in spec.bounds])
    hi = np.array([b[1] for b in spec.bounds])
    theta = np.clip(np.asarray(start, dtype=float), lo, hi)
    _, Pg, G = _solution_matrices(P, spec, theta)
    crit = float(Pg @ W @ Pg)
    def accept():
        grad = 2.0 * G.T @ W @ Pg
        if float(np.linalg.norm(grad)) < _FOC_TOL:
            return theta, crit
        return None

    for _ in range(200):
        grad = 2.0 * G.T @ W @ Pg
        if float(np.linalg.norm(grad)) < _FOC_TARGET:
            return theta, crit
        H = G.T @ W @ G
        try:
            step = -np.linalg.solve(H, G.T @ W @ Pg)
        except np.linalg.LinAlgError:
            return accept()
        t = 1.0
        while t > 1e-12:
            cand = np.clip(theta + t * step, lo, hi)
            _, Pg_c, G_c = _solution_matrices(P, spec, cand)
            crit_c = float(Pg_c @ W @ Pg_c)
            if crit_c < crit:
                theta, Pg, G, crit = cand, Pg_c, G_c, crit_c
                break
            t *= 0.5
        else:
            return accept()
    return accept()


def gmm_solve(P: GridDensity, spec: MomentSpec, W) -> GmmSolution:
    """Minimize the GMM criterion by multi-start Gauss-Newton.

    W is an r x r symmetric positive-definite matrix or the string
    "optimal" for the two-step recipe (identity solve, then W set to the
    inverse of the moment second-moment matrix at the first-step theta).
    """
    if isinstance(W, str):
        if W != "optimal":
            raise SensanError(f"unknown weight matrix spec '{W}'")
        first = gmm_solve(P, spec, np.eye(spec.moment_dim))
        return gmm_solve(P, spec, np.linalg.inv(first.Omega))
    W = _check_weight(W, spec.moment_dim)
    starts = itertools.product(
        *([lo + f * (hi - lo) for f in (0.25, 0.5, 0.75)]
          for lo, hi in spec.bounds))
    found: list[tuple[np.ndarray, float]] = []
    for start in starts:
        res = _gauss_newton(P, spec, W, start)
        if res is not None:
            found.append(res)
    if not found:
        raise SensanError("gmm solve failed: no start satisfied the "
                          "first-order condition")
    found.sort(key=lambda tc: (tc[1], tuple(tc[0])))
    theta, crit = found[0]
    for other, ocrit in found[1:]:
        if np.max(np.abs(other - theta)) > 1e-4 and ocrit - crit < 1e-10:
            raise SensanError(
                "non-unique minimizer: criterion ties at "
                f"theta = {theta.tolist()} and {other.tolist()}")
    g_arrays, Pg, G = _solution_matrices(P, spec, theta)
    Omega = np.empty((spec.moment_dim, spec.moment_dim))
    for i in range(spec.moment_dim):
        for j in range(i, spec.moment_dim):
            Omega[i, j] = Omega[j, i] = integrate(g_arrays[i] * g_arrays[j], P)
    return GmmSolution(theta=theta, W=W, Pg=Pg, G=G, Omega=Omega,
                       criterion=crit)


# --- influence functions ------------------------------------------------------------

def gmm_influence(P: GridDensity, spec: MomentSpec,
                  sol: GmmSolution) -> list[TangentVector]:
    """Misspecification-robust influence functions of the p components.

    Includes the moment-curvature terms; they carry the weight c = W Pg
    and vanish on the correctly specified model.
    """
    args = _node_args(P, spec)
    theta = sol.theta
    p, r = spec.theta_dim, spec.moment_dim
    c = sol.W @ sol.Pg
    B = sol.G.T @ sol.W @ sol.G
    for i in range(r):
        hess_means = np.array(
            [[integrate(np.broadcast_to(np.asarray(
                spec.hess_fns[i][j][k](*args, *theta), dtype=float),
                P.grid.shape), P)
              for k in range(p)] for j in range(p)])
        B = B + c[i] * hess_means
    if np.linalg.cond(B) >= 1e10:
        raise SensanError("local identification failure: singular "
                          "criterion curvature")
    g_arrays = _moment_arrays(P, spec, theta)
    rhs = []
    for a in range(p):
        acc = np.zeros(P.grid.shape)
        for i in range(r):
            jac_ia = np.broadcast_to(np.asarray(
                spec.jac_fns[i][a](*args, *theta), dtype=float), P.grid.shape)
            acc = acc + c[i] * jac_ia
            acc = acc + (sol.G.T @ sol.W)[a, i] * g_arrays[i]
        rhs.append(acc)
    Binv = np.linalg.inv(B)
    return [TangentVector(P, -sum(Binv[a, b] * rhs[b] for b in range(p)))
            for a in range(p)]


def gmm_efficient_influence(P: GridDensity, spec: MomentSpec,
                            sol: GmmSolution) -> list[TangentVector]:
    """Efficient influence functions -(G' O^-1 G)^-1 G' O^-1 g."""
    g_arrays = _moment_arrays(P, spec, sol.theta)
    A = np.linalg.solve(sol.G.T @ np.linalg.solve(sol.Omega, sol.G),
                        sol.G.T @ np.linalg.inv(sol.Omega))
    return [TangentVector(
        P, -sum(A[a, i] * g_arrays[i] for i in range(spec.moment_dim)))
        for a in range(spec.theta_dim)]


def _omega_inv_sqrt(Omega: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(Omega)
    return V @ np.diag(1.0 / np.sqrt(np.maximum(w, 1e-12))) @ V.T


def _perp_projector(sol: GmmSolution) -> tuple[np.ndarray, np.ndarray]:
    """Whitening root and the projector onto the orthocomplement of the
    whitened moment Jacobian."""
    S = _omega_inv_sqrt(sol.Omega)
    SG = S @ sol.G
    r = sol.Omega.shape[0]
    proj = np.eye(r) - SG @ np.linalg.solve(SG.T @ SG, SG.T)
    return S, proj


def _require_specified(sol: GmmSolution) -> None:
    if not sol.correctly_specified:
        raise SensanError(
            "tangent restriction undefined off P0: moments do not vanish "
            f"(|Pg| = {float(np.linalg.norm(sol.Pg)):.3g})")


def gmm_project_tangent(P: GridDensity, spec: MomentSpec, sol: GmmSolution,
                        xi: TangentVector) -> TangentVector:
    """Projection of a score onto the tangent set of the correctly
    specified model: subtract the component along the whitened moments
    that is not explained by the moment Jacobian."""
    _require_specified(sol)
    S, proj = _perp_projector(sol)
    g_arrays = _moment_arrays(P, spec, sol.theta)
    g_t = [TangentVector(P, a) for a in g_arrays]
    cov = np.array([inner_p(xi, gt) for gt in g_t])  # P[xi g']
    coef = cov @ S.T @ proj @ S
    out_smooth = xi.smooth - sum(coef[i] * g_arrays[i]
                                 for i in range(spec.moment_dim))
    return TangentVector(P, out_smooth, terms=xi.terms)


def gmm_out_direction(P: GridDensity, spec: MomentSpec, sol: GmmSolution,
                      alpha) -> TangentVector:
    """A direction pointing outside the correctly specified model:
    alpha' applied to the whitened moments after removing the Jacobian
    span. The efficient functional has zero sensitivity along it."""
    _require_specified(sol)
    if spec.moment_dim == spec.theta_dim:
        raise SensanError("model not over-identified: no out-of-model "
                          "directions exist")
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (spec.moment_dim,):
        raise SensanError("alpha must have one entry per moment")
    S, proj = _perp_projector(sol)
    coef = alpha @ proj @ S
    g_arrays = _moment_arrays(P, spec, sol.theta)
    return TangentVector(
        P, sum(coef[i] * g_arrays[i] for i in range(spec.moment_dim)))
