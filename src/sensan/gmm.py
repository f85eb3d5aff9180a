"""GMM functionals on the nonparametric model.

theta_W(P) minimizes Pg(theta)' W Pg(theta) over a box. The influence
function of the minimizer, valid also off the correctly specified model,
is

    psi~_W = -B^{-1} (J(x)' c + G' W g(x)),
    B = sum_i c_i P[Hess g_i] + G' W G,       c = W Pg,

with G = P dg/dtheta and J(x) the pointwise Jacobian; B is half the
Hessian of the criterion. When Pg = 0 the curvature terms drop and the
familiar -(G'WG)^{-1} G'W g remains.

Moment functions are whitelisted polynomials, so Pg, G and P[Hess g_i]
are theta-polynomials in data moments P[x^alpha] integrated once per
solve, for both steps of the "optimal" weight. The solver takes Newton
steps with the exact Hessian B (Gauss-Newton where B is not
positive-definite) and no grid pass, then checks by quadrature. A solution
keeps the node values of g and dg/dtheta at theta as (r, *grid) and
(p, r, *grid) arrays, Pg, G and Omega by one quadrature per entry, and
P[Hess g_i]; the influence functions below only read it.

On the correctly specified model every tangent-set formula derives from
the efficient map A = (G'O^-1 G)^-1 G'O^-1, O = Omega: the efficient
influence functions are -A g, the projection removes P[xi g'] O^-1
(I - G A) g from a score xi, and the out-of-model directions a'g with
G'a = 0 are alpha' O^-1/2 (I - G A) g.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SensanError, nested
from .expressions import Poly, _floats, as_array_function, parse_whitelisted
from .model_space import GridDensity, PiecewiseField
from .tangent import TangentVector

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
    """Moment conditions g: X x Theta -> R^r: polys[i] is moment i, exact
    over the data variables followed by th0, th1, ..."""

    texts: tuple[str, ...]
    data_vars: tuple[str, ...]
    theta_dim: int
    bounds: tuple[tuple[float, float], ...]
    polys: tuple[Poly, ...]

    @property
    def moment_dim(self) -> int:
        return len(self.texts)

    def derivative(self, i: int, *js: int) -> Poly:
        """Moment i differentiated once in th_j for every j in `js`."""
        q = self.polys[i]
        for j in js:
            q = q.diff(f"th{j}")
        return q


def moment_spec(g_texts, theta_dim: int, bounds,
                data_vars: tuple[str, ...] = ("x",)) -> MomentSpec:
    """Parse moment conditions; a problem names the config key that
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
    variables = data_vars + tuple(f"th{j}" for j in range(theta_dim))
    with nested("moments"):
        polys = tuple(parse_whitelisted(text, variables) for text in g_texts)
    return MomentSpec(texts=g_texts, data_vars=data_vars, theta_dim=theta_dim,
                      bounds=bounds, polys=polys)


@dataclass(frozen=True, eq=False)
class GmmSolution:
    """An accepted GMM minimizer with the matrices the theory runs on, the
    node arrays g[i] = g_i, shape (r, *grid), and jac[j, i] = dg_i/dth_j,
    shape (p, r, *grid), and H[i] = P[Hess g_i]."""

    theta: np.ndarray
    W: np.ndarray
    Pg: np.ndarray
    G: np.ndarray
    Omega: np.ndarray
    criterion: float
    g: np.ndarray = field(repr=False)
    jac: np.ndarray = field(repr=False)
    H: np.ndarray = field(repr=False)

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


def _node_arrays(P: GridDensity, spec: MomentSpec, theta,
                 *js: int) -> np.ndarray:
    """(r, *grid) node values at theta of the moments differentiated in th_js."""
    args = P.grid.mesh()
    polys = [spec.derivative(i, *js) for i in range(spec.moment_dim)]
    return np.array([as_array_function(q, q.variables)(*args, *theta)
                     for q in polys])


def _theta_polys(P: GridDensity, spec: MomentSpec):
    """theta -> (Pg, G, H), H[i] = P[Hess g_i], as polynomials in theta with
    each data moment P[x^alpha] integrated once, cut-aware."""
    if len(spec.data_vars) != P.grid.ndim:
        raise SensanError("moment data variables do not match the grid "
                          "dimension")
    r, p = spec.moment_dim, spec.theta_dim
    mesh = P.grid.mesh()
    nd = len(spec.data_vars)
    orders = [()] + [(j,) for j in range(p)] + list(
        itertools.product(range(p), repeat=2))
    data_moments, rows = {}, []
    for q in (spec.derivative(i, *js) for js in orders for i in range(r)):
        row: dict = {}
        for e, c in zip(q.terms, _floats(q, "moment derivative")):
            alpha, beta = e[:nd], e[nd:]
            if alpha not in data_moments:
                data_moments[alpha] = P.quad(
                    math.prod(x ** k for x, k in zip(mesh, alpha)))
            row[beta] = row.get(beta, 0.0) + c * data_moments[alpha]
        rows.append(row)
    betas = sorted(set().union(*rows))
    A = np.array([[row.get(b, 0.0) for b in betas] for row in rows])
    E = np.array(betas, dtype=float).reshape(len(betas), p)

    def at(theta):
        v = A @ np.prod(theta ** E, axis=1)
        return (v[:r], v[r:r + r * p].reshape(p, r).T,
                v[r + r * p:].reshape(p, p, r).transpose(2, 0, 1))

    return at


def _check_weight(W, r: int) -> np.ndarray:
    W = np.asarray(W, dtype=float)
    if W.shape != (r, r):
        raise ConfigError("weight", f"weight matrix must be {r}x{r}")
    if np.max(np.abs(W - W.T)) > 1e-12 * (1.0 + np.max(np.abs(W))):
        raise ConfigError("weight", "weight matrix must be symmetric")
    if float(np.linalg.eigvalsh(W)[0]) <= 0.0:
        raise ConfigError("weight", "weight matrix must be positive-definite")
    return W


def _newton(at, spec: MomentSpec, W: np.ndarray, start):
    """One local solve. Returns (theta, criterion, ok): the end point, its
    criterion, and whether it meets the first-order condition."""
    lo, hi = np.array(spec.bounds).T
    theta = np.clip(np.asarray(start, dtype=float), lo, hi)
    Pg, G, H = at(theta)
    crit = float(Pg @ W @ Pg)
    for _ in range(200):
        if float(np.linalg.norm(2.0 * G.T @ W @ Pg)) < _FOC_TARGET:
            return theta, crit, True
        B = G.T @ W @ G + np.tensordot(W @ Pg, H, 1)
        if float(np.linalg.eigvalsh(B)[0]) <= 0.0:
            B = G.T @ W @ G  # Gauss-Newton
        try:
            step = -np.linalg.solve(B, G.T @ W @ Pg)
        except np.linalg.LinAlgError:
            break
        t = 1.0
        while t > 1e-12:
            cand = np.clip(theta + t * step, lo, hi)
            Pg_c, G_c, H_c = at(cand)
            crit_c = float(Pg_c @ W @ Pg_c)
            if crit_c < crit:
                theta, Pg, G, H, crit = cand, Pg_c, G_c, H_c, crit_c
                break
            t *= 0.5
        else:
            break
    return theta, crit, float(np.linalg.norm(2.0 * G.T @ W @ Pg)) < _FOC_TOL


def _integrals(f: PiecewiseField, stack: np.ndarray) -> np.ndarray:
    """f.quad(a) for each field a of a (*lead, *grid) stack, as *lead."""
    return np.array([f.quad(a) for a in stack.reshape(-1, *f.grid.shape)]
                    ).reshape(stack.shape[:-f.grid.ndim])


def _solution(P: GridDensity, spec: MomentSpec, W: np.ndarray, theta,
              at) -> GmmSolution:
    """The solution at theta: node arrays of g and dg/dtheta, Pg, G and
    Omega entry by entry, and H from the theta-polynomials."""
    g = _node_arrays(P, spec, theta)
    jac = np.array([_node_arrays(P, spec, theta, j)
                    for j in range(spec.theta_dim)])
    gg = g[:, None] * g[None, :]  # finite only where g is
    if not (np.all(np.isfinite(jac)) and np.all(np.isfinite(gg))):
        raise SensanError("non-finite integrand")
    Pg, G, Omega = _integrals(P, g), _integrals(P, jac).T, _integrals(P, gg)
    return GmmSolution(theta=theta, W=W, Pg=Pg, G=G, Omega=Omega,
                       criterion=float(Pg @ W @ Pg), g=g, jac=jac,
                       H=at(theta)[2])


def _minimize(P: GridDensity, spec: MomentSpec, W: np.ndarray,
              at) -> GmmSolution:
    starts = itertools.product(
        *([lo + f * (hi - lo) for f in (0.25, 0.5, 0.75)]
          for lo, hi in spec.bounds))
    ends = [_newton(at, spec, W, s) for s in starts]
    found = [(theta, crit) for theta, crit, ok in ends if ok]
    if not found:
        # the lowest end point names the face of the box it stopped on
        theta = min(ends, key=lambda e: e[1])[0]
        raise SensanError(
            "gmm solve failed: no start satisfied the first-order condition"
            + "".join(f"; th{j} stops at its {side} bound {b:g}"
                      for j, (t, box) in enumerate(zip(theta, spec.bounds))
                      for side, b in zip(("lower", "upper"), box) if t == b))
    found.sort(key=lambda tc: (tc[1], tuple(tc[0])))
    theta, crit = found[0]
    for other, ocrit in found[1:]:
        if np.max(np.abs(other - theta)) > 1e-4 and ocrit - crit < 1e-10:
            raise SensanError(
                "non-unique minimizer: criterion ties at "
                f"theta = {theta.tolist()} and {other.tolist()}")
    return _solution(P, spec, W, theta, at)


def gmm_solve(P: GridDensity, spec: MomentSpec, W) -> GmmSolution:
    """Minimize the GMM criterion by multi-start Newton.

    Data moments are integrated once per call; from each of 3^p starts,
    Newton steps with the exact criterion Hessian (Gauss-Newton where it
    is not positive-definite) run under a strict-decrease halving line
    search. Pg, G and Omega at the accepted point come from quadrature.

    W is an r x r symmetric positive-definite matrix or the string
    "optimal" for the two-step recipe (identity solve, then W set to the
    inverse of the moment second-moment matrix at the first-step theta);
    both steps run on the same theta-polynomials.
    """
    optimal = isinstance(W, str)
    if optimal and W != "optimal":
        raise SensanError(f"unknown weight matrix spec '{W}'")
    r = spec.moment_dim
    W = _check_weight(np.eye(r) if optimal else W, r)
    at = _theta_polys(P, spec)
    sol = _minimize(P, spec, W, at)
    if optimal:
        sol = _minimize(P, spec, _check_weight(np.linalg.inv(sol.Omega), r), at)
    return sol


# --- influence functions ------------------------------------------------------------

def gmm_influence(P: GridDensity, spec: MomentSpec,
                  sol: GmmSolution) -> list[TangentVector]:
    """Misspecification-robust influence functions of the p components.

    Includes the moment-curvature terms; they carry the weight c = W Pg
    and vanish on the correctly specified model.
    """
    c = sol.W @ sol.Pg
    B = sol.G.T @ sol.W @ sol.G + np.tensordot(c, sol.H, 1)
    if np.linalg.cond(B) >= 1e10:
        raise SensanError("local identification failure: singular "
                          "criterion curvature")
    rhs = (np.tensordot(c, sol.jac, (0, 1))
           + np.tensordot(sol.G.T @ sol.W, sol.g, 1))
    return [TangentVector(P, v)
            for v in -np.tensordot(np.linalg.inv(B), rhs, 1)]


def _efficient_map(sol: GmmSolution) -> np.ndarray:
    """A = (G'O^-1 G)^-1 G'O^-1: the efficient influences are -A g."""
    OiG = np.linalg.solve(sol.Omega, sol.G)
    return np.linalg.solve(sol.G.T @ OiG, OiG.T)


def gmm_efficient_influence(P: GridDensity, spec: MomentSpec,
                            sol: GmmSolution) -> list[TangentVector]:
    """Efficient influence functions -(G' O^-1 G)^-1 G' O^-1 g."""
    return [TangentVector(P, v)
            for v in np.tensordot(-_efficient_map(sol), sol.g, 1)]


def _require_specified(sol: GmmSolution) -> None:
    if not sol.correctly_specified:
        raise SensanError(
            "tangent restriction undefined off P0: moments do not vanish "
            f"(|Pg| = {float(np.linalg.norm(sol.Pg)):.3g})")


def gmm_project_tangent(P: GridDensity, spec: MomentSpec, sol: GmmSolution,
                        xi: TangentVector) -> TangentVector:
    """Projection of a score onto the tangent set of the correctly
    specified model: subtract P[xi g'] O^-1 (I - G A) g, the component
    along the moments that is not explained by the moment Jacobian."""
    _require_specified(sol)
    cov = _integrals(xi.times(P), sol.g)  # P[xi g']
    perp = np.eye(spec.moment_dim) - sol.G @ _efficient_map(sol)
    coef = cov @ np.linalg.solve(sol.Omega, perp)
    return TangentVector(P, xi.smooth - np.tensordot(coef, sol.g, 1),
                         terms=xi.terms)


def gmm_out_direction(P: GridDensity, spec: MomentSpec, sol: GmmSolution,
                      alpha) -> TangentVector:
    """A direction outside the correctly specified model: a'g with
    a' = alpha' O^-1/2 (I - G A), so G'a = 0 and the efficient functional
    has zero sensitivity along it; alpha is in whitened coordinates."""
    _require_specified(sol)
    if spec.moment_dim == spec.theta_dim:
        raise SensanError("model not over-identified: no out-of-model "
                          "directions exist")
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (spec.moment_dim,):
        raise SensanError("alpha must have one entry per moment")
    w, V = np.linalg.eigh(sol.Omega)
    root = V @ np.diag(1.0 / np.sqrt(w)) @ V.T  # O^-1/2
    perp = np.eye(spec.moment_dim) - sol.G @ _efficient_map(sol)
    return TangentVector(P, np.tensordot(alpha @ root @ perp, sol.g, 1))
