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
keeps the node values of g and dg/dtheta at theta, Pg, G and Omega by their
quadrature, and P[Hess g_i]; the influence functions below only read it.

On the correctly specified model the tangent set restricts, and scores
decompose through the whitened moment space: the projection onto the
model tangent set, the efficient influence function, and the
out-of-model directions zeta all live here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SensanError, nested
from .expressions import Poly, _floats, as_array_function, parse_whitelisted
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
    node arrays g[i] = g_i and jac[j][i] = dg_i/dth_j, and H[i] = P[Hess g_i]."""

    theta: np.ndarray
    W: np.ndarray
    Pg: np.ndarray
    G: np.ndarray
    Omega: np.ndarray
    criterion: float
    g: tuple[np.ndarray, ...] = field(repr=False)
    jac: tuple[tuple[np.ndarray, ...], ...] = field(repr=False)
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
                 *js: int) -> tuple[np.ndarray, ...]:
    """Node values at theta of every moment differentiated in th_js."""
    args = P.grid.mesh()
    polys = [spec.derivative(i, *js) for i in range(spec.moment_dim)]
    return tuple(as_array_function(q, q.variables)(*args, *theta)
                 for q in polys)


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
    """One local solve. Returns (theta, criterion) or None."""
    lo, hi = np.array(spec.bounds).T
    theta = np.clip(np.asarray(start, dtype=float), lo, hi)
    Pg, G, H = at(theta)
    crit = float(Pg @ W @ Pg)
    for _ in range(200):
        if float(np.linalg.norm(2.0 * G.T @ W @ Pg)) < _FOC_TARGET:
            return theta, crit
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
    ok = float(np.linalg.norm(2.0 * G.T @ W @ Pg)) < _FOC_TOL
    return (theta, crit) if ok else None


def _solution(P: GridDensity, spec: MomentSpec, W: np.ndarray, theta,
              at) -> GmmSolution:
    """The solution at theta: node arrays of g and dg/dtheta, Pg, G and
    Omega by grid quadrature of them, and H from the theta-polynomials."""
    g = _node_arrays(P, spec, theta)
    jac = tuple(_node_arrays(P, spec, theta, j) for j in range(spec.theta_dim))
    Pg = np.array([integrate(a, P) for a in g])
    G = np.array([[integrate(a, P) for a in row] for row in zip(*jac)])
    Omega = np.array([[integrate(a * b, P) for b in g] for a in g])
    return GmmSolution(theta=theta, W=W, Pg=Pg, G=G, Omega=Omega,
                       criterion=float(Pg @ W @ Pg), g=g, jac=jac,
                       H=at(theta)[2])


def _minimize(P: GridDensity, spec: MomentSpec, W: np.ndarray,
              at) -> GmmSolution:
    starts = itertools.product(
        *([lo + f * (hi - lo) for f in (0.25, 0.5, 0.75)]
          for lo, hi in spec.bounds))
    found = [res for res in (_newton(at, spec, W, s) for s in starts)
             if res is not None]
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
    p, r = spec.theta_dim, spec.moment_dim
    c = sol.W @ sol.Pg
    B = sol.G.T @ sol.W @ sol.G + np.tensordot(c, sol.H, 1)
    if np.linalg.cond(B) >= 1e10:
        raise SensanError("local identification failure: singular "
                          "criterion curvature")
    GW = sol.G.T @ sol.W
    rhs = [sum(t for i in range(r)
               for t in (c[i] * sol.jac[a][i], GW[a, i] * sol.g[i]))
           for a in range(p)]
    Binv = np.linalg.inv(B)
    return [TangentVector(P, -sum(Binv[a, b] * rhs[b] for b in range(p)))
            for a in range(p)]


def gmm_efficient_influence(P: GridDensity, spec: MomentSpec,
                            sol: GmmSolution) -> list[TangentVector]:
    """Efficient influence functions -(G' O^-1 G)^-1 G' O^-1 g."""
    A = np.linalg.solve(sol.G.T @ np.linalg.solve(sol.Omega, sol.G),
                        sol.G.T @ np.linalg.inv(sol.Omega))
    return [TangentVector(
        P, -sum(A[a, i] * sol.g[i] for i in range(spec.moment_dim)))
        for a in range(spec.theta_dim)]


def _perp_projector(sol: GmmSolution) -> tuple[np.ndarray, np.ndarray]:
    """Whitening root and the projector onto the orthocomplement of the
    whitened moment Jacobian."""
    w, V = np.linalg.eigh(sol.Omega)
    S = V @ np.diag(1.0 / np.sqrt(np.maximum(w, 1e-12))) @ V.T
    SG = S @ sol.G
    proj = np.eye(len(S)) - SG @ np.linalg.solve(SG.T @ SG, SG.T)
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
    cov = np.array([inner_p(xi, TangentVector(P, a)) for a in sol.g])  # P[xi g']
    coef = cov @ S.T @ proj @ S
    out_smooth = xi.smooth - sum(coef[i] * sol.g[i]
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
    return TangentVector(
        P, sum(coef[i] * sol.g[i] for i in range(spec.moment_dim)))
