"""Component objectives with gradient oracles and curvature constants.

Each agent i holds f_i with a Lipschitz gradient constant L_i and a strong
convexity modulus mu_i >= 0. Suite-level constants (max/mean Lipschitz,
mean/max modulus, condition number) feed every rate bound.

Every gradient the package evaluates goes through `block_gradient`. The
built-in families carry a stacked oracle that evaluates all n gradients on
the n x p block at once, bit for bit equal to the per-agent loop, which
stays the reference path for every other suite.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .config import ConfigBlock, decode_json, read_input
from .mixing import matrix_from_csv, matrix_to_csv


class ReferenceSolveError(RuntimeError):
    """Centralized reference solve hit its iteration cap."""


@dataclass(frozen=True)
class ComponentFunction:
    """One agent's objective: value/gradient oracles plus constants."""

    dimension: int
    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    L: float
    mu: float = 0.0

    def __post_init__(self):
        if self.L < 0 or self.mu < 0:
            raise ValueError("constants must be nonnegative")
        if self.L < self.mu:
            raise ValueError(f"L={self.L} < mu={self.mu} is inconsistent")


@dataclass
class ObjectiveSuite:
    """n component functions sharing one variable dimension.

    `mu_bar_override` lets a caller substitute an effective mean modulus
    (e.g. the restricted strong convexity constant near the solution) when
    the per-component moduli are zero but rate bounds are still wanted.
    `stacked_grad`, when set, maps an n x p block, or a stack of them
    along leading axes, to every gradient at once, in a block of the same
    shape, and must agree bit for bit with the components' oracles.
    """

    components: tuple[ComponentFunction, ...]
    x_star: np.ndarray | None = None
    mu_bar_override: float | None = None
    family: str = "custom"
    data: dict = field(default_factory=dict)
    stacked_grad: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if not self.components:
            raise ValueError("suite needs at least one component")
        p = self.components[0].dimension
        if any(c.dimension != p for c in self.components):
            raise ValueError("components disagree on dimension")
        if self.x_star is not None:
            self.x_star = np.asarray(self.x_star, dtype=float).reshape(p)
        if self.mu_bar_override is not None and self.mu_bar_override > self.L:
            raise ValueError("effective mean modulus cannot exceed the max "
                             "Lipschitz constant")

    @property
    def n(self) -> int:
        return len(self.components)

    @property
    def p(self) -> int:
        return self.components[0].dimension

    @property
    def L(self) -> float:
        return max(c.L for c in self.components)

    @property
    def L_bar(self) -> float:
        return sum(c.L for c in self.components) / self.n

    @property
    def mu_bar(self) -> float:
        if self.mu_bar_override is not None:
            return self.mu_bar_override
        return sum(c.mu for c in self.components) / self.n

    @property
    def mu_hat(self) -> float:
        return max(c.mu for c in self.components)

    @property
    def kappa_bar(self) -> float:
        mu = self.mu_bar
        if mu <= 0:
            raise ValueError("condition number needs a positive mean modulus "
                             "(set mu_bar_override for suites without one)")
        return self.L / mu

    def average_gradient(self, x: np.ndarray) -> np.ndarray:
        """(1/n) sum grad f_i(x): `block_gradient` on n copies of x, its rows
        summed from 0.0."""
        x = np.asarray(x, dtype=float).reshape(self.p)
        rows = block_gradient(self, np.tile(x, (self.n, 1)))
        return np.sum(rows, axis=0, initial=0.0) / self.n


def block_gradient(suite: ObjectiveSuite, x: np.ndarray) -> np.ndarray:
    """Stack per-agent gradients: row i is grad f_i at row i of x, an n x p
    block or a stack of them along leading axes (one per lockstep member).
    Uses the suite's stacked oracle when it has one, the per-agent loop
    otherwise."""
    x = np.asarray(x, dtype=float)
    shape, oracle = x.shape, suite.stacked_grad
    # not the n and p properties: this check runs on every gradient
    if shape[-2:] != (len(suite.components), suite.components[0].dimension):
        raise ValueError(f"iterate block must be {suite.n}x{suite.p}, got {shape}")
    if oracle is not None:
        out = oracle(x)
        if out.shape != shape:
            raise ValueError(f"stacked gradient oracle gave shape {out.shape} "
                             f"for an iterate block of shape {shape}")
        return out
    out = np.empty_like(x)
    for block in np.ndindex(x.shape[:-2]):
        for i, c in enumerate(suite.components):
            out[block + (i,)] = c.grad(x[block + (i,)])
    return out


def quadratic_suite(targets: np.ndarray, curvatures: np.ndarray) -> ObjectiveSuite:
    """f_i(x) = (a_i/2) ||x - b_i||^2 with a_i > 0; the minimizer is the
    curvature-weighted mean of the targets."""
    b = np.atleast_2d(np.asarray(targets, dtype=float))
    a = np.asarray(curvatures, dtype=float).reshape(-1)
    if len(a) != b.shape[0]:
        raise ValueError("one curvature per target row required")
    if not np.all(np.isfinite(b)):
        raise ValueError("targets must be finite")
    if not np.all(np.isfinite(a) & (a > 0)):
        raise ValueError("curvatures must be positive and finite")

    def make(i: int) -> ComponentFunction:
        ai, bi = float(a[i]), b[i].copy()
        return ComponentFunction(
            dimension=b.shape[1],
            value=lambda x, ai=ai, bi=bi: 0.5 * ai * float(np.sum((x - bi) ** 2)),
            grad=lambda x, ai=ai, bi=bi: ai * (x - bi),
            L=ai, mu=ai)

    x_star = (a[:, None] * b).sum(axis=0) / a.sum()
    b_all, a_col = b.copy(), a[:, None].copy()
    return ObjectiveSuite(tuple(make(i) for i in range(len(a))), x_star=x_star,
                          family="quadratic", data={"targets": b, "curvatures": a},
                          stacked_grad=lambda x: a_col * (x - b_all))


def zero_suite(n: int, p: int) -> ObjectiveSuite:
    """All-zero objectives; turns the optimizers into pure consensus runs."""
    comp = ComponentFunction(p, value=lambda x: 0.0,
                             grad=lambda x: np.zeros(p), L=0.0, mu=0.0)
    return ObjectiveSuite((comp,) * n, family="zero", data={"n": n, "p": p},
                          stacked_grad=lambda x: np.zeros(x.shape))


def huber_value(a: float, xi: float) -> float:
    """Scalar Huber loss: quadratic inside |a| <= xi, linear outside."""
    a = abs(float(a))
    if a <= xi:
        return 0.5 * a * a
    return xi * (a - 0.5 * xi)


def huber_regression_suite(rows: list[np.ndarray], targets: list[np.ndarray],
                           xi: float) -> ObjectiveSuite:
    """Each agent fits its rows M_i, targets y_i under the Huber loss with
    threshold xi; the gradient clips each residual to [-xi, xi]."""
    if not (math.isfinite(xi) and xi > 0):
        raise ValueError("Huber threshold xi must be positive and finite")
    if not rows:
        raise ValueError("suite needs at least one component")
    if len(rows) != len(targets):
        raise ValueError("one target vector per row block required")
    mats = [np.atleast_2d(np.asarray(m, dtype=float)) for m in rows]
    ys = [np.asarray(y, dtype=float).reshape(-1) for y in targets]
    p = mats[0].shape[1]
    comps = []
    for m, y in zip(mats, ys):
        if m.shape[1] != p:
            raise ValueError("row blocks disagree on dimension")
        if m.shape[0] != len(y):
            raise ValueError("row count and target count differ")
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(y))):
            raise ValueError("rows and targets must be finite")
        L_i = float(np.linalg.norm(m, 2) ** 2)  # sigma_max(M^T M)

        def value(x, m=m, y=y):
            r = m @ x - y
            return float(sum(huber_value(v, xi) for v in r))

        def grad(x, m=m, y=y):
            r = np.clip(m @ x - y, -xi, xi)
            return m.T @ r

        comps.append(ComponentFunction(p, value=value, grad=grad, L=L_i, mu=0.0))
    stacked = None
    if len({m.shape[0] for m in mats}) == 1:
        # batched matmul runs the same BLAS call per agent as the loop does;
        # the transposed view hands it each m.T exactly as `grad` does
        m_all = np.stack(mats)
        m_all_t = m_all.transpose(0, 2, 1)
        y_all = np.stack(ys)[:, :, None]

        def stacked(x):
            r = np.matmul(m_all, x[..., None]) - y_all
            # np.clip in place, without its Python wrappers; NaN propagates
            np.maximum(r, -xi, out=r)
            np.minimum(r, xi, out=r)
            return np.matmul(m_all_t, r)[..., 0]
    return ObjectiveSuite(tuple(comps), family="huber",
                          data={"rows": mats, "targets": ys, "xi": xi},
                          stacked_grad=stacked)


@dataclass(frozen=True)
class ReferenceSolution:
    x_star: np.ndarray
    grad_norm: float
    iterations: int


def solve_reference(suite: ObjectiveSuite, tolerance: float = 1e-12,
                    max_iter: int = 500_000) -> ReferenceSolution:
    """Centralized gradient descent on f from zero with step 1/L_bar until
    the gradient norm drops to `tolerance`."""
    if suite.L_bar <= 0:
        raise ValueError("reference solve needs a nonzero objective")
    step = 1.0 / suite.L_bar
    x = np.zeros(suite.p)
    for it in range(max_iter + 1):
        g = suite.average_gradient(x)
        gn = float(np.linalg.norm(g))
        if gn <= tolerance:
            return ReferenceSolution(x, gn, it)
        x = x - step * g
    raise ReferenceSolveError(
        f"gradient norm {gn:.3e} still above {tolerance:g} after {max_iter} steps")


def check_gradients(suite: ObjectiveSuite, seed: int = 0, trials: int = 20,
                    eps: float = 1e-6) -> float:
    """Max scaled central-difference error of the gradient oracles over
    random points and directions; should stay near eps for smooth pieces."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        i = int(rng.integers(0, suite.n))
        c = suite.components[i]
        x = rng.normal(size=suite.p)
        d = rng.normal(size=suite.p)
        d /= np.linalg.norm(d)
        fd = (c.value(x + eps * d) - c.value(x - eps * d)) / (2 * eps)
        err = abs(fd - float(c.grad(x) @ d)) / (abs(c.value(x)) + 1.0)
        worst = max(worst, err)
    return worst


def save_suite(suite: ObjectiveSuite, directory: str | Path) -> None:
    """CSV bundle plus a manifest naming the family (quadratic or huber)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {"family": suite.family, "n": suite.n, "p": suite.p}
    if suite.family == "quadratic":
        (directory / "targets.csv").write_text(matrix_to_csv(suite.data["targets"]))
        (directory / "curvatures.csv").write_text(
            matrix_to_csv(suite.data["curvatures"][:, None]))
    elif suite.family == "huber":
        manifest["xi"] = suite.data["xi"]
        stacked = []
        for i, (m, y) in enumerate(zip(suite.data["rows"], suite.data["targets"])):
            for r, t in zip(m, y):
                stacked.append([i + 1, *r, t])
        (directory / "rows.csv").write_text(matrix_to_csv(stacked))
    else:
        raise ValueError(f"family {suite.family!r} has no serialized form")
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def load_suite(directory: str | Path) -> ObjectiveSuite:
    """The suite `save_suite` wrote; a malformed manifest or an unreadable
    file is a ConfigError naming the file and the key, and a data file that
    disagrees with the manifest's `n` a ValueError naming the file."""
    directory = Path(directory)
    path = directory / "manifest.json"
    get = ConfigBlock(decode_json(read_input(path, "manifest"), str(path)), str(path))
    family = get("family", "a string")
    n = get("n", "a positive integer")
    get("p", "a positive integer")  # the files give the dimension
    xi = get("xi", "a positive number") if family == "huber" else None
    get.done()

    def read(name: str) -> np.ndarray:
        return matrix_from_csv(read_input(directory / name, name))

    if family == "quadratic":
        targets = read("targets.csv")
        if len(targets) != n:
            raise ValueError(f"targets.csv holds {len(targets)} agents but "
                             f"manifest.json gives n = {n}")
        return quadratic_suite(targets, read("curvatures.csv").reshape(-1))
    if family == "huber":
        stacked = read("rows.csv")
        if stacked.ndim != 2 or stacked.shape[1] < 3:
            raise ValueError("rows.csv needs rows of an agent label, at least one "
                             "regressor and a target")
        labels = np.unique(stacked[:, 0])
        if not np.array_equal(labels, np.arange(1, n + 1)):
            raise ValueError(f"rows.csv labels {len(labels)} agents, "
                             f"{labels[0]:g} to {labels[-1]:g}, but manifest.json "
                             f"gives n = {n}: each of the agents 1..{n} needs a "
                             f"row, and every row one of them")
        blocks = [stacked[stacked[:, 0] == i] for i in range(1, n + 1)]
        return huber_regression_suite([b[:, 1:-1] for b in blocks],
                                      [b[:, -1] for b in blocks], xi)
    raise ValueError(f"unknown suite family {family!r} in manifest")

