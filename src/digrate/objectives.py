"""Component objectives with gradient oracles and curvature constants.

Each agent i holds f_i with a Lipschitz gradient constant L_i and a strong
convexity modulus mu_i >= 0. Suite-level constants (max/mean Lipschitz,
mean/max modulus, condition number) feed every rate bound.

The built-in families also carry a stacked oracle that evaluates all n
gradients on the n x p block at once, bit for bit equal to the per-agent
loop, which stays the reference path for every other suite.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np


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
    `stacked_grad`, when set, maps the n x p block to all n gradients at
    once and must agree bit for bit with the components' oracles.
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

    def value(self, x: np.ndarray) -> float:
        """f(x) = (1/n) sum f_i(x), all components at the same point."""
        x = np.asarray(x, dtype=float).reshape(self.p)
        return sum(c.value(x) for c in self.components) / self.n

    def average_gradient(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(self.p)
        g = np.zeros(self.p)
        for c in self.components:
            g += c.grad(x)
        return g / self.n


def block_gradient(suite: ObjectiveSuite, x: np.ndarray) -> np.ndarray:
    """Stack per-agent gradients: row i is grad f_i at row i of x. Uses the
    suite's stacked oracle when it has one, the per-agent loop otherwise."""
    x = np.asarray(x, dtype=float)
    if x.shape != (suite.n, suite.p):
        raise ValueError(f"iterate block must be {suite.n}x{suite.p}, got {x.shape}")
    if suite.stacked_grad is not None:
        return suite.stacked_grad(x)
    out = np.empty_like(x)
    for i, c in enumerate(suite.components):
        out[i] = c.grad(x[i])
    return out


def quadratic_suite(targets: np.ndarray, curvatures: np.ndarray) -> ObjectiveSuite:
    """f_i(x) = (a_i/2) ||x - b_i||^2 with a_i > 0; the minimizer is the
    curvature-weighted mean of the targets."""
    b = np.atleast_2d(np.asarray(targets, dtype=float))
    a = np.asarray(curvatures, dtype=float).reshape(-1)
    if len(a) != b.shape[0]:
        raise ValueError("one curvature per target row required")
    if np.any(a <= 0):
        raise ValueError("curvatures must be positive")

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
                          stacked_grad=lambda x: np.zeros((n, p)))


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
    if xi <= 0:
        raise ValueError("Huber threshold must be positive")
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
            r = np.clip(np.matmul(m_all, x[:, :, None]) - y_all, -xi, xi)
            return np.matmul(m_all_t, r)[:, :, 0]
    return ObjectiveSuite(tuple(comps), family="huber",
                          data={"rows": mats, "targets": ys, "xi": xi},
                          stacked_grad=stacked)


@dataclass(frozen=True)
class ReferenceSolution:
    x_star: np.ndarray
    grad_norm: float
    iterations: int


def solve_reference(suite: ObjectiveSuite, tolerance: float = 1e-12,
                    x0: np.ndarray | None = None,
                    max_iter: int = 500_000) -> ReferenceSolution:
    """Centralized gradient descent on f with step 1/L_bar until the
    gradient norm drops to `tolerance`."""
    if suite.L_bar <= 0:
        raise ValueError("reference solve needs a nonzero objective")
    step = 1.0 / suite.L_bar
    x = np.zeros(suite.p) if x0 is None else np.asarray(x0, dtype=float).reshape(suite.p)
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
        _write_csv(directory / "targets.csv", suite.data["targets"])
        _write_csv(directory / "curvatures.csv", suite.data["curvatures"][:, None])
    elif suite.family == "huber":
        manifest["xi"] = suite.data["xi"]
        stacked = []
        for i, (m, y) in enumerate(zip(suite.data["rows"], suite.data["targets"])):
            for r, t in zip(m, y):
                stacked.append([i + 1, *r, t])
        _write_csv(directory / "rows.csv", np.array(stacked))
    else:
        raise ValueError(f"family {suite.family!r} has no serialized form")
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def load_suite(directory: str | Path) -> ObjectiveSuite:
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    family = manifest["family"]
    if family == "quadratic":
        targets = _read_csv(directory / "targets.csv")
        curv = _read_csv(directory / "curvatures.csv").reshape(-1)
        return quadratic_suite(targets, curv)
    if family == "huber":
        stacked = _read_csv(directory / "rows.csv")
        rows, targets = [], []
        for i in range(1, manifest["n"] + 1):
            block = stacked[stacked[:, 0] == i]
            rows.append(block[:, 1:-1])
            targets.append(block[:, -1])
        return huber_regression_suite(rows, targets, manifest["xi"])
    raise ValueError(f"unknown suite family {family!r} in manifest")


def _write_csv(path: Path, array: np.ndarray) -> None:
    array = np.atleast_2d(np.asarray(array, dtype=float))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in array:
            writer.writerow([f"{v:.17g}" for v in row])


def _read_csv(path: Path) -> np.ndarray:
    with open(path, newline="") as fh:
        return np.array([[float(v) for v in row] for row in csv.reader(fh)])
