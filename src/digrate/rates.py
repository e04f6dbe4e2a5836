"""Closed-form step-size windows, geometric rate certificates, and the
small-gain diagnostics that justify them.

Push-sum constants grow like n^(n*B) and overflow doubles for modest
networks, so everything that can explode is evaluated in log space and
reported as (mantissa, exponent) pairs via LogValue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .traces import RunTrace

LAMBDA_CLAMP = 1.0 - 2.0 ** -40  # reported rate at degenerate window endpoints


class RateWindowError(ValueError):
    """Step size outside the window for which a rate is certified."""


class NoGuaranteeError(ValueError):
    """The contraction factor admits no certified step-size window."""


class SmallGainInapplicableError(ValueError):
    """Gain-cycle hypotheses (gain product < 1, delta < lambda^B) fail."""


@dataclass(frozen=True)
class LogValue:
    """A nonnegative real carried as log10; exact floats when in range."""

    log10: float

    @classmethod
    def from_float(cls, value: float) -> "LogValue":
        if value < 0:
            raise ValueError("LogValue holds nonnegative reals")
        return cls(math.log10(value) if value > 0 else -math.inf)

    @classmethod
    def from_ln(cls, ln_value: float) -> "LogValue":
        return cls(ln_value / math.log(10.0))

    @property
    def ln(self) -> float:
        return self.log10 * math.log(10.0)

    @property
    def exponent(self) -> int:
        return int(math.floor(self.log10))

    @property
    def mantissa(self) -> float:
        if self.log10 == -math.inf:
            return 0.0
        return 10.0 ** (self.log10 - self.exponent)

    def to_float(self) -> float:
        if self.log10 == -math.inf:
            return 0.0
        if self.log10 > 308.25:
            return math.inf
        return 10.0 ** self.log10

    def __float__(self) -> float:
        return self.to_float()

    def __str__(self) -> str:
        if self.log10 == -math.inf:
            return "0"
        return f"{self.mantissa:.6f}e{self.exponent:+d}"


def _as_ln(value) -> float:
    if isinstance(value, LogValue):
        return value.ln
    if value < 0:
        raise ValueError("expected a nonnegative magnitude")
    return math.log(value) if value > 0 else -math.inf


@dataclass
class TheoryParams:
    """Network and objective constants consumed by the rate evaluators.

    delta is the consensus-contraction factor of length-B mixing windows;
    it may come from measurement or from a cited worst-case bound, recorded
    in delta_source. beta defaults to 2L/mu_hat and eta to 1, the choices
    under which the published windows are stated; both stay overridable.
    """

    n: int
    B: int
    delta: float
    mu_bar: float
    L: float
    mu_hat: float | None = None
    q1: "float | LogValue | None" = None
    vinv_bound: "float | LogValue | None" = None
    beta: float | None = None
    eta: float = 1.0
    delta_source: str = "empirical"

    def __post_init__(self):
        if self.n < 1 or self.B < 1:
            raise ValueError("n and B must be positive integers")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if self.mu_bar <= 0:
            raise ValueError("rate bounds need a positive mean modulus")
        if self.L < self.mu_bar:
            raise ValueError("L < mu_bar would give a condition number below 1")
        if self.eta <= 0 or (self.beta is not None and self.beta <= 0):
            raise ValueError("beta and eta must be positive")

    @property
    def kappa_bar(self) -> float:
        return self.L / self.mu_bar

    @property
    def effective_beta(self) -> float:
        if self.beta is not None:
            return self.beta
        if not self.mu_hat or self.mu_hat <= 0:
            raise ValueError("default beta = 2L/mu_hat needs a positive mu_hat; "
                             "set beta explicitly otherwise")
        return 2.0 * self.L / self.mu_hat

    def last_gain_root(self) -> float:
        """sqrt(L(1+eta)/(mu_bar*eta) + (mu_hat/mu_bar)*beta), the curvature
        factor of the cycle's closing gain."""
        beta = self.effective_beta
        mu_hat = self.mu_hat if self.mu_hat else 0.0
        return math.sqrt(self.L * (1 + self.eta) / (self.mu_bar * self.eta)
                         + (mu_hat / self.mu_bar) * beta)


def diging_rate_constant(kappa_bar: float, B: int, n: int) -> float:
    """Step-size constant for gradient tracking over undirected sequences:
    3 * kappa * B^2 * (1 + 4 sqrt(n * kappa))."""
    if kappa_bar < 1 or B < 1 or n < 1:
        raise ValueError("inputs must satisfy kappa>=1, B>=1, n>=1")
    return 3.0 * kappa_bar * B * B * (1.0 + 4.0 * math.sqrt(n) * math.sqrt(kappa_bar))


@dataclass(frozen=True)
class StepSizeWindow:
    alpha_max: float        # closed right end of the admissible window
    breakpoint: float       # where the certified rate switches branch


@dataclass(frozen=True)
class RateEstimate:
    lam: float
    branch: int
    degenerate: bool        # window endpoint collapsed the rate onto 1
    lam_pow_B: float
    one_minus_lambda: LogValue  # certified gap 1 - lam (0 when degenerate)
    j: LogValue             # step-size constant of the certificate
    alpha_max: LogValue


_ENDPOINT_TOL = 1e-12   # slack in ln alpha around the window's right end


def _window(params: TheoryParams, ln_j: float) -> tuple[float, float]:
    """(ln alpha_max, ln breakpoint) of the two-branch certificate with
    step-size constant J = exp(ln_j)."""
    d = params.delta
    if d >= 1:
        raise NoGuaranteeError(f"delta={d} >= 1 certifies nothing")
    if ln_j == -math.inf:
        raise NoGuaranteeError("step-size constant J = 0 defines no window (the push "
                               "constant vanishes at delta = 0 with B = 1)")
    ln_alpha_max = math.log(1.5) + 2 * math.log1p(-d) - math.log(params.mu_bar) - ln_j
    # breakpoint 1.5 (sqrt(J^2+(1-d^2)J) - dJ)^2 / (mu J (J+1)^2), rationalized
    # to alpha_max ((1+d) / (r+d))^2 with r = sqrt(1 + (1-d^2)/J): the plain
    # difference cancels as delta -> 1
    ln_r = 0.5 * float(np.logaddexp(0.0, math.log1p(-d) + math.log1p(d) - ln_j))
    ln_bp = ln_alpha_max + 2 * (math.log1p(d) - ln_r - math.log1p(d * math.exp(-ln_r)))
    return ln_alpha_max, ln_bp


def _certificate(alpha: float, params: TheoryParams, ln_j: float) -> RateEstimate:
    """Certified geometric rate at step `alpha` for step-size constant
    J = exp(ln_j), evaluated in log space so astronomic constants stay finite.

    Two branches meet at the window's breakpoint (the first branch applies
    at exact equality). Inside the open window the result satisfies
    delta < lam^B < 1. At the closed right end, which lies on the second
    branch, the rate is 1 and certifies nothing: a step within the window's
    tolerance of it is reported as LAMBDA_CLAMP with the degenerate flag and
    a zero gap. A rate that rounds to 1 is reported just below 1; its gap
    keeps the true value.
    """
    ln_alpha_max, ln_bp = _window(params, ln_j)
    if not alpha > 0 or math.log(alpha) > ln_alpha_max + _ENDPOINT_TOL:
        raise RateWindowError(
            f"alpha={alpha:g} outside the certified window "
            f"(0, {LogValue.from_ln(ln_alpha_max)}]")
    B, d, mu = params.B, params.delta, params.mu_bar
    ln_alpha = math.log(alpha)
    j, alpha_max = LogValue.from_ln(ln_j), LogValue.from_ln(ln_alpha_max)
    if ln_alpha >= ln_alpha_max - _ENDPOINT_TOL:
        return RateEstimate(LAMBDA_CLAMP, 2, True, LAMBDA_CLAMP ** B,
                            LogValue.from_float(0.0), j, alpha_max)
    if alpha <= math.exp(ln_bp):
        branch = 1
        ln_lam = math.log1p(-alpha * mu / 1.5) / (2 * B)
        # alpha * mu underflowed: the gap is alpha mu / (3B) to first order
        ln_gap = (math.log(-math.expm1(ln_lam)) if ln_lam < 0 else
                  ln_alpha + math.log(mu) - math.log(3.0 * B))
    else:
        branch = 2
        # 1 - lam^B = (1 - delta) - sqrt(alpha mu J / 1.5), never 1 - lam
        gap_b = (1 - d) - math.exp(0.5 * (ln_alpha + math.log(mu) + ln_j
                                          - math.log(1.5)))
        ln_lam = math.log1p(-gap_b) / B
        ln_gap = math.log(-math.expm1(ln_lam)) if ln_lam < 0 else -math.inf
    lam = min(math.exp(ln_lam), math.nextafter(1.0, 0.0))
    return RateEstimate(lam, branch, False, lam ** B, LogValue.from_ln(ln_gap),
                        j, alpha_max)


def diging_step_size_window(params: TheoryParams) -> StepSizeWindow:
    """Admissible (0, alpha_max] window and the internal branch point of the
    certified rate for the undirected algorithm."""
    j = diging_rate_constant(params.kappa_bar, params.B, params.n)
    ln_alpha_max, ln_bp = _window(params, math.log(j))
    return StepSizeWindow(math.exp(ln_alpha_max), math.exp(ln_bp))


def diging_rate(alpha: float, params: TheoryParams) -> RateEstimate:
    """Certified geometric rate of the undirected algorithm at step `alpha`,
    with the constant of diging_rate_constant."""
    j = diging_rate_constant(params.kappa_bar, params.B, params.n)
    return _certificate(alpha, params, math.log(j))


@dataclass(frozen=True)
class ScalabilityRate:
    alpha: float
    lam: float


def network_scalability_rate(tau: float, B: int, n: int, kappa_bar: float,
                             L: float, mu_bar: float) -> ScalabilityRate:
    """Polynomial-in-n worst-case step and rate driven only by the smallest
    positive mixing weight tau (uses the cited contraction bound
    delta <= 1 - tau/(2 n^2), which can be conservative)."""
    if not 0 < tau <= 1:
        raise ValueError("tau must lie in (0, 1]")
    denom = 128.0 * B * B * n ** 4.5
    phi = tau * tau / (denom * kappa_bar ** 1.5)
    alpha = 3.0 * tau * tau / (denom * L * math.sqrt(kappa_bar)) \
        - (1.5 / mu_bar) * phi * phi
    lam = (1.0 - phi) ** (1.0 / B)
    return ScalabilityRate(alpha, lam)


def lazy_metropolis_rate(n: int, kappa_bar: float) -> float:
    """Rate certificate for static connected graphs under lazy Metropolis
    mixing: 1 - 1/(161312 n^4.5 kappa^1.5)."""
    if n < 1 or kappa_bar < 1:
        raise ValueError("need n >= 1 and kappa >= 1")
    return 1.0 - 1.0 / (161312.0 * n ** 4.5 * kappa_bar ** 1.5)


def cited_delta_bound(n: int, tau: float | None = None) -> float:
    """Cited worst-case contraction of jointly connected doubly stochastic
    windows: 1 - tau/(2 n^2), with the Metropolis default tau = 1/n."""
    if tau is None:
        tau = 1.0 / n
    return 1.0 - tau / (2.0 * n * n)


# ---------------------------------------------------------------------------
# push-sum constants (astronomically scaled; evaluated in log space)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PushSumContraction:
    """Worst-case push-sum constants for a directed sequence with strong
    connectivity over windows of length B_minus."""

    n: int
    B_minus: int
    tau_tilde: LogValue           # minimal rescaled arc weight, 1/n^(2+n*B_minus)
    q1: LogValue                  # contraction prefactor
    vinv_bound: LogValue          # sup-norm bound on inverse weights, n^(n*B_minus)
    B_required: int | None        # minimal window with contraction < 1 (None if
                                  # beyond exact integer range)
    B_required_log: LogValue
    delta: LogValue               # contraction at B_required (clamped to <= 1)


def push_sum_delta(n: int, b_minus: int, B: int) -> LogValue:
    """Contraction factor Q1 * (1 - tau_tilde^(n*B_minus))^((B-1)/(n*B_minus))
    of length-B windows, as a LogValue."""
    ln_q1, d = _push_sum_ln_constants(n, b_minus)
    return LogValue.from_ln(ln_q1 + (B - 1) * d)


def _push_sum_ln_constants(n: int, b_minus: int) -> tuple[float, float]:
    """(ln Q1, per-step ln-decrement d) with d = log(1 - tau_tilde^(n B)) / (n B)."""
    nb = n * b_minus
    ln_tau = -(2 + nb) * math.log(n)
    a = nb * ln_tau                      # ln(tau_tilde^(n*B_minus)), << 0
    exp_a = math.exp(a) if a > -745 else 0.0
    ln_one_plus_inv = -a + math.log1p(exp_a)      # ln(1 + tau^-nb)
    ln_one_minus = math.log1p(-exp_a)             # ln(1 - tau^nb), ~ -exp(a)
    ln_q1 = math.log(2 * n) + ln_one_plus_inv - ln_one_minus
    return ln_q1, ln_one_minus / nb


def push_sum_contraction(n: int, b_minus: int) -> PushSumContraction:
    """All worst-case push-sum constants, plus the minimal window length B
    at which the windowed contraction falls below 1."""
    if n < 2 or b_minus < 1:
        raise ValueError("need n >= 2 and B_minus >= 1")
    nb = n * b_minus
    ln_tau = -(2 + nb) * math.log(n)
    ln_q1, d = _push_sum_ln_constants(n, b_minus)
    q1 = LogValue.from_ln(ln_q1)
    tau_tilde = LogValue.from_ln(ln_tau)
    vinv = LogValue.from_ln(nb * math.log(n))

    if d < 0.0:
        b_req = max(math.floor(ln_q1 / (-d)) + 2, b_minus)
        b_req_log = LogValue.from_float(float(b_req))
        delta = push_sum_delta(n, b_minus, b_req)
        b_req_int = b_req if b_req <= 2 ** 53 else None
    else:
        # -d ~ exp(a)/nb underflowed; carry the threshold in logs only
        b_req_log = LogValue.from_ln(math.log(ln_q1) - nb * ln_tau + math.log(nb))
        delta, b_req_int = LogValue(0.0), None   # 1 minus far below resolution
    return PushSumContraction(n, b_minus, tau_tilde, q1, vinv, b_req_int, b_req_log,
                              delta if delta.log10 < 0 else LogValue(0.0))


def push_rate_constant(params: TheoryParams) -> LogValue:
    """Directed-case analogue of the step-size constant: 3 Q1 Vinv kappa B
    (delta + Q1 (B-1)) (1 + sqrt n)(1 + 4 sqrt(n kappa)), in log space."""
    if params.q1 is None or params.vinv_bound is None:
        raise ValueError("push rate needs q1 and vinv_bound in the parameters")
    lq1 = _as_ln(params.q1)
    lvinv = _as_ln(params.vinv_bound)
    if params.B > 1:
        lmid = np.logaddexp(_as_ln(params.delta), lq1 + math.log(params.B - 1))
    else:
        lmid = _as_ln(params.delta)
    ln_j2 = (math.log(3.0) + lq1 + lvinv + math.log(params.kappa_bar)
             + math.log(params.B) + lmid + math.log(1 + math.sqrt(params.n))
             + math.log(1 + 4 * math.sqrt(params.n * params.kappa_bar)))
    return LogValue.from_ln(float(ln_j2))


def push_diging_rate(params: TheoryParams, alpha: float) -> RateEstimate:
    """Certified geometric rate for the push-sum variant: the undirected
    certificate with the directed constant of push_rate_constant."""
    return _certificate(alpha, params, push_rate_constant(params).ln)


# ---------------------------------------------------------------------------
# weighted ergodic norms and the small-gain cycle
# ---------------------------------------------------------------------------

def weighted_ergodic_norm(series, lam: float) -> float:
    """max over k of lam^-k times the Frobenius norm of the k-th element.

    Finiteness of this weighted sup as the horizon grows certifies decay at
    geometric rate lam. Accepts a 1-D array of scalars or a sequence of
    matrices.
    """
    if not 0 < lam < 1:
        raise ValueError("weight base must lie in (0, 1)")
    arr = np.asarray(series, dtype=float)
    if arr.ndim == 1:
        norms = np.abs(arr)
    else:
        norms = np.array([np.linalg.norm(s) for s in arr])
    if len(norms) == 0:
        raise ValueError("empty series")
    k = np.arange(len(norms))
    with np.errstate(over="ignore"):
        vals = norms * lam ** (-k.astype(float))
    if np.all(np.isfinite(vals)):
        return float(vals.max())
    with np.errstate(divide="ignore"):
        logs = np.where(norms > 0, np.log(norms) - k * math.log(lam), -np.inf)
    top = float(logs.max())
    return math.inf if top > 709 else math.exp(top)


def small_gain_bound(gains, offsets) -> float:
    """Bound on the first sequence's weighted norm around a gain cycle:
    (omega_1 g_2..g_m + omega_2 g_3..g_m + ... + omega_m) / (1 - g_1..g_m)."""
    gains = [float(g) for g in gains]
    offsets = [float(w) for w in offsets]
    if len(gains) != len(offsets) or not gains:
        raise ValueError("need matching nonempty gain and offset lists")
    if any(g < 0 for g in gains):
        raise ValueError("gains must be nonnegative")
    product = math.prod(gains)
    if product >= 1:
        raise SmallGainInapplicableError(
            f"gain product {product:g} >= 1; the cycle bounds nothing")
    total = 0.0
    for i, w in enumerate(offsets):
        total += w * math.prod(gains[i + 1:])
    return total / (1.0 - product)


@dataclass(frozen=True)
class GainLedger:
    """Measured weighted norms, gains, offsets, and margins of the four-link
    cycle optimality-gap -> gradient-difference -> tracker-violation ->
    iterate-violation -> optimality-gap."""

    lam: float
    K: int
    gains: tuple[float, float, float, float]
    offsets: tuple[float, float, float, float]
    norms: dict[str, float]
    margins: tuple[float, float, float, float]
    arrow_ok: tuple[bool, bool, bool, bool]
    gain_product: float
    product_ok: bool

    @property
    def all_ok(self) -> bool:
        return all(self.arrow_ok) and self.product_ok


# methods whose runs the small-gain cycle audits
AUDITED = ("diging", "push-diging")


def cycle_gains(params: TheoryParams, lam: float, alpha: float,
                family: str) -> tuple[float, float, float, float]:
    """The four gain constants of the small-gain cycle for the given family,
    one of AUDITED."""
    if family not in AUDITED:
        raise ValueError(f"no audited gain cycle for algorithm {family!r}")
    B, d = params.B, params.delta
    lam_b = lam ** B
    if not d < lam_b < 1:
        raise SmallGainInapplicableError(
            f"need delta < lambda^B < 1, got delta={d:g}, lambda^B={lam_b:g}")
    g1 = params.L * (1 + 1 / lam)
    geo = (1 - lam_b) / (1 - lam)
    g4 = 1 + math.sqrt(params.n) / lam * params.last_gain_root()
    if family == "diging":
        g2 = lam * geo / (lam_b - d)
        g3 = alpha * geo / (lam_b - d)
    else:
        q1 = float(params.q1) if params.q1 is not None else None
        vinv = float(params.vinv_bound) if params.vinv_bound is not None else None
        if q1 is None or vinv is None:
            raise ValueError("push cycle needs q1 and vinv_bound")
        g2 = q1 * vinv * lam * geo / (lam_b - d)
        geo_short = (1 - lam ** (B - 1)) / (1 - lam)
        g3 = alpha / (lam_b - d) * (d + q1 * geo_short)
        g4 *= 1 + math.sqrt(params.n)
    return g1, g2, g3, g4


def audit_small_gain(trace: RunTrace, params: TheoryParams, lam: float,
                     alpha: float | None = None) -> GainLedger:
    """Check the four cycle inequalities on a recorded run at rate `lam`.

    Needs the audit series (record_audit=True at run time). Margins are
    right-hand side minus left-hand side of each inequality; on an
    assumption-satisfying run with a certified rate all four must be
    nonnegative and the gain product below one.
    """
    if trace.q_norm is None or trace.z_norm is None:
        raise ValueError("trace carries no audit series; rerun with "
                         "record_audit=True")
    family = trace.metadata.get("algorithm")
    if alpha is None:
        alpha = trace.metadata.get("alpha")
    if alpha is None:
        raise ValueError("step size unavailable; pass alpha explicitly")
    if not 0 < lam < 1:
        raise ValueError("rate must lie in (0, 1)")
    B = params.B
    if len(trace) < B + 1:
        raise ValueError(f"trace too short to audit a window of length {B}")
    gains = cycle_gains(params, lam, alpha, family)
    lam_b = lam ** B

    q, z = trace.q_norm, trace.z_norm
    mid = np.nan_to_num(trace.cons_viol_y, nan=0.0)
    xv = trace.cons_viol_x
    norms = {
        "q": weighted_ergodic_norm(q, lam),
        "z": weighted_ergodic_norm(z, lam),
        "mid": weighted_ergodic_norm(mid, lam),
        "x": weighted_ergodic_norm(xv, lam),
    }
    head = lam_b / (lam_b - params.delta)
    w2 = head * sum(lam ** (1 - t) * mid[t - 1] for t in range(1, B + 1))
    w3 = head * sum(lam ** (1 - t) * xv[t - 1] for t in range(1, B + 1))
    w4 = 2 * math.sqrt(params.n) * (trace.xbar0_error or 0.0)
    offsets = (0.0, w2, w3, w4)

    lhs = (norms["z"], norms["mid"], norms["x"], norms["q"])
    rhs_base = (norms["q"], norms["z"], norms["mid"], norms["x"])
    margins = tuple(g * b + w - l
                    for g, b, w, l in zip(gains, rhs_base, offsets, lhs))
    product = math.prod(gains)
    return GainLedger(lam=lam, K=len(trace) - 1, gains=gains, offsets=offsets,
                      norms=norms, margins=margins,
                      arrow_ok=tuple(m >= 0 for m in margins),
                      gain_product=product, product_ok=product < 1)
