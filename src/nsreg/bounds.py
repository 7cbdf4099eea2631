"""Closed-form a-priori bounds, blow-up horizons, and regularity criteria.

Everything is driven by a :class:`ConstantLedger` derived from two physical
constants: the L6 embedding constant ``c_sobolev`` (|u|_L6 <= C_S |grad u|)
and the interpolation constant ``c_interp``
(|grad u|_L3 <= C_I |grad u|^(1/2) |Lap u|^(1/2)).  The default calibration
pins (C_S * C_I)^4 = 2048/27 so that the cubic growth coefficient equals
64/nu^3 and the force-free blow-up horizon is exactly nu^3/(128 |u0|_1^4).

The scalar criteria compare an accumulated quantity against pi/2: once

    lhs = <force term> + <initial-energy term> + arctan(|u0|_1^2) < pi/2,

the gradient norm obeys |u(t)|_1^2 <= tan(lhs) on the covered window, which
rules out blow-up there.
"""

import math
import sys
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import (
    ConfigurationError,
    HorizonExceededError,
    PoincareConsistencyError,
)

DEFAULT_C_SOBOLEV = (2048.0 / 27.0) ** 0.125
DEFAULT_C_INTERP = (2048.0 / 27.0) ** 0.125

THRESHOLD = math.pi / 2.0
#: points at which a report's JSON samples its bound curve
BOUND_SAMPLES = 11

#: map from the conventional constant symbols used in the regularity
#: literature to the ledger's descriptive field names.
SYMBOL_MAP = {
    "c1": "forced_rate_offset",
    "c3": "force_young",
    "c5": "convection_holder",
    "c6": "cubic_coeff",
    "c7": "energy_young",
    "c8": "steady_force_coeff",
    "c9": "steady_init_coeff",
    "c10": "timedep_force_coeff",
    "c11": "free_init_coeff",
    "c12": "classical_free_coeff",
}


@dataclass(frozen=True)
class ConstantLedger:
    """Every constant of the inequality chain, derived from (nu, lam1, C_S, C_I).

    Only these four inputs are stored.  Every other constant is a property
    computed from them, so the identities between them hold by construction;
    constants that are equal are one property under two names.  Building a
    ledger checks that every constant is a positive finite normal float.
    """

    nu: float
    lam1: float
    c_sobolev: float
    c_interp: float

    def __post_init__(self):
        for name in (*vars(self), *SYMBOL_MAP.values()):  # the inputs, then derived ones
            try:
                val = getattr(self, name)
            except ArithmeticError:  # a float ** overflowed, or underflowed to a 0 divisor
                val = math.inf
            if not sys.float_info.min <= val < math.inf:  # 1 / val must not overflow
                raise ConfigurationError(f"{name} must be normal, positive and finite, got {val}")

    @property
    def force_young(self):
        return 1.0 / (2.0 * self.nu)

    @property
    def convection_holder(self):
        return self.c_sobolev * self.c_interp

    @property
    def cubic_coeff(self):
        return 27.0 * self.convection_holder**4 / (32.0 * self.nu**3)

    @property
    def energy_young(self):
        return 1.0 / (2.0 * self.nu * self.lam1)

    @property
    def steady_force_coeff(self):
        return self.force_young + 2.0 * self.cubic_coeff * self.energy_young / self.nu

    @property
    def steady_init_coeff(self):
        return self.cubic_coeff / self.nu

    @property
    def forced_rate_offset(self):
        return self.cubic_coeff * self.nu**3

    timedep_force_coeff = steady_force_coeff
    free_init_coeff = steady_init_coeff
    classical_free_coeff = cubic_coeff

    def forced_growth_rate(self, f_l2):
        """Growth rate K(|f|) = 2 |f|^2 / nu + forced_rate_offset / nu^3."""
        return 2.0 * f_l2**2 / self.nu + self.forced_rate_offset / self.nu**3

    def to_json_dict(self):
        base = dict(vars(self))
        derived = {name: getattr(self, name) for name in set(SYMBOL_MAP.values())}
        aliases = {sym: getattr(self, name) for sym, name in SYMBOL_MAP.items()}
        return {**base, "derived": dict(sorted(derived.items())),
                "aliases": aliases, "symbol_map": SYMBOL_MAP}


def derive_constants(nu, lam1=1.0, c_sobolev=DEFAULT_C_SOBOLEV,
                     c_interp=DEFAULT_C_INTERP):
    """Build the ledger from viscosity, Poincare constant, and embeddings."""
    return ConstantLedger(nu=nu, lam1=lam1, c_sobolev=c_sobolev, c_interp=c_interp)


@dataclass(frozen=True)
class CriterionInput:
    """Scalar inputs of the criteria: initial norms and force data."""

    l2: float
    h1_sq: float
    f_l2: Optional[float] = None
    int_f_sq: Optional[float] = None

    def __post_init__(self):
        if not (0 <= self.l2 < math.inf and 0 <= self.h1_sq < math.inf):
            raise ConfigurationError("initial norms must be finite and non-negative")
        for name in ("f_l2", "int_f_sq"):
            val = getattr(self, name)
            if val is not None and not (0 <= val < math.inf):
                raise ConfigurationError(f"{name} must be finite and non-negative")

    def check_poincare(self, lam1):
        if self.h1_sq < lam1 * self.l2**2 * (1.0 - 1e-12):
            raise PoincareConsistencyError(
                f"h1_sq = {self.h1_sq:g} is below lam1 * l2^2 = "
                f"{lam1 * self.l2**2:g}; no field has these norms"
            )


@dataclass(frozen=True)
class BoundCurve:
    """Evaluable upper bound on |u(t)|_1^2 with a validity horizon.

    ``horizon`` is the time beyond which the bound is invalid or infinite
    (math.inf when the bound holds for all time).  For the arctan kinds the
    curve is the constant tan(lhs) and the horizon itself is included; the
    classical kinds diverge at the horizon, which is excluded.
    """

    kind: str
    horizon: float
    params: dict

    def evaluate(self, t):
        ts = np.asarray(t, dtype=float)
        if np.any(ts < 0):
            raise HorizonExceededError("bound evaluated at negative time", self.horizon)
        inclusive = self.kind.startswith("arctan")
        beyond = ts > self.horizon if inclusive else ts >= self.horizon
        if np.any(beyond):
            raise HorizonExceededError(
                f"bound of kind {self.kind!r} is only valid "
                f"{'through' if inclusive else 'before'} t = {self.horizon:g}",
                self.horizon,
            )
        p = self.params
        if self.kind == "classical_forced":
            h1 = math.sqrt(p["h1_sq"])
            vals = (1.0 + p["h1_sq"]) / np.sqrt(1.0 - p["rate"] * ts * (1.0 + h1) ** 2)
        elif self.kind == "classical_free":
            z0 = p["h1_sq"] ** 2
            vals = np.sqrt(z0 / (1.0 - 2.0 * p["coeff"] * ts * z0))
        else:
            vals = np.full_like(ts, math.tan(p["lhs"]))
        return float(vals) if np.isscalar(t) else vals

    def to_json_dict(self):
        t_hi = self.horizon if math.isfinite(self.horizon) else 1.0
        if self.kind.startswith("classical"):
            t_hi = 0.99 * t_hi
        ts = np.linspace(0.0, t_hi, BOUND_SAMPLES)
        return [{"t": float(t), "value": float(self.evaluate(float(t)))} for t in ts]


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of one criterion: accumulated lhs vs the pi/2 threshold.

    Only ``kind``, ``lhs`` and the certified window ``horizon`` are stored;
    the verdict, margin and bound follow from them.  ``lhs`` is finite and
    ``>= 0``; ``horizon`` may be infinite, but neither NaN nor negative.
    """

    kind: str
    lhs: float
    horizon: float

    threshold = THRESHOLD

    def __post_init__(self):
        if not 0.0 <= self.lhs < math.inf:
            raise ConfigurationError(f"criterion report needs a finite lhs >= 0, got {self.lhs}")
        if not self.horizon >= 0:  # also rejects NaN
            raise ConfigurationError(f"time window must be non-negative, got {self.horizon}")

    @property
    def satisfied(self):
        return self.lhs < self.threshold

    @property
    def margin(self):
        return self.threshold - self.lhs

    @property
    def bound(self):
        return (BoundCurve(kind=self.kind, horizon=self.horizon, params={"lhs": self.lhs})
                if self.satisfied else None)

    def to_json_dict(self):
        b = self.bound
        return {
            "kind": self.kind,
            "lhs": self.lhs,
            "threshold": self.threshold,
            "satisfied": self.satisfied,
            "margin": self.margin,
            "bound_at": [] if b is None else b.to_json_dict(),
            "horizon": b.horizon if b is not None and math.isfinite(b.horizon) else None,
        }

    @classmethod
    def from_json_dict(cls, payload):
        """Rebuild an arctan report from :meth:`to_json_dict` output (bare or
        under ``"report"``).  Only kind, lhs and horizon are read; the verdict,
        margin and bound are recomputed from lhs, never taken from the file."""
        rep = payload.get("report", payload) if isinstance(payload, dict) else {}
        try:
            kind, lhs, horizon = rep["kind"], float(rep["lhs"]), rep.get("horizon")
            horizon = math.inf if horizon is None else float(horizon)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed criterion report: {exc!r}") from exc
        if kind not in ("arctan_free", "arctan_steady", "arctan_timedep"):
            raise ConfigurationError(f"not an arctan criterion report: kind {kind!r}")
        return cls(kind=kind, lhs=lhs, horizon=horizon)


def classical_forced_curve(h1_sq, f_l2, ledger):
    """Riccati-type forced bound (1 + h1_sq) / sqrt(1 - K t (1 + h1)^2)."""
    rate = ledger.forced_growth_rate(f_l2)
    h1 = math.sqrt(h1_sq)
    horizon = math.inf if rate == 0.0 else 1.0 / (rate * (1.0 + h1) ** 2)
    return BoundCurve(kind="classical_forced", horizon=horizon,
                      params={"h1_sq": h1_sq, "rate": rate})


def classical_horizon_forced(h1_sq, f_l2, ledger):
    """Guaranteed-existence window 1 / (K(|f|) (1 + h1_sq))."""
    rate = ledger.forced_growth_rate(f_l2)
    if not all(map(math.isfinite, (h1_sq, f_l2))):
        raise ConfigurationError("horizon inputs must be finite")
    return 1.0 / (rate * (1.0 + h1_sq))


def classical_free_curve(h1_sq, ledger):
    """Force-free Riccati bound on |u(t)|_1^2, from the quartic-norm form."""
    c = ledger.classical_free_coeff
    sq = h1_sq**2  # 0.0 also once a tiny h1_sq underflows
    horizon = math.inf if sq == 0.0 else 1.0 / (2.0 * c * sq)
    return BoundCurve(kind="classical_free", horizon=horizon,
                      params={"h1_sq": h1_sq, "coeff": c})


def classical_horizon_free(h1_sq, nu):
    """Force-free guaranteed window nu^3 / (128 |u0|_1^4), exactly."""
    sq = h1_sq**2  # 0.0 also once a tiny h1_sq underflows
    return math.inf if sq == 0.0 else nu**3 / (128.0 * sq)


def _arctan_lhs(force_term, l2, h1_sq, ledger):
    """The arctan criteria's lhs: force_term + c11 |u0|^2 + arctan(h1_sq)."""
    return force_term + ledger.free_init_coeff * l2**2 + math.atan(h1_sq)


def _arctan_criterion(kind, window, force_term, inputs, ledger):
    """Report of an arctan criterion certifying the window [0, window]."""
    inputs.check_poincare(ledger.lam1)
    return CriterionReport(kind=kind, horizon=window,
                           lhs=_arctan_lhs(force_term, inputs.l2, inputs.h1_sq, ledger))


def arctan_bound_steady(t_end, inputs, ledger):
    """Criterion for a steady force on a finite window [0, t_end].

    lhs = c8 * T * |f|^2 + c9 * |u0|^2 + arctan(|u0|_1^2); when lhs < pi/2
    the report certifies |u(t)|_1^2 <= tan(lhs) for t in [0, T].
    """
    if inputs.f_l2 is None:
        raise ConfigurationError("steady criterion needs the force L2 norm f_l2")
    if not math.isfinite(t_end):  # the report rejects a negative one
        raise ConfigurationError("steady criterion needs a finite window t_end >= 0")
    force_term = ledger.steady_force_coeff * t_end * inputs.f_l2**2
    return _arctan_criterion("arctan_steady", t_end, force_term, inputs, ledger)


def arctan_bound_timedep(t_end, inputs, ledger):
    """Criterion for f in L2 in time; t_end may be infinite.

    lhs = c10 * int |f|^2 + c11 * |u0|^2 + arctan(|u0|_1^2).
    """
    if inputs.int_f_sq is None:
        raise ConfigurationError("time-dependent criterion needs int_f_sq >= 0")
    force_term = ledger.timedep_force_coeff * inputs.int_f_sq
    return _arctan_criterion("arctan_timedep", t_end, force_term, inputs, ledger)


def arctan_bound_free(inputs, ledger):
    """Force-free global criterion: lhs = c11 * |u0|^2 + arctan(|u0|_1^2).

    A satisfied report certifies the time-independent bound tan(lhs) for
    all t > 0.
    """
    return _arctan_criterion("arctan_free", math.inf, 0.0, inputs, ledger)


@dataclass(frozen=True)
class OdeOracle:
    """Trajectory and blow-up time of a scalar comparison ODE."""

    t: np.ndarray
    y: np.ndarray
    blowup_time: Optional[float]


def _ode_rhs(variant, alpha, beta):
    if variant == "cubic":
        return lambda y: alpha + beta * y**3
    if variant == "arctan_form":
        return lambda y: alpha + beta * y * (1.0 + y**2)
    if variant == "square":
        return lambda y: alpha + beta * y**2
    raise ConfigurationError(f"unknown ODE variant {variant!r}")


def ode_comparison_oracle(alpha, beta, y0, t_end, variant="cubic"):
    """Independent high-accuracy integration of y' = alpha + beta y^3.

    Variants: ``cubic`` (alpha + beta y^3), ``arctan_form``
    (alpha + beta y (1 + y^2)), ``square`` (alpha + beta y^2).  The blow-up
    time is located by integrating to a large switch level and adding the
    remaining time as the convergent integral of dt/dy = 1/rhs, which keeps
    the relative error well below 1e-6.
    """
    # imported here: scipy.integrate pulls in scipy's linalg/sparse/optimize
    # tree, which no command needs, so ``import nsreg`` stays lean
    from scipy.integrate import quad, solve_ivp

    if alpha < 0 or y0 < 0:
        raise ConfigurationError("alpha and y0 must be non-negative")
    if not beta > 0:
        raise ConfigurationError("beta must be positive")
    rhs = _ode_rhs(variant, alpha, beta)

    if alpha == 0.0 and y0 == 0.0:
        ts = np.linspace(0.0, t_end, 2000)
        return OdeOracle(t=ts, y=np.zeros_like(ts), blowup_time=None)

    y_switch = max(1e8, 1e4 * (1.0 + y0), (alpha / beta) ** (1.0 / 3.0) * 10.0)
    # upper bound for the blow-up time, used to cap the ODE time span
    t_star_est = quad(lambda y: 1.0 / rhs(y), y0, np.inf, limit=200)[0]

    def f(_t, y):
        return [rhs(y[0])]

    def hit_switch(_t, y):
        return y[0] - y_switch

    hit_switch.terminal = True
    hit_switch.direction = 1.0

    span_end = min(t_end, t_star_est) if math.isfinite(t_end) else t_star_est
    span_end = max(span_end, 1e-30)
    sol = solve_ivp(f, (0.0, span_end), [y0], method="RK45", rtol=1e-11,
                    atol=1e-14, dense_output=True, events=hit_switch,
                    max_step=span_end)
    if sol.t_events[0].size:
        t_reach = float(sol.t_events[0][0])
        tail = quad(lambda y: 1.0 / rhs(y), y_switch, np.inf, limit=200)[0]
        blowup_time = t_reach + tail
        t_hi = min(t_end, t_reach)
    else:
        blowup_time = t_star_est
        t_hi = min(t_end, float(sol.t[-1]))
    ts = np.linspace(0.0, t_hi, 2000)
    ys = sol.sol(ts)[0]
    return OdeOracle(t=ts, y=ys, blowup_time=float(blowup_time))


@dataclass(frozen=True)
class ComparisonRow:
    l2: float
    h1_sq: float
    classical_horizon: float
    criterion_lhs: float
    criterion_satisfied: bool
    margin: float
    printed_lhs: float
    printed_satisfied: bool
    extends_classical: bool


@dataclass(frozen=True)
class ComparisonTable:
    """Classical finite horizon vs the global force-free criterion."""

    rows: tuple
    threshold_l2: float
    h1_sq: float
    t_star: float

    def to_json_dict(self):
        return {
            "h1_sq": self.h1_sq,
            "t_star": self.t_star if math.isfinite(self.t_star) else None,
            "threshold_l2": self.threshold_l2,
            "rows": [
                {**asdict(r), "classical_horizon": (
                    r.classical_horizon if math.isfinite(r.classical_horizon) else None)}
                for r in self.rows
            ],
        }


def interval_comparison(h1_sq, l2_values, ledger, t_star=None):
    """Sweep |u0| at fixed |u0|_1^2: horizon vs global-regularity verdict.

    Each row reports the classical force-free horizon and the arctan
    criterion verdict; ``extends_classical`` flags the regime where the
    criterion certifies all t > 0 while the horizon is finite.  The
    ``printed_*`` columns use the literature's square-root form of the
    criterion with window ``t_star`` (default: the classical horizon, where
    the two forms coincide).  Both are the pinned calibration's
    ``nu^3/128``, whatever the ledger's embedding constants: they become
    ``classical_free_curve(...).horizon`` once the default ledger makes
    c6 exactly 64 (today it is 63.99999999999996).

    ``threshold_l2`` is the largest |u0| the criterion admits at this
    h1_sq: sqrt((pi/2 - arctan(h1_sq)) / c11).
    """
    if h1_sq < 0:
        raise ConfigurationError("h1_sq must be non-negative")
    horizon = classical_horizon_free(h1_sq, ledger.nu)
    used_t_star = horizon if t_star is None else float(t_star)
    if not used_t_star > 0:  # also rejects NaN
        raise ConfigurationError(f"t_star must be positive, got {used_t_star}")
    rows = []
    for l2 in l2_values:
        rep = arctan_bound_free(CriterionInput(l2=float(l2), h1_sq=h1_sq), ledger)
        if math.isfinite(used_t_star):
            printed_arg = math.sqrt(ledger.nu**3 / (128.0 * used_t_star))
        else:
            printed_arg = 0.0
        printed_lhs = _arctan_lhs(0.0, float(l2), printed_arg, ledger)
        rows.append(
            ComparisonRow(
                l2=float(l2),
                h1_sq=h1_sq,
                classical_horizon=horizon,
                criterion_lhs=rep.lhs,
                criterion_satisfied=rep.satisfied,
                margin=rep.margin,
                printed_lhs=printed_lhs,
                printed_satisfied=printed_lhs < THRESHOLD,
                extends_classical=rep.satisfied and math.isfinite(horizon),
            )
        )
    threshold_l2 = math.sqrt((THRESHOLD - math.atan(h1_sq)) / ledger.free_init_coeff)
    return ComparisonTable(rows=tuple(rows), threshold_l2=threshold_l2,
                           h1_sq=h1_sq, t_star=used_t_star)
