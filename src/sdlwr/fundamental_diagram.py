"""Fundamental diagrams and their demand/supply decomposition.

A fundamental diagram is a unimodal flux-density law q = Q(rho) on
[0, rho_jam] with Q(0) = Q(rho_jam) = 0 and a single maximum, the
capacity C = Q(rho_crit).  On top of Q every diagram exposes

* demand   D(rho) = Q(min(rho, rho_crit))   (nondecreasing, sending flow),
* supply   S(rho) = Q(max(rho, rho_crit))   (nonincreasing, receiving flow),

their branch inverses, and the ratio-parameterised density map

    R(gamma) = D^{-1}(C*gamma)  for gamma <= 1,
               S^{-1}(C/gamma)  for gamma > 1,

so that R(0) = 0, R(1) = rho_crit and R(inf) = rho_jam.  On every class
R(1) is rho_crit bit for bit: a demand level at or above C inverts to
the located critical point, where a search would stop anywhere on the
crest, which is flat in floating point.

Each diagram keeps Q(0), Q(rho_crit) and Q(rho_jam) from construction,
each from its own scalar ``flux_curve``: the scalar demand and supply
return the stored Q(rho_crit) at or beyond rho_crit, the same bits as
the hook gives there, and the branch inverses test their ends against
the stored Q(0) and Q(rho_jam).

Every method rests on one hook, ``flux_curve``.  Demand and supply
have one definition, the pair above, for every diagram and in the
simulator's per-cell table alike.  A family may define closed forms for
the ``_CLOSED_FORMS`` (critical point, max wave speed, Q', branch and
fan inverses, per-cell table form); each serves only the class that
defines it.  Any other class, subclasses of the built-ins included,
gets the generic method over its own hook.

Units are fixed package-wide: density in veh/km, flux in veh/s, length
in km and time in s.  Speeds are therefore km/s; multiply by 1000 for
m/s.  Constructors state the units of every parameter they accept.

Three concrete families are provided: the parabolic Greenshields law,
the triangular/trapezoidal law used by the cell transmission model, and
the Kerner-Konhauser law with its logistic speed function.  A
Kerner-Konhauser diagram folds its jam density, logistic shape and speed
scale into three coefficients (centre, slope and gain) once, at
construction, so that its flux takes one division.  It also tabulates Q
once on each branch, and each branch inversion starts its Halley search
where the table puts the level, next to the root.

Scalars take a scalar path: a Python float given to ``flux_curve``
comes back as a plain float, computed without building a numpy array,
with the same bits as the array path gives for that density; ``flux``,
``demand``, ``supply`` and ``speed`` return plain floats for any float,
``np.float64`` included.  Each family evaluates one formula on both
paths.  Its exponential is ``np.exp`` even on a float, because
``math.exp`` differs from numpy's exp in the last bit on a few per cent
of arguments, and the simulator's per-cell table, which works on
arrays, must agree with the scalar methods bit for bit.
"""

from __future__ import annotations

import abc
import bisect
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FundamentalDiagram",
    "GreenshieldsDiagram",
    "TriangularDiagram",
    "KernerKonhauserDiagram",
]

# Absolute tolerance for flux comparisons (veh/s).  Every classification
# or tie decision in the package uses this one constant.
FLUX_TOL = 1e-9

# Densities may drift this far beyond [0, rho_jam] before we refuse them;
# smaller excursions are clamped (floating-point drift from the simulator).
DENSITY_SLACK = 1e-9

# Bracket width for the golden-section search and for ``_newton``, which
# bisects where it has no usable slope, relative to rho_jam.
_SEARCH_TOL = 1e-10

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# The names a family may define in closed form; see the module docstring.
_CLOSED_FORMS = ("_locate_critical", "_scan_max_speed", "derivative",
                 "_invert_branch", "_invert_fan", "_table_form")


def _scalarize(x):
    """Floats and 0-d arrays come back as plain floats; real arrays pass
    through."""
    if isinstance(x, float):
        return float(x)
    arr = np.asarray(x)
    return float(arr) if arr.shape == () else arr


def _floor_tol(tol: float, lo: float, hi: float) -> float:
    """``tol``, at least 8 ulps of [lo, hi]: a search ends if it underflows."""
    return max(tol, 8.0 * math.ulp(max(abs(lo), abs(hi))))


def _golden_section_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Locate the maximum of a unimodal function on [lo, hi].

    Plain golden-section search, shrinking the bracket until its width
    drops below ``tol``.  Returns (argmax, max).
    """
    tol = _floor_tol(tol, lo, hi)
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _newton(value_slope, level, lo, hi, x, rising, tol):
    """Newton from ``x`` to where a monotone f, ``value_slope(x) = (f, f')``,
    meets ``level`` in [lo, hi]; the package's one bracketed root search.

    Each evaluation keeps the part of the bracket [lo, hi] that holds the
    root: above x when f < level on a rising f, or f >= level on a
    falling one.  A step out of the bracket, or a slope that is 0 or NaN,
    bisects it instead, so a NaN slope from the start gives plain
    bisection: the bracket's midpoint once it is narrower than ``tol``.
    Given ``(f, f', f'')`` it takes Halley steps: the Newton step over
    1 - (f - level) f''/(2 f'^2), while that exceeds 1/2.  It stops at a
    step shorter than tol/2 where the residual over the slope, the Newton
    step, is shorter than tol/2 too."""
    tol = _floor_tol(tol, lo, hi)
    while hi - lo > tol:
        values = value_slope(x)
        f, slope = values[0], values[1]
        lo, hi = (x, hi) if (f < level) == rising else (lo, x)
        step = (f - level) / slope if slope else math.inf
        if len(values) > 2 and slope:
            damping = 1.0 - 0.5 * step * values[2] / slope
            if damping > 0.5:
                step /= damping
        short = abs(step) < 0.5 * tol
        if short and abs(f - level) < 0.5 * tol * abs(slope):
            return x - step
        # a short Halley step with a long Newton step sits next to a flat
        # point of f, away from the root: bisect rather than stall there
        x = x - step if lo < x - step < hi and not short else 0.5 * (lo + hi)
    return x


def _as_density(rho):
    """Floats pass through for the scalar path; anything else becomes a
    float array."""
    return rho if isinstance(rho, float) else np.asarray(rho, dtype=float)


def _minimum(a, b):
    """``np.minimum``, as the builtin ``min`` when ``a`` is a float."""
    return min(a, b) if isinstance(a, float) else np.minimum(a, b)


def _maximum(a, b):
    """``np.maximum``, as the builtin ``max`` when ``a`` is a float."""
    return max(a, b) if isinstance(a, float) else np.maximum(a, b)


def _speed_of_flux(rho, q, rho_jam, v0):
    """Mean speed q/rho, taking the rho -> 0 limit v0 below 1e-12*rho_jam.

    The parameters may be scalars or per-cell arrays; the simulator's
    per-cell table and ``FundamentalDiagram.speed`` both evaluate it.
    """
    tiny = rho < 1e-12 * rho_jam
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(tiny, v0, q / np.where(tiny, 1.0, rho))


class FundamentalDiagram(abc.ABC):
    """Unimodal flux-density law with demand/supply transforms.

    Subclasses set ``rho_jam`` and implement ``flux_curve``; the critical
    point is located in ``__init__``, and a curve found not to be
    unimodal, or whose capacity or max wave speed is not finite and
    positive, is refused.  A class that does not define one of the
    ``_CLOSED_FORMS`` itself gets this class's generic method for it.
    Instances are immutable after construction and safe to share between
    workers.
    """

    #: absolute tolerance on |Q(0)| and |Q(rho_jam)| for this family (veh/s)
    zero_flux_tol: float = FLUX_TOL

    #: per-cell table form for the simulator: (formula, attribute names),
    #: the flux formula and the diagram attributes it takes, in order;
    #: None: the table evaluates the diagram's own ``flux_curve``
    _table_form = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for name in set(_CLOSED_FORMS) - vars(cls).keys():
            setattr(cls, name, vars(FundamentalDiagram)[name])

    def __init__(self) -> None:
        """Locate the critical point, scan the max wave speed, and keep
        Q(0), Q(rho_crit) and Q(rho_jam), each from the scalar
        ``flux_curve``: the scalar ``demand`` and ``supply`` return Q(rho_crit)
        at or beyond rho_crit, and the branch inverses' end tests read
        Q(0) and Q(rho_jam), so none of the three is evaluated again."""
        self.rho_crit, self.capacity = self._locate_critical()
        self._max_speed = self._scan_max_speed()
        if not (0 < self.capacity < math.inf and 0 < self._max_speed < math.inf):
            raise ValueError(f"degenerate diagram: capacity {self.capacity!r} "
                             f"veh/s, max wave speed {self._max_speed!r} km/s")
        # Q(rho_crit) is not the capacity: a triangle's differs in the last bit
        self._q_zero, self._q_crit, self._q_jam = (
            float(self.flux_curve(rho)) for rho in (0.0, self.rho_crit, self.rho_jam))

    # -- family hooks -------------------------------------------------

    @abc.abstractmethod
    def flux_curve(self, rho):
        """Q(rho) without domain checks; accepts scalars or arrays.

        This is the one hook every generic inversion, search and
        derivative of the diagram calls.  Override it to define a family:
        the built-in closed forms never carry over to a subclass.  The
        built-in families answer a float with a float carrying the same
        bits as the array path (see the module docstring for why that
        rules out ``math.exp``).
        """

    def _locate_critical(self) -> tuple[float, float]:
        return _golden_section_max(
            self.flux_curve, 0.0, self.rho_jam, _SEARCH_TOL * self.rho_jam
        )

    def derivative(self, rho: float, side: int = 0) -> float:
        """Q'(rho) by central finite difference (step 1e-6*rho_jam).

        ``side`` selects the one-sided quotient (-1 from below, +1 from
        above) where it matters; smooth families ignore it beyond domain
        clipping at the ends.
        """
        h = 1e-6 * self.rho_jam
        if side == 0:
            lo = max(rho - h, 0.0)
            hi = min(rho + h, self.rho_jam)
        elif side < 0:
            lo, hi = max(rho - h, 0.0), rho
        else:
            lo, hi = rho, min(rho + h, self.rho_jam)
        return float(self.flux_curve(hi) - self.flux_curve(lo)) / (hi - lo)

    # -- shared interface ---------------------------------------------

    def _check_density(self, rho):
        """Clamp tiny drift beyond [0, rho_jam]; reject real violations."""
        lo, hi = -DENSITY_SLACK, self.rho_jam + DENSITY_SLACK
        r = _as_density(rho)
        scalar = isinstance(r, float)
        # written so that NaN fails it
        if not (lo <= r <= hi if scalar else np.all((r >= lo) & (r <= hi))):
            raise ValueError(
                f"density outside [0, {self.rho_jam}] veh/km: {rho!r}"
            )
        if scalar:
            return min(max(r, 0.0), self.rho_jam)
        return np.clip(r, 0.0, self.rho_jam)

    def flux(self, rho):
        """Q(rho) in veh/s for rho in [0, rho_jam] veh/km."""
        return _scalarize(self.flux_curve(self._check_density(rho)))

    def demand(self, rho):
        """Sending flow D(rho) = Q(min(rho, rho_crit)); nondecreasing."""
        r = self._check_density(rho)
        if isinstance(r, float) and r >= self.rho_crit:
            return self._q_crit
        return _scalarize(self.flux_curve(_minimum(r, self.rho_crit)))

    def supply(self, rho):
        """Receiving flow S(rho) = Q(max(rho, rho_crit)); nonincreasing."""
        r = self._check_density(rho)
        if isinstance(r, float) and r <= self.rho_crit:
            return self._q_crit
        return _scalarize(self.flux_curve(_maximum(r, self.rho_crit)))

    def speed(self, rho):
        """Mean speed v = Q(rho)/rho in km/s, with the rho -> 0 limit."""
        r = self._check_density(rho)
        return _scalarize(
            _speed_of_flux(r, self.flux_curve(r), self.rho_jam,
                           self.derivative(0.0, side=+1))
        )

    def inv_demand(self, d: float) -> float:
        """The density in [0, rho_crit] with D(rho) = d.

        The infimum of {rho : D(rho) >= d}, found as the module docstring
        says; rho_crit for d >= C (on a trapezoidal plateau its left edge).
        """
        return self._branch_inverse(d, 0.0, self.rho_crit, rising=True)

    def inv_supply(self, s: float) -> float:
        """The density in [rho_crit, rho_jam] with S(rho) = s.

        The supremum of {rho : S(rho) >= s}; at s = C on a trapezoidal
        plateau this is the right edge, keeping the decreasing branch
        inverse continuous.
        """
        return self._branch_inverse(s, self.rho_crit, self.rho_jam, rising=False)

    def rho_of_gamma(self, gamma: float) -> float:
        """Density of the state with demand/supply ratio gamma in [0, inf]."""
        if gamma < 0.0 or math.isnan(gamma):
            raise ValueError(f"gamma must be in [0, inf], got {gamma!r}")
        if gamma <= 1.0:
            return self.inv_demand(self.capacity * gamma)
        return self.inv_supply(self.capacity / gamma)  # C/inf is 0.0

    def max_wave_speed(self) -> float:
        """max |Q'| over the diagram (km/s); the CFL characteristic speed."""
        return self._max_speed

    # -- internals -----------------------------------------------------

    def _branch_inverse(self, level, lo, hi, rising):
        self._check_flux_level(level)
        if (self._q_zero if rising else self._q_jam) >= level:
            return lo if rising else hi
        if rising and level >= self.capacity:
            return self.rho_crit
        return min(max(self._invert_branch(level, lo, hi, rising), lo), hi)

    def _invert_branch(self, level, lo, hi, rising):
        """Where the rising or falling branch on [lo, hi] meets ``level``,
        by bisection (no slope)."""
        return _newton(lambda rho: (self.flux_curve(rho), math.nan), level,
                       lo, hi, 0.5 * (lo + hi), rising, _SEARCH_TOL * self.rho_jam)

    def _invert_fan(self, xi, lo, hi, start=None):
        """Where Q'(rho) = xi on [lo, hi]; Q' is nonincreasing there.

        Bisects on the rising -Q', so that where Q' = xi on an interval
        (a trapezoid's plateau at xi = 0) the search ends at its left end.
        A search that takes slopes starts at ``start``, a density near the
        root, when given one; bisection gains nothing from it and ignores it.
        """
        return _newton(lambda rho: (-self.derivative(rho), math.nan), -xi,
                       lo, hi, 0.5 * (lo + hi), True, _SEARCH_TOL * self.rho_jam)

    def _check_flux_level(self, value: float) -> None:
        if not (-FLUX_TOL <= value <= self.capacity + FLUX_TOL):
            raise ValueError(
                f"flux level {value!r} outside [0, capacity={self.capacity}] veh/s"
            )

    def _scan_max_speed(self) -> float:
        """max |Q'| by finite differences on a 4097-point scan.

        The scan doubles as the unimodality check of the located
        critical point: a scanned flux above the capacity (beyond
        tolerance) means the search settled on a lower hump.
        """
        rho = np.linspace(0.0, self.rho_jam, 4097)
        h = 1e-6 * self.rho_jam
        lo = np.maximum(rho - h, 0.0)
        hi = np.minimum(rho + h, self.rho_jam)
        q_hi = self.flux_curve(hi)
        if np.max(q_hi) > self.capacity * (1.0 + 1e-6) + FLUX_TOL:
            raise ValueError(
                "flux profile is not unimodal: a sample exceeds the located "
                f"capacity {self.capacity:.6g} veh/s"
            )
        # a step h that underflows gives NaN slopes, refused in __init__
        with np.errstate(divide="ignore", invalid="ignore"):
            slopes = (q_hi - self.flux_curve(lo)) / (hi - lo)
        return float(np.max(np.abs(slopes)))


# Family flux formulas.  Each takes its parameters as scalars (the
# diagram's own methods) or as per-cell arrays (the simulator's table),
# so both paths evaluate one floating-point expression.  Given ``out``,
# an array distinct from ``rho``, a formula runs the same operations in
# the same order in place there and returns ``out``, with the same bits;
# the simulator's march passes its own array, so that a pass allocates
# at most one temporary.  An ``out`` path takes no Python-float operand:
# numpy converts one on every call, at about the cost of the ufunc itself
# on a 600-cell array, so its constants are the 0-d arrays below, 1/x is
# ``np.reciprocal`` and 1 + x is x + 1, all with the same bits.

_ONE = np.array(1.0)


def _greenshields_flux(rho, v_free, rho_jam, out=None):
    if out is None:
        return v_free * rho * (1.0 - rho / rho_jam)
    np.divide(rho, rho_jam, out=out)
    np.subtract(_ONE, out, out=out)
    return np.multiply(v_free * rho, out, out=out)


@dataclass
class GreenshieldsDiagram(FundamentalDiagram):
    """Parabolic law Q(rho) = v_free * rho * (1 - rho/rho_jam).

    Args:
        v_free: free-flow speed (km/s; divide m/s by 1000).
        rho_jam: jam density (veh/km).

    The critical point is exact: rho_crit = rho_jam/2 and
    capacity = v_free*rho_jam/4.
    """

    v_free: float
    rho_jam: float

    _table_form = (_greenshields_flux, ("v_free", "rho_jam"))

    def __post_init__(self):
        if not (0 < self.v_free < math.inf and 0 < self.rho_jam < math.inf):
            raise ValueError("v_free and rho_jam must be positive and finite")
        super().__init__()

    def flux_curve(self, rho):
        return _greenshields_flux(rho, self.v_free, self.rho_jam)

    def _locate_critical(self):
        return 0.5 * self.rho_jam, 0.25 * self.v_free * self.rho_jam

    def derivative(self, rho, side=0):
        # exact: Q'(rho) = v_free * (1 - 2 rho / rho_jam)
        return self.v_free * (1.0 - 2.0 * rho / self.rho_jam)

    def _scan_max_speed(self):
        return self.v_free

    def _invert_branch(self, level, lo, hi, rising):
        # the roots rho and rho_jam - rho of Q = level, rho free of cancellation
        root = math.sqrt(max(1.0 - level / self.capacity, 0.0))
        rho = 2.0 * level / (self.v_free * (1.0 + root))
        return rho if rising else self.rho_jam - rho

    def _invert_fan(self, xi, lo, hi, start=None):
        return self.rho_crit * (1.0 - xi / self.v_free)


# A triangular law's D and S evaluate Q(rho_crit), which takes the
# cancelling rho_jam - rho_crit, so they sit up to (1 + v_cong/v_free)
# ulp(C) off C (never more than C itself); laws whose slope ratio lets
# that reach this share of FLUX_TOL are refused.
_TRIANGULAR_ROUNDING_LIMIT = FLUX_TOL / 8


def _triangular_flux(rho, v_free, v_cong, rho_jam, q_max, out=None):
    if out is None:
        return _minimum(_minimum(v_free * rho, v_cong * (rho_jam - rho)), q_max)
    np.subtract(rho_jam, rho, out=out)
    np.multiply(v_cong, out, out=out)
    np.minimum(v_free * rho, out, out=out)
    return np.minimum(out, q_max, out=out)


@dataclass
class TriangularDiagram(FundamentalDiagram):
    """Triangular/trapezoidal law Q = min(v_free*rho, v_cong*(rho_jam-rho), q_max).

    Args:
        v_free: free-flow branch slope (km/s).
        rho_jam: jam density (veh/km).
        q_max: flux ceiling (veh/s); leave infinite for a pure triangle.
        v_cong: congested branch slope magnitude (km/s); defaults to
            v_free (symmetric triangle).

    rho_crit is the left plateau edge.  When the ceiling is inactive the
    slopes satisfy v_cong = v_free*rho_crit/(rho_jam - rho_crit).
    Demand and supply equal the cell transmission model's
    min(v_free*rho, C) and min(v_cong*(rho_jam - rho), C) to rounding:
    up to (1 + v_cong/v_free) ulp(C), which must stay within FLUX_TOL/8,
    so a congested slope far steeper than the free one is refused.
    """

    v_free: float
    rho_jam: float
    q_max: float = math.inf
    v_cong: float | None = None

    zero_flux_tol = 0.0  # Q(0) and Q(rho_jam) are exactly zero

    _table_form = (_triangular_flux, ("v_free", "v_cong", "rho_jam", "q_max"))

    def __post_init__(self):
        if self.v_cong is None:
            self.v_cong = self.v_free
        if not (0 < self.v_free < math.inf and 0 < self.rho_jam < math.inf
                and 0 < self.v_cong < math.inf):
            raise ValueError("v_free, v_cong and rho_jam must be positive and finite")
        if not self.q_max > 0:  # infinite: no ceiling
            raise ValueError("q_max must be positive")
        # apex of the unclipped triangle
        apex = self.v_cong * self.rho_jam / (self.v_free + self.v_cong)
        self._peak = min(self.q_max, self.v_free * apex)
        super().__init__()
        ratio = self.v_cong / self.v_free
        rounding = min(self.capacity, (1.0 + ratio) * math.ulp(self.capacity))
        if rounding > _TRIANGULAR_ROUNDING_LIMIT:
            raise ValueError(
                f"slope ratio v_cong/v_free = {ratio:.3g} puts demand and supply "
                f"up to {rounding:.3g} veh/s off capacity {self.capacity:.6g} veh/s, "
                f"beyond FLUX_TOL/8 = {_TRIANGULAR_ROUNDING_LIMIT:.3g} veh/s"
            )

    def flux_curve(self, rho):
        return _triangular_flux(_as_density(rho), self.v_free, self.v_cong,
                                self.rho_jam, self.q_max)

    def _locate_critical(self):
        return self._peak / self.v_free, self._peak

    def derivative(self, rho, side=0):
        """Branch slope, one-sided at a kink: from above if side > 0."""
        eps = 1e-12 * self.rho_jam
        right = self.rho_jam - self._peak / self.v_cong
        # a pure triangle has no plateau: its apex turns onto the congested branch
        plateau = 0.0 if right - self.rho_crit > eps else -self.v_cong
        if abs(rho - self.rho_crit) <= eps:
            return self.v_free if side <= 0 else plateau
        if abs(rho - right) <= eps:
            return plateau if side <= 0 else -self.v_cong
        if rho < self.rho_crit:
            return self.v_free
        return -self.v_cong if rho > right else 0.0

    def _scan_max_speed(self):
        return max(self.v_free, self.v_cong)

    def _invert_branch(self, level, lo, hi, rising):
        # the linear branches, plateau edges at C; the step Q' leaves the fan to bisect
        return level / self.v_free if rising else self.rho_jam - level / self.v_cong


# Constants of the Kerner-Konhauser speed function.  The logistic shape
# (0.25, 0.06) and the offset 3.72e-6 place the zero of V just above the
# per-lane jam density.
_KK_GAIN = 5.0461
_KK_MIDPOINT = 0.25
_KK_WIDTH = 0.06
_KK_OFFSET = 3.72e-6
_KK_OFFSET_0D = np.array(_KK_OFFSET)  # for _kk_flux's out path

# Nodes of a Kerner-Konhauser diagram's start table on [0, rho_crit] and on
# [rho_crit, rho_jam], uniform on each.
_KK_FREE_NODES = 33
_KK_CONGESTED_NODES = 129


def _exp(x):
    """``np.exp``, as a plain float when ``x`` is a float, so that the
    arithmetic around it stays in floats rather than numpy scalars.

    Never ``math.exp``: it differs from numpy's exp in the last bit on a
    few per cent of arguments.  The formulas' ``out`` paths call
    ``np.exp`` in place instead, on the same arguments.
    """
    return float(np.exp(x)) if isinstance(x, float) else np.exp(x)


def _kk_flux(rho, centre, slope, gain, out=None):
    # _kk_slopes repeats these operations, so its Q has the same bits
    if out is None:
        return rho * ((1.0 / (1.0 + _exp((rho - centre) * slope)) - _KK_OFFSET) * gain)
    np.subtract(rho, centre, out=out)
    np.multiply(out, slope, out=out)
    np.exp(out, out=out)
    np.add(out, _ONE, out=out)
    np.reciprocal(out, out=out)
    np.subtract(out, _KK_OFFSET_0D, out=out)
    np.multiply(out, gain, out=out)
    return np.multiply(rho, out, out=out)


def _kk_slopes(rho, fd):
    # Q, Q', Q'' from one exp e (Q as _kk_flux): V' = -k, V'' = k (e - 1) L slope
    e = _exp((rho - fd._centre) * fd._slope)
    logistic = 1.0 / (1.0 + e)
    v = (logistic - _KK_OFFSET) * fd._gain
    k = fd._gain * fd._slope * e * logistic * logistic
    curl = rho * (e - 1.0) * logistic * fd._slope
    return rho * v, v - rho * k, k * (curl - 2.0)


@dataclass
class KernerKonhauserDiagram(FundamentalDiagram):
    """Kerner-Konhauser law for a road with ``lanes`` identical lanes.

    The speed function is

        V(rho) = 5.0461 * [ (1 + exp((rho/(a*rho_jam_lane) - 0.25)/0.06))^-1
                            - 3.72e-6 ] * (unit_len / tau)

    and Q = rho * V.  With the defaults (tau = 5 s, unit_len = 0.028 km,
    rho_jam_lane = 180 veh/km/lane) the free-flow speed is V(0) = 27.83 m/s.
    Doubling ``lanes`` doubles capacity exactly: Q(rho, 2a) = 2 Q(rho/2, a).

    Each diagram evaluates Q from three coefficients it computes once,
    with rho_jam = a * rho_jam_lane:

        Q = rho * ((1/(1 + exp((rho - centre) * slope)) - 3.72e-6) * gain),
        centre = 0.25 rho_jam, slope = 1/(0.06 rho_jam),
        gain = 5.0461 (unit_len / tau),

    eight numpy passes with one division; the simulator's per-cell table
    takes the three as its columns, and the Newton steps take Q' and Q''
    from them.

    Construction also tabulates Q from the three, on 33 uniform nodes over
    [0, rho_crit] and 129 over [rho_crit, rho_jam].  A branch inversion
    finds the level's interval in the table by one bisection and starts
    Halley's search at the level's linear interpolation there, or, on the
    interval next to the crest, at its interpolation as a parabola with
    its vertex at rho_crit: a linear start there can fall within the
    search tolerance of the crest, where Halley's steps stall.  A fan
    inversion starts at the ``start`` it is given, the density of the
    neighbouring sample, or else at the fan's midpoint.

    Args:
        lanes: lane count a (dimensionless).
        rho_jam_lane: per-lane jam density (veh/km/lane).
        tau: relaxation time (s).
        unit_len: vehicle-spacing unit l (km); l/tau sets the speed scale.

    Q(rho_jam) is not exactly zero for this family (the logistic offset
    leaves ~3.4e-8 veh/s per lane); ``zero_flux_tol`` reflects that.
    """

    lanes: float = 1.0
    rho_jam_lane: float = 180.0
    tau: float = 5.0
    unit_len: float = 0.028

    zero_flux_tol = 1e-7

    _table_form = (_kk_flux, ("_centre", "_slope", "_gain"))

    def __post_init__(self):
        if not (0 < self.lanes < math.inf and 0 < self.rho_jam_lane < math.inf):
            raise ValueError("lanes and rho_jam_lane must be positive and finite")
        if not (0 < self.tau < math.inf and 0 < self.unit_len < math.inf):
            raise ValueError("tau and unit_len must be positive and finite")
        self.rho_jam = self.lanes * self.rho_jam_lane
        self._slope = 1.0 / (_KK_WIDTH * self.rho_jam)
        self._centre = _KK_MIDPOINT * self.rho_jam
        self._gain = _KK_GAIN * (self.unit_len / self.tau)
        if math.isinf(self._slope):  # else Q(centre) = 0 * inf, NaN
            raise ValueError(f"degenerate diagram: rho_jam {self.rho_jam!r} veh/km "
                             "overflows the logistic slope 1/(0.06 rho_jam)")
        super().__init__()
        # the start table: (nodes, fluxes) with the fluxes ascending, so the
        # congested nodes run from rho_jam down to rho_crit
        self._free_table = self._tabulate(0.0, self.rho_crit, _KK_FREE_NODES)
        self._congested_table = self._tabulate(self.rho_jam, self.rho_crit,
                                               _KK_CONGESTED_NODES)

    def _tabulate(self, start, stop, count):
        nodes = np.linspace(start, stop, count)
        fluxes = _kk_flux(nodes, self._centre, self._slope, self._gain)
        return nodes.tolist(), fluxes.tolist()

    def flux_curve(self, rho):
        return _kk_flux(_as_density(rho), self._centre, self._slope, self._gain)

    def derivative(self, rho, side=0):
        # exact: Q' of the Newton steps, so the fan edge at rho = 0 is V(0)
        return _kk_slopes(rho, self)[1]

    def _invert_branch(self, level, lo, hi, rising):
        # the crest, where Q = C has a double root, in closed form; elsewhere
        # Halley from the start table's interpolation of the level
        if level >= self.capacity:
            return self.rho_crit
        nodes, fluxes = self._free_table if rising else self._congested_table
        i = min(max(bisect.bisect_right(fluxes, level), 1), len(fluxes) - 1)
        (x0, x1), (q0, q1) = nodes[i - 1:i + 1], fluxes[i - 1:i + 1]
        if i < len(fluxes) - 1:
            start = x0 + (level - q0) / (q1 - q0) * (x1 - x0)
        else:  # next to the crest Q is a parabola with its vertex at x1
            start = x1 + (x0 - x1) * math.sqrt((q1 - level) / (q1 - q0))
        return _newton(lambda rho: _kk_slopes(rho, self), level, lo, hi,
                       min(max(start, lo), hi), rising, _SEARCH_TOL * self.rho_jam)

    def _invert_fan(self, xi, lo, hi, start=None):
        return _newton(lambda rho: _kk_slopes(rho, self)[1:], xi, lo, hi,
                       0.5 * (lo + hi) if start is None else start, False,
                       _SEARCH_TOL * self.rho_jam)
