"""Channel parameterization, standard-form reduction, regime classification.

Standard form: unit noise variances, unit direct gains, complex cross gain
`a` at the cognitive receiver, nonnegative real cross gain `b` at the
primary receiver, powers p1 (cognitive) and p2 (primary) in linear SNR
units. A raw four-gain channel with arbitrary noise variances reduces to
this form whenever both direct links are nonzero.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field

from .errors import DegenerateDirectLink
from .util import units

# the one tolerance for degenerate gains: the S, Z and degraded channels and
# the channel-transformation constraints
DEGENERACY_TOL = 1e-9


class CapacityResult(str, enum.Enum):
    """Which known capacity result applies, if any (first match wins)."""

    Z_TRIVIAL = "z-trivial"
    WEAK = "weak"
    VERY_STRONG = "very-strong"
    PDC = "primary-decodes-cognitive"
    S_CHANNEL = "s-channel"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class RawChannel:
    """Four-gain channel with per-receiver noise variances and raw powers."""

    h11: complex
    h12: complex
    h21: complex
    h22: complex
    sigma1_sq: float
    sigma2_sq: float
    p1_raw: float
    p2_raw: float

    def __post_init__(self):
        if not (self.sigma1_sq > 0 and self.sigma2_sq > 0):
            raise ValueError("noise variances must be positive")
        if self.p1_raw < 0 or self.p2_raw < 0:
            raise ValueError("powers must be nonnegative")
        vals = [self.h11, self.h12, self.h21, self.h22,
                self.sigma1_sq, self.sigma2_sq, self.p1_raw, self.p2_raw]
        if not all(math.isfinite(abs(complex(v))) for v in vals):
            raise ValueError("all fields must be finite")


@dataclass(frozen=True)
class ChannelParams:
    """Standard-form channel (a, b, p1, p2); b is nonnegative real."""

    a: complex
    b: float
    p1: float
    p2: float

    def __post_init__(self):
        if self.b < 0:
            raise ValueError("b must be nonnegative")
        if self.p1 < 0 or self.p2 < 0:
            raise ValueError("powers must be nonnegative")
        if not (math.isfinite(abs(self.a)) and math.isfinite(self.b)
                and math.isfinite(self.p1) and math.isfinite(self.p2)):
            raise ValueError("all fields must be finite")
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", float(self.b))

    def to_json_dict(self) -> dict:
        return {"a_re": self.a.real, "a_im": self.a.imag,
                "b": self.b, "p1": self.p1, "p2": self.p2}

    @classmethod
    def from_json_dict(cls, d: dict) -> "ChannelParams":
        return cls(complex(d["a_re"], d.get("a_im", 0.0)), d["b"], d["p1"], d["p2"])


@dataclass(frozen=True)
class RegimeReport:
    """Regime flags plus signed condition margins.

    Margin keys follow the atlas CSV column ids: "5" (very strong), "31a"
    and "31b" (primary decodes cognitive), "35" and "36" (S-channel
    branches). Each margin is LHS - RHS of the condition as an inequality;
    "5", "31a", "31b", "36" are satisfied when >= 0, "35" when <= 0.
    """

    weak: bool
    strong: bool
    very_strong: bool
    pdc: bool
    s_channel: bool
    z_channel: bool
    degraded: bool
    capacity_known: CapacityResult
    margins: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "weak": self.weak, "strong": self.strong,
            "very_strong": self.very_strong, "pdc": self.pdc,
            "s_channel": self.s_channel, "z_channel": self.z_channel,
            "degraded": self.degraded,
            "capacity_known": self.capacity_known.value,
            "margins": dict(self.margins),
        }


def to_standard_form(raw: RawChannel) -> ChannelParams:
    """Reduce a raw channel to standard form.

    Scales each output by its noise standard deviation and absorbs the
    direct-link gains and phases into the inputs, leaving unit noise and
    unit direct gains. Fails when a direct gain is zero: the reduction is
    then not power-preserving (the channel degenerates to a broadcast or
    point-to-point configuration instead).
    """
    if raw.h11 == 0 or raw.h22 == 0:
        raise DegenerateDirectLink("standard form needs h11 != 0 and h22 != 0")
    s1 = math.sqrt(raw.sigma1_sq)
    s2 = math.sqrt(raw.sigma2_sq)
    p1 = abs(raw.h11) ** 2 * raw.p1_raw / raw.sigma1_sq
    p2 = abs(raw.h22) ** 2 * raw.p2_raw / raw.sigma2_sq
    phase = cmath.exp(1j * (-cmath.phase(raw.h11) + cmath.phase(raw.h12))) \
        if raw.h12 != 0 else 1.0
    a = (raw.h12 / s1) * (s2 / raw.h22) * phase
    b = (abs(raw.h21) / s2) * (s1 / abs(raw.h11))
    return ChannelParams(a, b, p1, p2)


def very_strong_condition(ch: ChannelParams) -> tuple[bool, float]:
    """Very-strong-interference test with its signed margin.

    Evaluates (|a|^2-1)p2 - (|b|^2-1)p1 - 2|a-|b||sqrt(p1 p2) >= 0; the
    condition additionally requires |b| > 1. Returns (flag, margin) where
    margin is the LHS regardless of the |b| gate.
    """
    u = units(ch)
    margin = float(u.power((abs(ch.a) ** 2 - 1.0) * u.p2
                           - (ch.b ** 2 - 1.0) * u.p1
                           - 2.0 * abs(ch.a - ch.b) * math.sqrt(u.p1 * u.p2)))
    return (margin >= 0.0 and ch.b > 1.0), margin


def pdc_margins(ch: ChannelParams) -> tuple[float, float]:
    """Signed margins of the two primary-decodes-cognitive conditions.

    First: p2|1-a b|^2 - [(b^2-1)(1+p1+|a|^2 p2) - p1 p2 |1-a b|^2].
    Second: p2|1-a b|^2 - (b^2-1)(1+p1+|a|^2 p2 + 2 Re{a} sqrt(p1 p2)).
    Both >= 0 (with b > 1) puts the channel in the PDC regime. The first
    is quadratic in the powers, with the unit noise n as a power.
    """
    u = units(ch)
    d = abs(1.0 - ch.a * ch.b) ** 2
    bsq1 = ch.b ** 2 - 1.0
    base = u.n + u.p1 + abs(ch.a) ** 2 * u.p2
    m_a = u.p2 * d * u.n - (bsq1 * base * u.n - u.p1 * u.p2 * d)
    m_b = u.p2 * d - bsq1 * (base + 2.0 * ch.a.real * math.sqrt(u.p1 * u.p2))
    return float(u.power(m_a, 2)), float(u.power(m_b))


def s_channel_thresholds(p1: float, p2: float) -> tuple[float, float]:
    """The two b-thresholds bracketing the unknown S-channel band.

    Capacity is known for b <= low (perfect pre-cancellation branch) and
    for b >= high (no-pre-coding branch). low = sqrt(1 + p2/(1+p1)),
    high = sqrt(p1 p2) + sqrt(p1 p2 + p2 + 1); +inf past the double range.
    Both in the noise units of power sqrt(p1 p2), the scale of high.
    """
    u = units(ChannelParams(0.0, 0.0, math.sqrt(p1) * math.sqrt(p2), 0.0))
    s1, s2, n = p1 * u.n, p2 * u.n, u.n
    low = math.sqrt(1.0 + s2 / (n + s1))
    prod = s1 * s2
    high = float(u.power(math.sqrt(prod) + math.sqrt(prod + s2 * n + n * n)))
    return low, high


def is_s_channel(ch: ChannelParams) -> bool:
    """a = 0 (up to DEGENERACY_TOL)."""
    return abs(ch.a) <= DEGENERACY_TOL


def is_degraded(ch: ChannelParams) -> bool:
    """Real a = 1/b > 0 (up to DEGENERACY_TOL)."""
    return (abs(ch.a.imag) <= DEGENERACY_TOL and ch.a.real > 0.0
            and abs(ch.a.real * ch.b - 1.0) <= DEGENERACY_TOL)


def classify(ch: ChannelParams) -> RegimeReport:
    """Full regime classification with condition margins.

    capacity_known picks the first matching regime in the fixed order
    z-trivial, weak, very-strong, primary-decodes-cognitive, s-channel,
    unknown; overlapping regimes keep all their flags set.
    """
    weak = ch.b <= 1.0
    strong = not weak
    vs_flag, m5 = very_strong_condition(ch)
    m31a, m31b = pdc_margins(ch)
    pdc = strong and m31a >= 0.0 and m31b >= 0.0
    s_channel = is_s_channel(ch)
    z_channel = ch.b <= DEGENERACY_TOL
    degraded = is_degraded(ch)

    s_low, s_high = s_channel_thresholds(ch.p1, ch.p2)
    m35 = ch.b - s_low
    m36 = ch.b - s_high
    s_known = s_channel and (ch.b <= s_low or ch.b >= s_high)

    if z_channel:
        known = CapacityResult.Z_TRIVIAL
    elif weak:
        known = CapacityResult.WEAK
    elif vs_flag:
        known = CapacityResult.VERY_STRONG
    elif pdc:
        known = CapacityResult.PDC
    elif s_known:
        known = CapacityResult.S_CHANNEL
    else:
        known = CapacityResult.UNKNOWN

    return RegimeReport(
        weak=weak, strong=strong, very_strong=vs_flag, pdc=pdc,
        s_channel=s_channel, z_channel=z_channel, degraded=degraded,
        capacity_known=known,
        margins={"5": m5, "31a": m31a, "31b": m31b, "35": m35, "36": m36},
    )
