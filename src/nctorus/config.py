"""Experiment configuration: the values a run varies, JSON round-trip, presets.

A config holds only what the presets, the CLI flags and the tests set: the
deformation angle, the modulus tau, the Weyl exponent h, the two window
bandwidths, the symbol of a residue or Connes-trace run, the tolerance scale
and the output directory.  Every other discretization setting is the default
of the library function that uses it (or a constant of the CLI runner), and
every tolerance is a DEFAULT_TOLERANCES entry times the scale, the same table
`verify` reads.  The defaults are those of ExperimentConfig; a loaded dict
fills the fields it omits from them.  Each field is checked on construction
(ConfigError).  h must be selfadjoint, so h_spec keeps one row per pair
(m, n), (-m, -n) and h_element adds the adjoint image; to_dict gives the
fully resolved dictionary (a run manifest stores it under "config") that
from_dict and load read back unchanged, bit for bit.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass

from .algebra import (
    GOLDEN_RATIO_THETA,
    ConformalData,
    DeformationAngle,
    ModuliPoint,
    NcElement,
    adjoint,
)

CONFIG_SCHEMA_VERSION = 2


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


DEFAULT_TOLERANCES = {
    "weyl_flat": 0.03,
    "weyl_perturbed": 0.10,
    "heat_flat_abs": 0.01,
    "heat_pairwise": 0.05,
    "connes_ratio": 0.15,
    "dixmier_anchor": 0.05,
    "dixmier_drift": 0.02,
    "residue_anchor": 1e-10,
    "parametrix_layers": 1e-8,
    "contour_gate": 1e-8,
}


@dataclass(frozen=True)
class ExperimentConfig:
    theta: float = GOLDEN_RATIO_THETA
    tau: tuple = (0.0, 1.0)  # Re, Im of the modulus
    h_spec: tuple = ()  # rows [m, n, re, im] of the Weyl exponent h; () is flat
    bandwidth: int = 48  # window N of the perturbed finite sections
    flat_band: int = 400  # index box of the analytic flat spectrum
    symbol: tuple = ("flat_resolvent", 1.0, 3)  # kind, c0/order, depth
    tolerance_scale: float = 1.0
    out_dir: str = "runs"

    def __post_init__(self):
        if not (_is_real(self.theta) and 0.0 < self.theta < 1.0):
            raise ConfigError(f"theta must be a number in (0,1), got {self.theta!r}")
        object.__setattr__(self, "tau", _finite_reals("tau", self.tau, 2))
        if self.tau[1] <= 0.0:
            raise ConfigError("tau must lie in the upper half-plane")
        for name in ("bandwidth", "flat_band"):
            value = getattr(self, name)
            if not (_is_integer(value) and value >= 1):
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        rows = _items(self.h_spec)
        if rows is None:
            raise ConfigError(f"h_spec must be a list of [m, n, re, im] rows, got {self.h_spec!r}")
        rows = [_finite_reals("h_spec row [m, n, re, im]", row, 4) for row in rows]
        for m, n, _, _ in rows:
            if not (m.is_integer() and n.is_integer()):
                raise ConfigError(f"h_spec row needs integer m, n, got {[m, n]}")
        object.__setattr__(self, "h_spec", _symmetrize_h(rows, self.theta))
        symbol = _items(self.symbol)
        if not (symbol is not None and len(symbol) == 3 and isinstance(symbol[0], str)
                and _is_real(symbol[1]) and _is_integer(symbol[2])):
            raise ConfigError(
                f"symbol must be [kind, finite number, integer depth], got {self.symbol!r}"
            )
        object.__setattr__(self, "symbol", (symbol[0], float(symbol[1]), int(symbol[2])))
        if not (_is_real(self.tolerance_scale) and self.tolerance_scale > 0.0):
            raise ConfigError(
                f"tolerance_scale must be a positive finite number, got {self.tolerance_scale!r}"
            )
        if not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir must be a string, got {self.out_dir!r}")

    @property
    def angle(self) -> DeformationAngle:
        return DeformationAngle(self.theta)

    @property
    def moduli(self) -> ModuliPoint:
        return ModuliPoint(self.tau[0], self.tau[1])

    def tolerance(self, name: str) -> float:
        """The DEFAULT_TOLERANCES entry times tolerance_scale."""
        if name not in DEFAULT_TOLERANCES:
            raise ConfigError(f"unknown tolerance {name!r}")
        return DEFAULT_TOLERANCES[name] * self.tolerance_scale

    def h_element(self) -> NcElement:
        """h: each h_spec row and its adjoint image."""
        coeffs = {(int(m), int(n)): complex(re, im) for m, n, re, im in self.h_spec}
        bw = max((max(abs(m), abs(n)) for (m, n) in coeffs), default=0)
        image = adjoint(NcElement(self.angle, bw, coeffs)).coeffs
        return NcElement(self.angle, bw, {**image, **coeffs})

    def conformal_data(self) -> ConformalData:
        return ConformalData.build(self.moduli, self.h_element())

    @property
    def is_flat(self) -> bool:
        return not self.h_spec

    def to_dict(self) -> dict:
        d = asdict(self)
        d["config_schema_version"] = CONFIG_SCHEMA_VERSION
        d["h_spec"] = [list(row) for row in self.h_spec]
        d["tau"] = list(self.tau)
        d["symbol"] = list(self.symbol)
        return d


def _is_real(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _items(value) -> tuple | None:
    """value as a tuple, or None when it is not iterable."""
    try:
        return tuple(value)
    except TypeError:
        return None


def _finite_reals(name: str, values, length: int) -> tuple:
    """values as a tuple of floats, or ConfigError unless they are exactly
    length finite numbers."""
    items = _items(values)
    if items is None or len(items) != length or not all(map(_is_real, items)):
        raise ConfigError(f"{name} must be {length} finite numbers, got {values!r}")
    return tuple(float(v) for v in items)


def _symmetrize_h(rows, theta: float) -> tuple:
    """The rows of a selfadjoint Weyl exponent, one per pair (m, n), (-m, -n):
    the coefficient at the member (m, n) >= (0, 0).

    A missing mirror coefficient at (-m,-n) is the adjoint image of (m,n);
    when both mirrors are listed (a listed 0 included) each is averaged with
    the other's image (the Hermitian projection)."""
    raw = {}
    for m, n, re, im in rows:
        raw[(int(m), int(n))] = raw.get((int(m), int(n)), 0.0) + complex(re, im)
    bw = max((max(abs(m), abs(n)) for (m, n) in raw), default=0)
    image = adjoint(NcElement(DeformationAngle(theta), bw, raw)).coeffs
    out = dict(image)
    for (m, n), c in raw.items():
        out[(m, n)] = (c + image.get((m, n), 0j)) / 2.0 if (-m, -n) in raw else c
    return tuple(
        (m, n, c.real, c.imag) for (m, n), c in sorted(out.items())
        if (m, n) >= (0, 0) and c != 0.0
    )


def from_dict(d: dict) -> ExperimentConfig:
    if not isinstance(d, dict):
        raise ConfigError(f"a config is a JSON object, got {type(d).__name__}")
    d = dict(d)
    d.pop("config_schema_version", None)
    unknown = set(d) - set(ExperimentConfig.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentConfig(**d)


def load(path) -> ExperimentConfig:
    """Load a config file; a run manifest (with its resolved config under
    the "config" key) is accepted for replay."""
    with open(path, encoding="utf-8") as fh:
        d = json.load(fh)
    if isinstance(d, dict) and isinstance(d.get("config"), dict):
        d = d["config"]
    return from_dict(d)


PRESETS = {
    "flat": {"h_spec": []},
    "flat-tau2i": {"h_spec": [], "tau": [0.0, 2.0]},
    "flat-tau1plusi": {"h_spec": [], "tau": [1.0, 1.0]},
    "perturbed": {"h_spec": [[1, 0, 0.4, 0.0]]},
    "connes-flat-resolvent": {"h_spec": [], "symbol": ["flat_resolvent", 1.0, 3]},
    "connes-k-weighted": {"h_spec": [[1, 0, 0.4, 0.0]], "symbol": ["k_weighted", -2.0, 1]},
    "connes-order3": {"h_spec": [], "symbol": ["power", -3.0, 1]},
    "connes-perturbed-resolvent": {
        "h_spec": [[1, 0, 0.4, 0.0]],
        "symbol": ["perturbed_resolvent", 1.0, 1],
    },
    "contour-sanity": {"h_spec": [], "symbol": ["contour_sanity", 0.0, 0]},
}


def preset(name: str) -> ExperimentConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return from_dict(PRESETS[name])
