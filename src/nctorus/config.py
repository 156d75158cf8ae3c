"""Experiment configuration: JSON round-trip, defaults and presets.

A config captures every discretization knob of a run.  Loading symmetrizes
the Weyl exponent coefficients (the element must be selfadjoint) and fills
unspecified fields from the shipped defaults; emitting writes the fully
resolved dictionary, so load(emit(cfg)) is the identity.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass
from importlib import resources

from .algebra import (
    GOLDEN_RATIO_THETA,
    ConformalData,
    DeformationAngle,
    ModuliPoint,
    NcElement,
)

CONFIG_SCHEMA_VERSION = 1


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
    tau: tuple = (0.0, 1.0)
    h_spec: tuple = ()
    bandwidth: int = 48
    pad: int = 16
    flat_band: int = 400
    contour: tuple = (1.0, 1.0, 4.0, 96)  # alpha, beta, gamma, nodes
    radial_nodes: int = 64
    angular_nodes: int = 32
    window_pad: int = 8
    b2_quadrature: bool = True
    ceiling_fraction: float = 0.25
    adaptive_ceiling: bool = True
    weyl_fit_window: tuple | None = None
    t_points: int = 40
    dixmier_qmax: float = 1.0e6
    symbol: tuple = ("flat_resolvent", 1.0, 3)  # kind, c0/order, depth
    tolerance_scale: float = 1.0
    tolerances: tuple = tuple(sorted(DEFAULT_TOLERANCES.items()))
    out_dir: str = "runs"

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ConfigError(f"theta must be in (0,1), got {self.theta}")
        object.__setattr__(self, "tau", _finite_reals("tau", self.tau, 2))
        if self.tau[1] <= 0.0:
            raise ConfigError("tau must lie in the upper half-plane")
        for name in INTEGER_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.bandwidth < 1 or self.pad < 1:
            raise ConfigError("bandwidth and pad must be positive")
        for row in self.h_spec:
            m, n, _, _ = _finite_reals("h_spec row [m, n, re, im]", row, 4)
            if not (m.is_integer() and n.is_integer()):
                raise ConfigError(f"h_spec row needs integer m, n, got {list(row)}")
        object.__setattr__(self, "h_spec", _symmetrize_h(self.h_spec, self.theta))
        contour = _finite_reals("contour [alpha, beta, gamma, nodes]", self.contour, 4)
        if not contour[3].is_integer():
            raise ConfigError(f"contour nodes must be an integer, got {self.contour[3]!r}")
        object.__setattr__(self, "contour", tuple(self.contour))
        if self.weyl_fit_window is not None:
            object.__setattr__(
                self, "weyl_fit_window", tuple(float(v) for v in self.weyl_fit_window)
            )
        object.__setattr__(self, "symbol", tuple(self.symbol))
        object.__setattr__(
            self, "tolerances",
            tuple(sorted((str(k), float(v)) for k, v in dict(self.tolerances).items())),
        )

    @property
    def angle(self) -> DeformationAngle:
        return DeformationAngle(self.theta)

    @property
    def moduli(self) -> ModuliPoint:
        return ModuliPoint(self.tau[0], self.tau[1])

    def tolerance(self, name: str) -> float:
        table = dict(self.tolerances)
        if name not in table:
            raise ConfigError(f"unknown tolerance {name!r}")
        return table[name] * self.tolerance_scale

    def h_element(self) -> NcElement:
        coeffs = {}
        for m, n, re, im in self.h_spec:
            coeffs[(int(m), int(n))] = coeffs.get((int(m), int(n)), 0.0) + complex(re, im)
        bw = max((max(abs(m), abs(n)) for (m, n) in coeffs), default=0)
        return NcElement(self.angle, bw, coeffs)

    def conformal_data(self) -> ConformalData:
        return ConformalData.build(self.moduli, self.h_element(), pad=self.pad)

    @property
    def is_flat(self) -> bool:
        return not self.h_spec

    def to_dict(self) -> dict:
        d = asdict(self)
        d["config_schema_version"] = CONFIG_SCHEMA_VERSION
        d["tolerances"] = {k: v for k, v in self.tolerances}
        d["h_spec"] = [list(row) for row in self.h_spec]
        d["contour"] = list(self.contour)
        d["tau"] = list(self.tau)
        d["symbol"] = list(self.symbol)
        d["weyl_fit_window"] = (
            list(self.weyl_fit_window) if self.weyl_fit_window is not None else None
        )
        return d

    def emit(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


INTEGER_FIELDS = ("bandwidth", "pad", "flat_band", "radial_nodes", "angular_nodes",
                  "window_pad", "t_points")


def _finite_reals(name: str, values, length: int) -> tuple:
    """values as a tuple of floats, or ConfigError unless they are exactly
    length finite numbers."""
    try:
        out = tuple(float(v) for v in values)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be {length} numbers, got {values!r}") from None
    if len(out) != length or not all(math.isfinite(v) for v in out):
        raise ConfigError(f"{name} must be {length} finite numbers, got {list(values)}")
    return out


def _symmetrize_h(h_spec, theta: float) -> tuple:
    """Enforce selfadjointness of the Weyl exponent.

    A missing mirror coefficient at (-m,-n) is set to the adjoint-rule image
    conj(c) e^{2 pi i theta m n}; when both mirrors are listed they are
    averaged with each other's image (the Hermitian projection)."""
    if not h_spec:
        return ()
    import cmath

    raw = {}
    for m, n, re, im in h_spec:
        raw[(int(m), int(n))] = raw.get((int(m), int(n)), 0.0) + complex(re, im)
    keys = set(raw) | {(-m, -n) for (m, n) in raw}
    out = {}
    for m, n in keys:
        ph = cmath.exp(2j * math.pi * theta * m * n)
        direct = raw.get((m, n))
        mirrored = raw.get((-m, -n))
        from_mirror = mirrored.conjugate() * ph if mirrored is not None else None
        if direct is not None and from_mirror is not None:
            out[(m, n)] = (direct + from_mirror) / 2.0
        elif direct is not None:
            out[(m, n)] = direct
        else:
            out[(m, n)] = from_mirror
    return tuple(
        (m, n, c.real, c.imag) for (m, n), c in sorted(out.items()) if c != 0.0
    )


def from_dict(d: dict) -> ExperimentConfig:
    d = dict(d)
    d.pop("config_schema_version", None)
    known = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(d) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "tolerances" in d and isinstance(d["tolerances"], dict):
        merged = dict(DEFAULT_TOLERANCES)
        merged.update(d["tolerances"])
        d["tolerances"] = tuple(sorted(merged.items()))
    if "h_spec" in d:
        d["h_spec"] = tuple(tuple(row) for row in d["h_spec"])
    for key in ("tau", "contour", "symbol"):
        if key in d and d[key] is not None:
            d[key] = tuple(d[key])
    if d.get("weyl_fit_window") is not None:
        d["weyl_fit_window"] = tuple(d["weyl_fit_window"])
    return ExperimentConfig(**d)


def load(path) -> ExperimentConfig:
    """Load a config file; a run manifest (with its resolved config under
    the "config" key) is accepted for replay."""
    with open(path, encoding="utf-8") as fh:
        d = json.load(fh)
    if "config" in d and isinstance(d["config"], dict):
        d = d["config"]
    return from_dict(d)


def default_config() -> ExperimentConfig:
    text = resources.files("nctorus").joinpath("data/default_config.json").read_text()
    return from_dict(json.loads(text))


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
    base = default_config().to_dict()
    base.pop("config_schema_version", None)
    base.update(PRESETS[name])
    return from_dict(base)
