"""Configuration ingestion for the experiment commands.

Configs are ini-style key = value sections.  Every module precondition is
re-validated at parse time with a message naming the violated assumption,
so a bad coefficient never reaches the assembly layer.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

import numpy as np

from .boundary_conditions import KINDS, SIDES
from .geometry import build_rect_mesh
from .problem import SURROGATES, build_problem, make_load
from .solvers_spectral import dirichlet_resonance

__all__ = ["ProblemConfig", "ConfigError", "parse_config", "problem_from_config",
           "load_from_config"]


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


_KAPPA_MODES = ("constant", "resonant", "absorbing-layer", "zero")


@dataclass
class ProblemConfig:
    """Validated experiment configuration with defaults filled in."""

    width: float = 1.0
    height: float = 1.0
    nx: int = 8
    ny: int = 8
    px: int = 2
    py: int = 2
    k: float = 5.0
    mu: complex = 1.0 + 0.0j
    kappa_mode: str = "constant"
    gamma: float = None           # None means 1/k
    tgamma: str = "collar"
    source: str = "zero"
    bc_kind: str = "robin"
    g_d: float = 0.0
    g_n: float = 0.0
    lambda_scale: float = 1.0
    gamma_d_sides: tuple = ("left", "bottom")
    solver_method: str = "gmres"
    relax: float = 0.5
    tol: float = 1e-10
    maxit: int = 5000
    restart: int = None
    seed: int = 42
    out_dir: str = "out"

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ConfigError("nx and ny must be >= 1")
        if self.width <= 0 or self.height <= 0:
            raise ConfigError("width and height must be positive")
        if self.px < 1 or self.py < 1:
            raise ConfigError("px and py must be >= 1")
        if self.nx % self.px != 0:
            raise ConfigError(f"px={self.px} does not divide nx={self.nx}")
        if self.ny % self.py != 0:
            raise ConfigError(f"py={self.py} does not divide ny={self.ny}")
        if self.k <= 0:
            raise ConfigError("wavenumber k must be positive")
        mu = complex(self.mu)
        if mu.real <= 0:
            raise ConfigError("(A2) violated: Re(mu) must be positive")
        if mu.imag < 0:
            raise ConfigError("(A2) violated: Im(mu) must be nonnegative")
        if self.kappa_mode not in _KAPPA_MODES:
            raise ConfigError(f"kappa_mode must be one of {_KAPPA_MODES}")
        if self.kappa_mode == "resonant" and min(self.nx, self.ny) < 2:
            raise ConfigError("resonant kappa needs an interior vertex: nx, ny >= 2")
        if self.gamma is None:
            self.gamma = 1.0 / self.k
        if self.gamma <= 0:
            raise ConfigError("gamma must be positive (volume norm parameter)")
        if self.tgamma not in SURROGATES:
            raise ConfigError(f"tgamma must be {' or '.join(map(repr, SURROGATES))}")
        if self.source not in ("zero", "one", "manufactured"):
            raise ConfigError("source must be zero, one or manufactured")
        if self.bc_kind not in KINDS:
            raise ConfigError(f"bc kind must be {', '.join(KINDS[:-1])} or {KINDS[-1]}")
        sides = set(self.gamma_d_sides)
        if not sides <= set(SIDES):
            raise ConfigError(f"gamma_d_predicate names unknown sides "
                              f"{sorted(sides - set(SIDES))}, expected some of {SIDES}")
        if not 0 < len(sides) < len(SIDES):
            raise ConfigError("gamma_d_predicate must name a nonempty proper subset "
                              "of the four sides")
        if self.lambda_scale <= 0:
            raise ConfigError("(A3)/(A4) violated: robin impedance scale must be "
                              "positive for absorption and local solvability")
        if self.source == "manufactured" and self.bc_kind != "dirichlet":
            raise ConfigError("manufactured source requires the dirichlet condition")
        if self.solver_method not in ("richardson", "gmres"):
            raise ConfigError("solver method must be richardson or gmres")
        if not 0.0 < self.relax < 1.0:
            raise ConfigError("relaxation parameter must lie in (0, 1)")
        if self.tol <= 0:
            raise ConfigError("solver tolerance must be positive")
        if self.maxit < 1:
            raise ConfigError("maxit must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


def _finite(raw):
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not finite")
    return value


def _gamma_cast(raw):
    return None if raw.replace(" ", "") == "1/k" else _finite(raw)


def _restart_cast(raw):
    v = int(raw)
    return None if v <= 0 else v


def _sides_cast(raw):
    return tuple(s.strip() for s in raw.split(",") if s.strip())


# Every config key: (section, key) -> (ProblemConfig field, cast of its text).
# "mu.real" and "mu.imag" are the two parts of the field mu.  A key that is
# absent leaves the field at its dataclass default.
_KEYS = {
    ("geometry", "width"): ("width", _finite),
    ("geometry", "height"): ("height", _finite),
    ("geometry", "nx"): ("nx", int),
    ("geometry", "ny"): ("ny", int),
    ("partition", "px"): ("px", int),
    ("partition", "py"): ("py", int),
    ("physics", "k"): ("k", _finite),
    ("physics", "mu_re"): ("mu.real", _finite),
    ("physics", "mu_im"): ("mu.imag", _finite),
    ("physics", "kappa_mode"): ("kappa_mode", str),
    ("physics", "gamma"): ("gamma", _gamma_cast),
    ("physics", "tgamma"): ("tgamma", str),
    ("physics", "source"): ("source", str),
    ("bc", "kind"): ("bc_kind", str),
    ("bc", "g_d"): ("g_d", _finite),
    ("bc", "g_n"): ("g_n", _finite),
    ("bc", "lambda_scale"): ("lambda_scale", _finite),
    ("bc", "gamma_d_predicate"): ("gamma_d_sides", _sides_cast),
    ("solver", "method"): ("solver_method", str),
    ("solver", "relax"): ("relax", _finite),
    ("solver", "tol"): ("tol", _finite),
    ("solver", "maxit"): ("maxit", int),
    ("solver", "restart"): ("restart", _restart_cast),
    ("output", "dir"): ("out_dir", str),
    ("output", "seed"): ("seed", int),
}


def parse_config(path) -> ProblemConfig:
    """Parse and validate a config file; unknown keys are rejected."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")

    sections = {section for section, _ in _KEYS}
    values = {}
    for section in cp.sections():
        if section not in sections:
            raise ConfigError(f"unknown config section [{section}]")
        for key in cp[section]:
            if (section, key) not in _KEYS:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            name, cast = _KEYS[section, key]
            raw = cp.get(section, key).strip()
            try:
                values[name] = cast(raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc

    if "mu.real" in values or "mu.imag" in values:
        mu = complex(ProblemConfig.mu)
        values["mu"] = complex(values.pop("mu.real", mu.real), values.pop("mu.imag", mu.imag))
    return ProblemConfig(**values)


def manufactured_solution(cfg: ProblemConfig):
    """Reference solution u(x, y) = sin(pi x / w) sin(pi y / h) of the config.

    It vanishes on the boundary; ``source_function`` derives the matching
    volume source from it.
    """
    w, h = cfg.width, cfg.height

    def u_exact(x, y):
        return np.sin(np.pi * x / w) * np.sin(np.pi * y / h)

    return u_exact


def problem_from_config(cfg: ProblemConfig):
    """Build the Problem described by a config, resolving kappa modes."""
    kappa_sq = None
    if cfg.kappa_mode == "zero":
        kappa_sq = 0.0
    elif cfg.kappa_mode == "resonant":
        mesh = build_rect_mesh(cfg.nx, cfg.ny, cfg.width, cfg.height)
        kappa_sq = dirichlet_resonance(mesh)
    elif cfg.kappa_mode == "absorbing-layer":
        k2 = cfg.k ** 2
        half = 0.5 * cfg.width

        def kappa_sq(x, y):
            return k2 * (1.0 + 0.5j * (x >= half))

    return build_problem(
        cfg.nx, cfg.ny, cfg.px, cfg.py, width=cfg.width, height=cfg.height,
        k=cfg.k, mu=cfg.mu, kappa_sq=kappa_sq, gamma=cfg.gamma,
        bc_kind=cfg.bc_kind, lambda_scale=cfg.lambda_scale,
        gamma_d_sides=cfg.gamma_d_sides, tgamma=cfg.tgamma)


def load_from_config(cfg: ProblemConfig, problem):
    """Load of the configured source and constant boundary data.

    The Dirichlet value is ``g_d`` (zero under the manufactured source,
    whose solution vanishes on the boundary); the Neumann functional is
    ``g_n`` times the boundary mass applied to ones.
    """
    ones = np.ones(problem.n_gamma)
    g_d = (0.0 if cfg.source == "manufactured" else cfg.g_d) * ones
    return make_load(problem, source_function(cfg, problem), g_d=g_d,
                     g_n=cfg.g_n * (problem.gamma_mass @ ones))


def source_function(cfg: ProblemConfig, problem):
    """Volume source selected by the config."""
    if cfg.source == "zero":
        return 0.0
    if cfg.source == "one":
        return 1.0
    u = manufactured_solution(cfg)
    ks = problem.coeffs.kappa_sq
    mu_inv = 1.0 / complex(problem.coeffs.mu)
    lap = (np.pi / cfg.width) ** 2 + (np.pi / cfg.height) ** 2

    def f(x, y):
        k2 = ks(x, y) if callable(ks) else ks
        return (mu_inv * lap - k2) * u(x, y)

    return f
