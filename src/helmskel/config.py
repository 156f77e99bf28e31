"""Configuration ingestion for the experiment commands.

Configs are ini-style key = value sections.  Every module precondition is
re-validated at parse time with a message naming the violated assumption,
so a bad coefficient never reaches the assembly layer.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

import numpy as np

__all__ = ["ProblemConfig", "ConfigError", "parse_config", "problem_from_config",
           "load_from_config", "DEFAULT_CONFIG_TEXT"]


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


_KNOWN = {
    "geometry": {"width", "height", "nx", "ny"},
    "partition": {"px", "py"},
    "physics": {"k", "mu_re", "mu_im", "kappa_mode", "gamma", "tgamma", "source"},
    "bc": {"kind", "g_d", "g_n", "lambda_scale", "gamma_d_predicate"},
    "solver": {"method", "relax", "tol", "maxit", "restart"},
    "analysis": {"dense_cap", "svd_threshold"},
    "output": {"dir", "seed"},
}

_KAPPA_MODES = ("constant", "resonant", "absorbing-layer", "zero")

DEFAULT_CONFIG_TEXT = """\
[geometry]
width = 1.0
height = 1.0
nx = 8
ny = 8

[partition]
px = 2
py = 2

[physics]
k = 5.0
kappa_mode = constant
gamma = 1/k
tgamma = collar
source = zero

[bc]
kind = robin

[solver]
method = gmres
tol = 1e-10

[output]
dir = out
"""


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
    dense_cap: int = 2000
    svd_threshold: float = 1e-8
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
        if self.gamma is None:
            self.gamma = 1.0 / self.k
        if self.gamma <= 0:
            raise ConfigError("gamma must be positive (volume norm parameter)")
        if self.tgamma not in ("collar", "boundary_h1"):
            raise ConfigError("tgamma must be 'collar' or 'boundary_h1'")
        if self.source not in ("zero", "one", "manufactured"):
            raise ConfigError("source must be zero, one or manufactured")
        if self.bc_kind not in ("dirichlet", "neumann", "robin", "mixed"):
            raise ConfigError("bc kind must be dirichlet, neumann, robin or mixed")
        if self.bc_kind == "robin" and self.lambda_scale <= 0:
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
        if self.dense_cap < 1:
            raise ConfigError("dense_cap must be >= 1")
        if self.svd_threshold <= 0:
            raise ConfigError("svd_threshold must be positive")


def _get(cp, section, key, cast, default):
    if not cp.has_option(section, key):
        return default
    raw = cp.get(section, key).strip()
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc


def parse_config(path) -> ProblemConfig:
    """Parse and validate a config file; unknown keys are rejected."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = cp.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")

    for section in cp.sections():
        if section not in _KNOWN:
            raise ConfigError(f"unknown config section [{section}]")
        for key in cp[section]:
            if key not in _KNOWN[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    def gamma_cast(raw):
        if raw.replace(" ", "") == "1/k":
            return None
        return float(raw)

    def restart_cast(raw):
        v = int(raw)
        return None if v <= 0 else v

    sides_cast = lambda raw: tuple(s.strip() for s in raw.split(",") if s.strip())

    mu = complex(_get(cp, "physics", "mu_re", float, 1.0),
                 _get(cp, "physics", "mu_im", float, 0.0))

    return ProblemConfig(
        width=_get(cp, "geometry", "width", float, 1.0),
        height=_get(cp, "geometry", "height", float, 1.0),
        nx=_get(cp, "geometry", "nx", int, 8),
        ny=_get(cp, "geometry", "ny", int, 8),
        px=_get(cp, "partition", "px", int, 2),
        py=_get(cp, "partition", "py", int, 2),
        k=_get(cp, "physics", "k", float, 5.0),
        mu=mu,
        kappa_mode=_get(cp, "physics", "kappa_mode", str, "constant"),
        gamma=_get(cp, "physics", "gamma", gamma_cast, None),
        tgamma=_get(cp, "physics", "tgamma", str, "collar"),
        source=_get(cp, "physics", "source", str, "zero"),
        bc_kind=_get(cp, "bc", "kind", str, "robin"),
        g_d=_get(cp, "bc", "g_d", float, 0.0),
        g_n=_get(cp, "bc", "g_n", float, 0.0),
        lambda_scale=_get(cp, "bc", "lambda_scale", float, 1.0),
        gamma_d_sides=_get(cp, "bc", "gamma_d_predicate", sides_cast,
                           ("left", "bottom")),
        solver_method=_get(cp, "solver", "method", str, "gmres"),
        relax=_get(cp, "solver", "relax", float, 0.5),
        tol=_get(cp, "solver", "tol", float, 1e-10),
        maxit=_get(cp, "solver", "maxit", int, 5000),
        restart=_get(cp, "solver", "restart", restart_cast, None),
        dense_cap=_get(cp, "analysis", "dense_cap", int, 2000),
        svd_threshold=_get(cp, "analysis", "svd_threshold", float, 1e-8),
        seed=_get(cp, "output", "seed", int, 42),
        out_dir=_get(cp, "output", "dir", str, "out"),
    )


def manufactured_solution(cfg: ProblemConfig):
    """Reference solution, its source term, and its nodal values."""
    w, h = cfg.width, cfg.height

    def u_exact(x, y):
        return np.sin(np.pi * x / w) * np.sin(np.pi * y / h)

    return u_exact


def problem_from_config(cfg: ProblemConfig):
    """Build the Problem described by a config, resolving kappa modes."""
    from .geometry import build_rect_mesh
    from .problem import build_problem
    from .solvers_spectral import dirichlet_resonance

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
    from .problem import make_load

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
