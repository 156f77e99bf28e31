"""Command line driver: solve, verify, spectrum and sweep experiments.

``--seed`` and ``--out`` override ``[output] seed`` and ``[output] dir``
by replacing them in the parsed config, which validates them as it
validates the file, so each command reads the config alone.

Exit codes: 0 success, 1 solver or verification failure, 2 configuration
or usage error, 3 local solvability (impedance) violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import skeleton as sk
from . import solvers_spectral as ss
from . import verification as vf
from .boundary_conditions import KINDS
from .config import (ConfigError, ProblemConfig, load_from_config,
                     manufactured_solution, parse_config, problem_from_config)
from .skeleton import AssumptionViolation

__all__ = ["main", "cmd_solve", "cmd_verify", "cmd_spectrum", "cmd_sweep",
           "run_verification", "condition_problems"]


def _open_out(path: Path):
    """Open an output file for writing, creating its directory first, so
    that a run which fails before it writes leaves no directory behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w")


def _write_json(path: Path, payload) -> None:
    with _open_out(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def cmd_solve(cfg: ProblemConfig) -> int:
    """Skeleton solve, volume recovery and report emission.  A solve that
    does not converge is diagnosed at any size by the kernel count of the
    sparse ``infsup_primary``, which the skeleton operator inherits."""
    out_dir = Path(cfg.out_dir)
    problem = problem_from_config(cfg)
    load = load_from_config(cfg, problem)

    f = sk.skeleton_rhs(problem, load)
    if cfg.solver_method == "richardson":
        q, report = ss.richardson(problem, f, relax=cfg.relax, tol=cfg.tol,
                                  maxit=cfg.maxit)
    else:
        q, report = ss.gmres_tinv(problem, f, tol=cfg.tol, restart=cfg.restart,
                                  maxit=cfg.maxit)
    rec = sk.recover_volume(problem, q, load)

    payload = report.as_dict()
    payload["final_mismatch"] = float(rec.mismatch)
    payload["config_seed"] = cfg.seed
    if cfg.source == "manufactured":
        u_fn = manufactured_solution(cfg)
        exact = u_fn(problem.mesh.vertices[:, 0], problem.mesh.vertices[:, 1])
        M = problem.global_forms.M
        err = rec.u - exact
        l2 = float(np.sqrt(np.real(np.conj(err) @ (M @ err))))
        ref = float(np.sqrt(np.real(exact @ (M @ exact))))
        payload["l2_error_rel"] = l2 / ref
    if not report.converged:
        kdim = ss.infsup_primary(problem)[2]
        if kdim > 0:
            payload["kernel_diagnosis"] = (
                f"the Helmholtz problem has a {kdim}-dimensional kernel, inherited by the "
                f"skeleton operator (resonant configuration); the solve cannot converge")

    with _open_out(out_dir / "solution.txt") as fh:
        for i, v in enumerate(rec.u):
            fh.write(f"{i} {v.real:.17g} {v.imag:.17g}\n")
    _write_json(out_dir / "solve_report.json", payload)
    with _open_out(out_dir / "residual_history.csv") as fh:
        fh.write("iter,residual\n")
        for i, r in enumerate(report.residual_history):
            fh.write(f"{i},{r:.12e}\n")

    return 0 if report.converged else 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def condition_problems(cfg: ProblemConfig) -> dict:
    """The configured problem under each boundary condition kind."""
    return {kind: problem_from_config(replace(cfg, bc_kind=kind, source="zero"))
            for kind in KINDS}


def _tampered(problem):
    """Copy of a problem whose exchange factors G with the outer block
    1.05 T_Gamma but whitens by the problem's impedance, so it is no
    Euclidean reflection there; the scattering is untouched."""
    imp = problem.impedance
    exchange = sk.ExchangeOperator(problem.index, imp, sp.csc_matrix(1.05 * imp.blocks[0]))
    return replace(problem, exchange=exchange)


def run_verification(cfg: ProblemConfig, tamper_t: bool = False) -> dict:
    """Run every identity suite on the configured problem.

    Each suite draws from its own generator seeded with ``cfg.seed``, so
    reruns are reproducible bit for bit.  ``tamper_t`` runs the suites on a
    copy whose exchange factors a rescaled outer impedance block (a
    negative control: the exchange axioms must then fail).
    """
    conds = condition_problems(cfg)
    problem = conds[cfg.bc_kind]
    if tamper_t:
        problem = _tampered(problem)
    lossless = [p for p in conds.values() if vf.is_lossless(p)]

    def rng():
        return np.random.default_rng(cfg.seed)

    results = {
        "exchange_axioms": vf.exchange_axioms(problem, rng()),
        "energy_identity": vf.energy_identity(problem, rng(), lossless),
        "transmission": vf.transmission(problem, rng()),
        "equivalence": vf.equivalence(conds.values()),
        "factorization": vf.factorization(conds.values()),
        "cauchy_decomposition": vf.cauchy_decomposition(problem, rng()),
    }
    try:
        rep = ss.verify_estimates(problem)
        results["spectral"] = rep.as_dict()
        results["spectral"]["passed"] = rep.all_passed()
    except ss.DenseCapExceeded as exc:
        results["spectral"] = {"passed": False, "error": str(exc)}

    results["seed"] = cfg.seed
    results["all_passed"] = all(v.get("passed", True)
                                for v in results.values() if isinstance(v, dict))
    return results


def cmd_verify(cfg: ProblemConfig, tamper_t: bool = False) -> int:
    results = run_verification(cfg, tamper_t=tamper_t)
    _write_json(Path(cfg.out_dir) / "verify_report.json", results)
    for name, res in results.items():
        if isinstance(res, dict):
            status = "PASS" if res.get("passed") else "FAIL"
            print(f"{status} {name}")
    return 0 if results["all_passed"] else 1


# ---------------------------------------------------------------------------
# spectrum and sweep
# ---------------------------------------------------------------------------

def cmd_spectrum(cfg: ProblemConfig) -> int:
    rep = ss.verify_estimates(problem_from_config(cfg))
    _write_json(Path(cfg.out_dir) / "spectrum.json", rep.as_dict())
    for key, val in rep.as_dict().items():
        print(f"{key} = {val}")
    return 0


def cmd_sweep(cfg: ProblemConfig, k_values) -> int:
    rows, slopes = ss.sweep_wavenumber(k_values, px=cfg.px, py=cfg.py, tgamma=cfg.tgamma,
                                       lambda_scale=cfg.lambda_scale)
    with _open_out(Path(cfg.out_dir) / "sweep.csv") as fh:
        ss.write_sweep_csv(rows, slopes, fh)
    if slopes:
        print(f"slope infsup_skeleton: {slopes['infsup_skeleton']:.4f}")
        print(f"slope coercivity:      {slopes['coercivity']:.4f}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _wavenumbers(text: str) -> list:
    """Wavenumbers of a comma separated list; ConfigError unless nonempty and positive."""
    try:
        k_values = [float(s) for s in text.split(",") if s.strip()]
    except ValueError:
        k_values = []
    if not k_values or not all(0.0 < k < math.inf for k in k_values):
        raise ConfigError(f"--k-list must hold positive numbers, not {text!r}")
    return k_values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="helmskel",
        description="Skeleton-trace solver and verification harness for the "
                    "2D Helmholtz cavity problem")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "verify", "spectrum", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, help="overrides [output] seed")
        p.add_argument("--out", help="overrides [output] dir")
        if name == "sweep":
            p.description = ("Certificates of the robin reference family across "
                             "wavenumbers; of the config's problem it reads "
                             "only px, py, tgamma and lambda_scale.")
            p.add_argument("--k-list", default="5,10,20,40",
                           help="comma separated wavenumbers")
        if name == "verify":
            p.add_argument("--tamper", action="store_true",
                           help="negative control: exchange on a rescaled outer block")

    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.out:
            cfg = replace(cfg, out_dir=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, tamper_t=args.tamper)
        if args.command == "spectrum":
            return cmd_spectrum(cfg)
        return cmd_sweep(cfg, _wavenumbers(args.k_list))
    except AssumptionViolation as exc:
        print(f"local solvability violation: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ss.DenseCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
