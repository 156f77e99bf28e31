import json
from dataclasses import replace

import numpy as np
import pytest

import helmskel.verification as vf
from helmskel.cli import condition_problems, main, run_verification
from helmskel.config import ConfigError, ProblemConfig, parse_config, problem_from_config
from helmskel.problem import build_problem


def _write(tmp_path, text, name="case.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_minimal_config_defaults(tmp_path):
    path = _write(tmp_path, "[physics]\nk = 5.0\n[bc]\nkind = robin\n")
    cfg = parse_config(path)
    assert cfg.gamma == pytest.approx(0.2)
    assert cfg.nx == cfg.ny == 8
    assert cfg.px == cfg.py == 2
    assert cfg.tgamma == "collar"
    assert cfg.solver_method == "gmres"
    assert cfg.tol == 1e-10


def test_empty_config_is_the_defaults(tmp_path):
    assert parse_config(_write(tmp_path, "")) == ProblemConfig()


def test_config_table_names_dataclass_fields():
    from dataclasses import fields

    from helmskel.config import _KEYS

    names = {f.name for f in fields(ProblemConfig)}
    assert {name.partition(".")[0] for name, _ in _KEYS.values()} <= names


@pytest.mark.parametrize("text,gamma", [("1/k", 0.25), ("1 / k", 0.25), ("0.3", 0.3)])
def test_gamma_key(tmp_path, text, gamma):
    cfg = parse_config(_write(tmp_path, f"[physics]\nk = 4.0\ngamma = {text}\n"))
    assert cfg.gamma == gamma


@pytest.mark.parametrize("text,restart", [("0", None), ("20", 20)])
def test_restart_key(tmp_path, text, restart):
    # restart = 0 (or below) means full GMRES
    cfg_path = _write(tmp_path, "\n".join([
        "[physics]", "source = one",
        "[solver]", f"restart = {text}",
        "[output]", f"dir = {tmp_path}/out",
    ]))
    assert parse_config(cfg_path).restart == restart
    assert main(["solve", "--config", cfg_path]) == 0
    report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
    assert report["method"] == "gmres" and report["converged"]


def test_mu_parts_combine(tmp_path):
    assert parse_config(_write(tmp_path, "[physics]\nmu_im = 0.5\n")).mu == 1.0 + 0.5j
    assert parse_config(_write(tmp_path, "[physics]\nmu_re = 2\n")).mu == 2.0


def test_bad_mu_rejected(tmp_path):
    path = _write(tmp_path, "[physics]\nmu_im = -1\n")
    with pytest.raises(ConfigError, match=r"\(A2\)"):
        parse_config(path)


def test_divisibility_rejected(tmp_path):
    path = _write(tmp_path, "[geometry]\nnx = 4\n[partition]\npx = 3\n")
    with pytest.raises(ConfigError, match="divide"):
        parse_config(path)


def test_unknown_key_rejected(tmp_path):
    path = _write(tmp_path, "[physics]\nwavenumber = 3\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(path)
    path = _write(tmp_path, "[noise]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown config section"):
        parse_config(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(str(tmp_path / "absent.ini"))


def test_robin_scale_validation():
    with pytest.raises(ConfigError, match=r"\(A3\)|\(A4\)"):
        ProblemConfig(bc_kind="robin", lambda_scale=0.0)


def test_kappa_modes(tmp_path):
    cfg = ProblemConfig(kappa_mode="absorbing-layer", bc_kind="neumann")
    problem = problem_from_config(cfg)
    ks = problem.coeffs.kappa_sq
    assert callable(ks)
    assert np.imag(ks(np.array([0.75]), np.array([0.5]))[0]) > 0
    assert np.imag(ks(np.array([0.25]), np.array([0.5]))[0]) == 0

    cfg = ProblemConfig(kappa_mode="resonant", bc_kind="dirichlet")
    problem = problem_from_config(cfg)
    assert problem.coeffs.kappa_sq == pytest.approx(20.50554489770757, rel=1e-9)


def test_solve_zero_data_gives_zero(tmp_path):
    cfg_path = _write(tmp_path, "\n".join([
        "[physics]", "k = 5.0", "source = zero",
        "[bc]", "kind = robin",
        "[output]", f"dir = {tmp_path}/out",
    ]))
    assert main(["solve", "--config", cfg_path]) == 0
    sol = np.loadtxt(tmp_path / "out" / "solution.txt")
    assert np.abs(sol[:, 1:]).max() == 0.0
    report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
    assert report["converged"]


def test_solve_richardson(tmp_path):
    cfg_path = _write(tmp_path, "\n".join([
        "[physics]", "source = one",
        "[solver]", "method = richardson",
        "[output]", f"dir = {tmp_path}/out",
    ]))
    assert main(["solve", "--config", cfg_path]) == 0
    report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
    assert report["method"] == "richardson" and report["converged"]
    assert report["iterations"] == 152
    history = (tmp_path / "out" / "residual_history.csv").read_text().strip().split("\n")
    assert len(history) == 1 + 1 + 152


def test_solve_seed_override(tmp_path):
    # the recovery mismatch is the CLI's, next to the seed, not the solver's
    cfg_path = _write(tmp_path, "\n".join([
        "[physics]", "source = one",
        "[output]", f"dir = {tmp_path}/out",
    ]))
    assert main(["solve", "--config", cfg_path]) == 0
    report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
    assert report["config_seed"] == 42
    assert main(["solve", "--config", cfg_path, "--seed", "7"]) == 0
    report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
    assert report["config_seed"] == 7
    assert 0.0 <= report["final_mismatch"] < 1e-8


def test_solve_manufactured_convergence(tmp_path):
    errs = {}
    for n in (8, 16):
        cfg_path = _write(tmp_path, "\n".join([
            "[geometry]", f"nx = {n}", f"ny = {n}",
            "[physics]", "k = 5.0", "kappa_mode = zero", "source = manufactured",
            "[bc]", "kind = dirichlet",
            "[output]", f"dir = {tmp_path}/out{n}",
        ]), name=f"m{n}.ini")
        assert main(["solve", "--config", cfg_path]) == 0
        report = json.loads((tmp_path / f"out{n}" / "solve_report.json").read_text())
        errs[n] = report["l2_error_rel"]
    ratio = errs[8] / errs[16]
    assert 3.5 <= ratio <= 4.5


def test_solve_resonant_failure_diagnosed(tmp_path):
    # the skeleton dimension (96) exceeds the dense cap: the kernel is
    # counted on the sparse monolithic operator, at any size
    cfg_path = _write(tmp_path, "\n".join([
        "[physics]", "k = 5.0", "kappa_mode = resonant", "source = one",
        "[bc]", "kind = dirichlet",
        "[solver]", "maxit = 60",
        "[analysis]", "dense_cap = 4",
        "[output]", f"dir = {tmp_path}/outres",
    ]))
    assert main(["solve", "--config", cfg_path]) == 1
    report = json.loads((tmp_path / "outres" / "solve_report.json").read_text())
    assert not report["converged"]
    assert "1-dimensional kernel" in report.get("kernel_diagnosis", "")


def test_resonant_kappa_needs_interior_vertex(tmp_path):
    with pytest.raises(ConfigError, match="interior vertex"):
        ProblemConfig(nx=1, ny=4, px=1, py=2, bc_kind="dirichlet",
                      kappa_mode="resonant")
    cfg_path = _write(tmp_path, "\n".join([
        "[geometry]", "nx = 1", "ny = 4",
        "[partition]", "px = 1", "py = 2",
        "[physics]", "kappa_mode = resonant",
        "[bc]", "kind = dirichlet",
        "[output]", f"dir = {tmp_path}/outiv",
    ]))
    assert main(["spectrum", "--config", cfg_path]) == 2
    assert not (tmp_path / "outiv").exists()


def test_verify_all_pass_and_deterministic(tmp_path):
    cfg_path = _write(tmp_path, "\n".join([
        "[physics]", "k = 5.0",
        "[bc]", "kind = robin",
        "[output]", f"dir = {tmp_path}/v1",
    ]))
    assert main(["verify", "--config", cfg_path]) == 0
    assert main(["verify", "--config", cfg_path, "--out", str(tmp_path / "v2")]) == 0
    a = (tmp_path / "v1" / "verify_report.json").read_bytes()
    b = (tmp_path / "v2" / "verify_report.json").read_bytes()
    assert a == b


def test_verify_tamper_negative_control(tmp_path):
    cfg_path = _write(tmp_path, "\n".join([
        "[physics]", "k = 5.0",
        "[bc]", "kind = robin",
        "[output]", f"dir = {tmp_path}/vt",
    ]))
    assert main(["verify", "--config", cfg_path, "--tamper"]) == 1
    report = json.loads((tmp_path / "vt" / "verify_report.json").read_text())
    failed = {name for name, res in report.items()
              if isinstance(res, dict) and not res["passed"]}
    # the tampered exchange is no reflection; the scattering is untouched
    assert "exchange_axioms" in failed
    assert "energy_identity" not in failed


@pytest.mark.parametrize("kappa_mode,singular", [("zero", ["neumann"]),
                                                 ("resonant", ["dirichlet"])])
def test_verify_lists_singular_conditions(kappa_mode, singular):
    # pure Neumann is singular at kappa^2 = 0, and Dirichlet at the
    # resonance: their solves cannot converge, so equivalence lists them
    # instead of failing; the reference config lists none (below)
    results = run_verification(ProblemConfig(kappa_mode=kappa_mode), seed=42)
    assert results["equivalence"]["singular"] == singular
    assert results["all_passed"]


def test_verification_suites_directly(tmp_path):
    cfg = ProblemConfig()
    results = run_verification(cfg, seed=42)
    assert results["all_passed"]
    assert results["equivalence"]["singular"] == []
    assert results["seed"] == 42
    # the same numbers as the acceptance gate: one suite, one seed per suite
    ref = build_problem(8, 8, 2, 2, k=5.0, bc_kind="robin")
    assert results["exchange_axioms"] == vf.exchange_axioms(ref, np.random.default_rng(42))
    assert results["transmission"] == vf.transmission(ref, np.random.default_rng(42))
    assert results["cauchy_decomposition"] == vf.cauchy_decomposition(
        ref, np.random.default_rng(42))


def test_verification_suites_fail_on_nan(small_problem):
    class NanExchange:
        def apply(self, q):
            return np.nan * q

    p = replace(small_problem, exchange=NanExchange())
    assert not vf.exchange_axioms(p, np.random.default_rng(0))["passed"]
    assert not vf.transmission(p, np.random.default_rng(0))["passed"]


def test_verification_keeps_configured_kappa():
    cfg = ProblemConfig(kappa_mode="absorbing-layer")
    problems = condition_problems(cfg)
    assert all(callable(p.coeffs.kappa_sq) for p in problems.values())
    assert problems["mixed"].coeffs.kappa_sq(0.75, 0.5) == 25.0 * (1 + 0.5j)
    results = run_verification(cfg, seed=42)
    assert results["all_passed"]
    # the volume absorbs, so the lossless isometry check does not apply
    assert results["energy_identity"]["max_isometry"] is None


def test_spectrum_command(tmp_path, capsys):
    cfg_path = _write(tmp_path, "\n".join([
        "[physics]", "k = 5.0",
        "[bc]", "kind = robin",
        "[output]", f"dir = {tmp_path}/sp",
    ]))
    assert main(["spectrum", "--config", cfg_path]) == 0
    report = json.loads((tmp_path / "sp" / "spectrum.json").read_text())
    assert report["pass_estimate_chain"] and report["pass_coercivity_bound"]


def test_spectrum_cap_exceeded(tmp_path):
    cfg_path = _write(tmp_path, "\n".join([
        "[analysis]", "dense_cap = 4",
        "[output]", f"dir = {tmp_path}/spc",
    ]))
    assert main(["spectrum", "--config", cfg_path]) == 2


def test_sweep_command(tmp_path):
    cfg_path = _write(tmp_path, "\n".join([
        "[physics]", "tgamma = boundary_h1",
        "[output]", f"dir = {tmp_path}/sw",
    ]))
    assert main(["sweep", "--config", cfg_path, "--k-list", "5,10"]) == 0
    lines = (tmp_path / "sw" / "sweep.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 2 + 2
    assert main(["sweep", "--config", cfg_path, "--k-list", ""]) == 2
    assert main(["sweep", "--config", cfg_path, "--k-list", "5,abc"]) == 2
    assert main(["sweep", "--config", cfg_path, "--k-list", "-5"]) == 2


def test_cli_config_error_exit(tmp_path):
    cfg_path = _write(tmp_path, "[physics]\nmu_im = -2\n")
    assert main(["solve", "--config", cfg_path]) == 2
    cfg_path = _write(tmp_path, "k = 5.0\n", "headless.ini")
    assert main(["solve", "--config", cfg_path]) == 2
    cfg_path = _write(tmp_path, "[physics]\nk = 5.0\nk = 6.0\n", "repeated.ini")
    assert main(["solve", "--config", cfg_path]) == 2
    # a side that does not exist, and a mixed condition that is all Dirichlet
    cfg_path = _write(tmp_path, "[bc]\nkind = mixed\ngamma_d_predicate = lft\n", "side.ini")
    assert main(["solve", "--config", cfg_path]) == 2
    cfg_path = _write(tmp_path, "[bc]\nkind = mixed\n"
                      "gamma_d_predicate = left, right, bottom, top\n", "all.ini")
    assert main(["solve", "--config", cfg_path]) == 2


def test_cli_assumption_violation_exit(tmp_path, monkeypatch):
    from helmskel import cli
    from helmskel.skeleton import AssumptionViolation

    def boom(cfg):
        raise AssumptionViolation("block 1 singular; perturb kappa or gamma")

    monkeypatch.setattr(cli, "problem_from_config", boom)
    cfg_path = _write(tmp_path, "[physics]\nk = 5.0\n")
    assert main(["solve", "--config", cfg_path]) == 3


@pytest.mark.parametrize("argv,code", [(["solve"], 3), (["verify"], 3), (["spectrum"], 3),
                                       (["sweep", "--k-list", ""], 2)])
def test_cli_failure_leaves_no_output_dir(tmp_path, monkeypatch, argv, code):
    # the default output dir is relative to the cwd; a run that fails
    # before it writes must not create it
    from helmskel import cli
    from helmskel.skeleton import AssumptionViolation

    def boom(cfg):
        raise AssumptionViolation("block 1 singular; perturb kappa or gamma")

    monkeypatch.setattr(cli, "problem_from_config", boom)
    monkeypatch.chdir(tmp_path)
    cfg_path = _write(tmp_path, "[physics]\nk = 5.0\n")
    assert main([argv[0], "--config", cfg_path, *argv[1:]]) == code
    assert not (tmp_path / "out").exists()
