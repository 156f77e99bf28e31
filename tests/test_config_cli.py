import json
from dataclasses import replace

import numpy as np
import pytest

import helmskel.solvers_spectral as ss
import helmskel.verification as vf
from helmskel.boundary_conditions import KINDS, SIDES
from helmskel.cli import condition_problems, main, run_verification
from helmskel.config import ConfigError, ProblemConfig, parse_config, problem_from_config
from helmskel.problem import build_problem

COMMANDS = (("solve",), ("verify",), ("spectrum",), ("sweep", "--k-list", "5"))


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
    # one key per field, mu set through its two parts: a field dropped
    # without its key, or the reverse, fails here and not at a user's parse
    from dataclasses import fields

    from helmskel.config import _KEYS

    names = {f.name for f in fields(ProblemConfig)} - {"mu"} | {"mu.real", "mu.imag"}
    assert sorted(name for name, _ in _KEYS.values()) == sorted(names)


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


@pytest.mark.parametrize("text,fragment", [
    ("[geometry]\nnx = 0", "nx and ny must be >= 1"),
    ("[geometry]\nwidth = -1", "width and height must be positive"),
    ("[partition]\npx = 0", "px and py must be >= 1"),
    ("[geometry]\nny = 9", "py=2 does not divide ny=9"),
    ("[physics]\nk = 0", "wavenumber k must be positive"),
    ("[physics]\nmu_re = 0", "Re(mu) must be positive"),
    ("[physics]\nkappa_mode = wild", "kappa_mode must be one of"),
    ("[physics]\ngamma = 0", "gamma must be positive"),
    ("[physics]\ntgamma = nope", "tgamma must be 'collar' or 'boundary_h1'"),
    ("[physics]\nsource = two", "source must be zero, one or manufactured"),
    ("[bc]\nkind = periodic", "bc kind must be dirichlet, neumann, robin or mixed"),
    ("[physics]\nsource = manufactured\n[bc]\nkind = robin",
     "manufactured source requires the dirichlet condition"),
    ("[solver]\nmethod = cg", "solver method must be richardson or gmres"),
    ("[solver]\nrelax = 1", "relaxation parameter must lie in (0, 1)"),
    ("[solver]\ntol = 0", "solver tolerance must be positive"),
    ("[solver]\nmaxit = 0", "maxit must be >= 1"),
    # the dense cap and the kernel threshold are constants, not options
    ("[analysis]\ndense_cap = 0", "section [analysis]"),
    ("[analysis]\nsvd_threshold = 0", "section [analysis]"),
    ("[geometry]\nnx = eight", "bad value for [geometry] nx: 'eight'"),
])
def test_bad_values_rejected(tmp_path, text, fragment):
    with pytest.raises(ConfigError) as exc:
        parse_config(_write(tmp_path, text + "\n"))
    assert fragment in str(exc.value)


def test_robin_scale_validation():
    with pytest.raises(ConfigError, match=r"\(A3\)|\(A4\)"):
        ProblemConfig(bc_kind="robin", lambda_scale=0.0)


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("text", ["kind = dirichlet\nlambda_scale = 0",
                                  "kind = robin\ngamma_d_predicate = left,right,top,bottom"],
                         ids=["dirichlet_scale_0", "robin_all_sides"])
def test_condition_rules_hold_for_every_kind(tmp_path, capsys, command, text):
    # verify builds all four kinds from one config, so a config that one
    # kind rejects fails at parse under every kind and every command
    cfg_path = _write(tmp_path, f"[bc]\n{text}\n[output]\ndir = {tmp_path}/out\n")
    assert main([command[0], "--config", cfg_path, *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "mixed" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("text,args,fragment", [
    ("[physics]\nk = nan", (), "bad value for [physics] k: 'nan'"),
    ("[physics]\ngamma = nan", (), "bad value for [physics] gamma: 'nan'"),
    ("[physics]\nmu_re = nan", (), "bad value for [physics] mu_re: 'nan'"),
    ("[geometry]\nwidth = inf", (), "bad value for [geometry] width: 'inf'"),
    ("[bc]\nlambda_scale = nan", (), "bad value for [bc] lambda_scale: 'nan'"),
    ("[solver]\ntol = nan", (), "bad value for [solver] tol: 'nan'"),
    ("[bc]\ng_d = nan", (), "bad value for [bc] g_d: 'nan'"),
    ("seed = -1", (), "seed must be >= 0"),
    ("", ("--seed", "-3"), "seed must be >= 0")],
    ids=["k_nan", "gamma_nan", "mu_re_nan", "width_inf", "lambda_scale_nan", "tol_nan",
         "g_d_nan", "seed_key", "seed_option"])
def test_non_finite_values_and_negative_seeds_rejected(tmp_path, capsys, command, text,
                                                       args, fragment):
    # the [output] section comes first, so a bare "seed = -1" lands in it
    cfg_path = _write(tmp_path, f"[output]\ndir = {tmp_path}/out\n{text}\n")
    assert main([command[0], "--config", cfg_path, *args, *command[1:]]) == 2
    assert capsys.readouterr().err == f"config error: {fragment}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", KINDS)
def test_condition_rules_checked_for_every_kind(kind):
    with pytest.raises(ConfigError, match=r"\(A3\)|\(A4\)"):
        ProblemConfig(bc_kind=kind, lambda_scale=0.0)
    with pytest.raises(ConfigError, match="nonempty proper subset"):
        ProblemConfig(bc_kind=kind, gamma_d_sides=SIDES)


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
    # Richardson's rate follows the coercivity constant alpha (0.178 on this
    # configuration), not the inf-sup constant sigma_min that GMRES follows
    assert report["iterations"] == 165
    history = (tmp_path / "out" / "residual_history.csv").read_text().strip().split("\n")
    assert len(history) == 1 + 1 + 165


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


def test_solve_resonant_failure_diagnosed(tmp_path, monkeypatch):
    # the skeleton dimension (96) exceeds the dense cap: the kernel is
    # counted on the sparse monolithic operator, at any size
    cfg_path = _write(tmp_path, "\n".join([
        "[physics]", "k = 5.0", "kappa_mode = resonant", "source = one",
        "[bc]", "kind = dirichlet",
        "[solver]", "maxit = 60",
        "[output]", f"dir = {tmp_path}/outres",
    ]))
    monkeypatch.setattr(ss, "DENSE_CAP", 4)
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


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
def test_verify_all_pass_and_deterministic(tmp_path, command):
    # two runs of one command pass and write the same files, byte for byte
    cfg_path = _write(tmp_path, "\n".join([
        "[physics]", "k = 5.0", "source = one",
        "[bc]", "kind = robin",
        "[output]", f"dir = {tmp_path}/v1",
    ]))
    assert main([command[0], "--config", cfg_path, *command[1:]]) == 0
    assert main([command[0], "--config", cfg_path, "--out", str(tmp_path / "v2"),
                 *command[1:]]) == 0
    first, second = (sorted((tmp_path / d).iterdir()) for d in ("v1", "v2"))
    assert first and [f.name for f in first] == [f.name for f in second]
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes(), a.name


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
def test_out_overrides_output_dir(tmp_path, command):
    files = {"solve": ["residual_history.csv", "solution.txt", "solve_report.json"],
             "verify": ["verify_report.json"], "spectrum": ["spectrum.json"],
             "sweep": ["sweep.csv"]}
    cfg_path = _write(tmp_path, f"[output]\ndir = {tmp_path}/configured\n")
    override = tmp_path / "override"
    argv = [command[0], "--config", cfg_path, "--out", str(override), *command[1:]]
    assert main(argv) == 0
    assert sorted(p.name for p in override.iterdir()) == files[command[0]]
    assert not (tmp_path / "configured").exists()


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
    results = run_verification(ProblemConfig(kappa_mode=kappa_mode))
    assert results["equivalence"]["singular"] == singular
    assert results["all_passed"]


def test_verification_suites_directly(tmp_path):
    cfg = ProblemConfig()
    results = run_verification(cfg)
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
    results = run_verification(cfg)
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


def test_spectrum_cap_exceeded(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(ss, "DENSE_CAP", 4)
    cfg_path = _write(tmp_path, f"[output]\ndir = {tmp_path}/spc\n")
    assert main(["spectrum", "--config", cfg_path]) == 2
    assert capsys.readouterr().err == "error: skeleton dimension 96 exceeds dense cap 4\n"
    assert not (tmp_path / "spc").exists()


def test_verify_cap_exceeded_fails_in_band(tmp_path, monkeypatch):
    # the certificate cannot be computed under the cap: verify records why,
    # fails, and still reports every identity suite
    monkeypatch.setattr(ss, "DENSE_CAP", 4)
    cfg_path = _write(tmp_path, f"[output]\ndir = {tmp_path}/vc\n")
    assert main(["verify", "--config", cfg_path]) == 1
    report = json.loads((tmp_path / "vc" / "verify_report.json").read_text())
    assert report["spectral"] == {"passed": False,
                                  "error": "skeleton dimension 96 exceeds dense cap 4"}
    assert not report["all_passed"]
    suites = ("exchange_axioms", "energy_identity", "transmission", "equivalence",
              "factorization", "cauchy_decomposition")
    assert all(report[name]["passed"] for name in suites)


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
