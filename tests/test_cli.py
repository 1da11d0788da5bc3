import json
import math
import random

import pytest

from skeinrep import scalars, verify
from skeinrep.cfalgebra import CFAlgebra
from skeinrep.cli import SUITES, main
from skeinrep.errors import ParseError, SamplerExhausted
from skeinrep.kernels import (offdiag_kernel, pants_spaces, sample_generic_weights,
                              total_kernel)
from skeinrep.representation import CFRep, WeightSystem, build_rep
from skeinrep.triangulation import standard_library
from skeinrep.verify import exact_torus_weights, suite_signrev

from conftest import (KERNELS_REPORTS, REPORTS, assert_same_kernels_report, assert_same_report,
                      kernels_command, record_float_kernels, split_decimals)


def test_info_name(capsys):
    assert main(["info", "--name", "torus1"]) == 0
    out = capsys.readouterr().out
    assert "g=1 p=1 E=3" in out


def test_info_file(tmp_path, capsys):
    path = tmp_path / "tri.json"
    path.write_text(standard_library("sphere2").to_json())
    assert main(["info", "--triangulation", str(path)]) == 0
    out = capsys.readouterr().out
    assert "g=0 p=3" in out
    # sigma is the zero matrix
    report = json.loads(out[out.index("{"):])
    assert report["sigma"] == [[0, 0, 0]] * 3


@pytest.mark.parametrize("command", ["info", "kernels"])
def test_name_and_triangulation_file_together_is_an_input_error(tmp_path, capsys, command):
    path = tmp_path / "tri.json"
    path.write_text(standard_library("sphere2").to_json())
    assert_input_error(main([command, "--name", "torus1", "--triangulation", str(path)]),
                       capsys)


def test_info_malformed(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{this is not json")
    assert main(["info", "--triangulation", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_kernels_torus_with_weights_file(tmp_path, capsys):
    rc = main(["kernels", "--name", "torus1", "--weights", torus_weights_file(tmp_path),
               "--N", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    report = json.loads(out)
    assert report["total_dim"] == 3
    assert report["per_vertex_dims"] == [3]


def torus_weights_file(tmp_path, entries=3):
    """Exact torus weights at N=3, keeping only the first `entries` weights."""
    data = json.loads(exact_torus_weights(CFAlgebra(standard_library("torus1"), 3)).to_json())
    data["u"] = data["u"][:entries]
    wpath = tmp_path / "w.json"
    wpath.write_text(json.dumps(data))
    return str(wpath)


def assert_input_error(rc, capsys):
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("faces", [0, -1, "x", 2.5, True])
def test_info_rejects_a_face_count_that_is_not_a_positive_int(tmp_path, capsys, faces):
    path = tmp_path / "tri.json"
    path.write_text(json.dumps({"faces": faces, "glue": []}))
    rc = main(["info", "--triangulation", str(path)])
    err = capsys.readouterr().err
    assert rc == 2 and err.count("\n") == 1
    assert err.startswith("error: ") and "face count must be a positive integer" in err


# torus1 has faces 0 and 1, so every face index truncates back to itself:
# int() would load each of these files as torus1
@pytest.mark.parametrize("bad_face", [lambda f: f + 0.9, str, bool],
                         ids=["float", "string", "bool"])
@pytest.mark.parametrize("command", ["info", "kernels"])
def test_glue_entries_must_be_integers(tmp_path, capsys, command, bad_face):
    data = json.loads(standard_library("torus1").to_json())
    data["glue"] = [[bad_face(f), s] for f, s in data["glue"]]
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(data))
    assert_input_error(main([command, "--triangulation", str(path)]), capsys)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_kernels_rejects_a_weights_file_whose_N_is_not_an_int(tmp_path, capsys, mode):
    T = standard_library("torus1")
    W = exact_torus_weights(CFAlgebra(T, 3))
    if mode == "float":
        W = WeightSystem(T, 3, u=[complex(ui) for ui in W.u])
    data = json.loads(W.to_json())
    data["N"] = 3.0
    with pytest.raises(ParseError, match="N must be odd"):
        WeightSystem.from_json(T, json.dumps(data))
    wpath = tmp_path / "w.json"
    wpath.write_text(json.dumps(data))
    assert_input_error(main(["kernels", "--name", "torus1", "--weights", str(wpath)]),
                       capsys)


@pytest.mark.parametrize("x", [-1, 1], ids=["x-valid", "x-invalid"])
def test_kernels_rejects_weights_without_u(tmp_path, capsys, x):
    T = standard_library("sphere2")
    W = WeightSystem(T, 3, x=[complex(x)] * 3)
    assert W.validate()["valid"] == (x == -1)
    wpath = tmp_path / "w.json"
    wpath.write_text(W.to_json())
    assert_input_error(main(["kernels", "--name", "sphere2", "--weights", str(wpath)]),
                       capsys)


@pytest.mark.parametrize("bad,match", [
    ([math.nan, 0.0], "not finite"), ([math.inf, 0.0], "not finite"),
    ([-math.inf, 0.0], "not finite"), (["1+2j"], "not two numbers"),
    ([True, 0], "not two numbers"), ([1], "not two numbers"),
    # finite, but x = u^(2N) overflows
    ([1e300, 0], "not finite"),
], ids=["nan", "inf", "-inf", "string", "boolean", "one-number", "x-overflows"])
def test_kernels_rejects_non_finite_float_weights(tmp_path, capsys, bad, match):
    T = standard_library("torus1")
    W = exact_torus_weights(CFAlgebra(T, 3))
    data = json.loads(WeightSystem(T, 3, u=[complex(ui) for ui in W.u]).to_json())
    assert data["u"][1] == [1.0, 0.0]
    data["u"][1] = bad
    text = json.dumps(data)
    with pytest.raises(ParseError, match=match):
        WeightSystem.from_json(T, text)
    wpath = tmp_path / "w.json"
    wpath.write_text(text)
    assert_input_error(main(["kernels", "--name", "torus1", "--weights", str(wpath)]),
                       capsys)


@pytest.mark.parametrize("key,bad,match", [
    ("u", [True, 1], "not a pair"), ("u", [1, True], "not a pair"),
    ("u", [1.0, 1], "not a pair"), ("u", ["1", 1], "not a pair"),
    ("u", [1], "not a pair"), ("u", [1, 0], "not a pair"),
    ("field_order", 12.0, "not a positive int"), ("field_order", "12", "not a positive int"),
    ("field_order", True, "not a positive int"), ("field_order", 0, "not a positive int"),
    ("field_order", 18, "not a positive int"),
], ids=["bool-numerator", "bool-denominator", "float", "string", "one-number",
        "zero-denominator", "order-float", "order-string", "order-bool", "order-zero",
        "order-not-a-multiple"])
def test_kernels_rejects_malformed_exact_weights(tmp_path, capsys, key, bad, match):
    T = standard_library("torus1")
    data = json.loads(exact_torus_weights(CFAlgebra(T, 3)).to_json())
    assert data["u"][0][0] == [1, 1] and data["field_order"] == 12
    if key == "u":
        data["u"][0][0] = bad
    else:
        data["field_order"] = bad
    text = json.dumps(data)
    with pytest.raises(ParseError, match=match):
        WeightSystem.from_json(T, text)
    wpath = tmp_path / "w.json"
    wpath.write_text(text)
    assert_input_error(main(["kernels", "--name", "torus1", "--weights", str(wpath)]),
                       capsys)


@pytest.mark.parametrize("option,text,message", [
    ("--weights", '{"N": 3, "mode": "exact"}', "bad weights file: missing field 'u'"),
    ("--weights", "[1, 2]", "bad weights file: the top level must be a JSON object"),
    ("--triangulation", '{"faces": 2}', "bad triangulation file: missing field 'glue'"),
    ("--triangulation", "[1, 2]", "bad triangulation file: the top level must be a JSON object"),
], ids=["weights-without-u", "weights-list", "triangulation-without-glue",
        "triangulation-list"])
def test_input_errors_name_the_missing_field_or_the_top_level(tmp_path, capsys, option,
                                                               text, message):
    path = tmp_path / "in.json"
    path.write_text(text)
    where = ["--name", "torus1"] if option == "--weights" else []
    # exit code 2 and one line
    rc = main(["kernels", *where, option, str(path)])
    assert rc == 2 and capsys.readouterr().err == f"error: {message}\n"


def test_kernels_weights_too_few_entries(tmp_path, capsys):
    wpath = torus_weights_file(tmp_path, entries=2)
    assert_input_error(main(["kernels", "--name", "torus1", "--weights", wpath]), capsys)


def test_kernels_weights_N_mismatch(tmp_path, capsys):
    wpath = torus_weights_file(tmp_path)
    rc = main(["kernels", "--name", "torus1", "--weights", wpath, "--N", "5"])
    assert_input_error(rc, capsys)


def test_info_even_N_rejected(capsys):
    assert_input_error(main(["info", "--name", "torus1", "--N", "4"]), capsys)


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_bad_tol_rejected(tol, capsys):
    assert_input_error(main(["kernels", "--name", "torus1", "--tol", tol]), capsys)
    assert_input_error(main(["verify", "--suite", "torus", "--tol", tol]), capsys)


def test_kernels_invalid_weights(tmp_path, capsys):
    T = standard_library("torus1")
    alg = CFAlgebra(T, 3)
    one = alg.scalars.one()
    W = WeightSystem(T, 3, u=[one, one, one])  # x = (1,1,1): invalid
    wpath = tmp_path / "w.json"
    wpath.write_text(W.to_json())
    rc = main(["kernels", "--name", "torus1", "--weights", str(wpath)])
    out = capsys.readouterr().out
    assert rc == 1
    assert not json.loads(out)["weights_valid"]


def test_kernels_genus2_sampled(capsys, monkeypatch):
    shapes = record_float_kernels(monkeypatch)
    for seed in ("5", "0"):
        rc = main(["kernels", "--name", "genus2_sep", "--N", "3", "--seed", seed])
        out = capsys.readouterr().out
        assert rc == 0
        report = json.loads(out)
        assert report["total_dim"] == 27 and report["dim"] == 81
        assert [e["multiplicity"] for e in report["eigen"]] == [27, 27, 27]
        # on one vertex F is ker mu(Q_v), so its dimension is the vertex's
        assert report["per_vertex_dims"] == [27]
    # and no 81 x 81 kernel is taken, only thin ones in the joint spaces
    assert shapes and all(shape[0] == 81 and shape[1] < 81 for shape in shapes)


def test_no_push_off_is_made_dense(monkeypatch, capsys):
    # rho[K1]'s spectrum comes from the pants spaces F was taken in, so
    # neither the genus-2 suite nor the kernels report makes a dense image
    calls = []
    original = CFRep.apply
    monkeypatch.setattr(CFRep, "apply", lambda rep, a: calls.append(a) or original(rep, a))
    assert all(c.passed for c in verify.suite_genus2(3, random.Random(0), 1e-8))
    assert main(["kernels", "--name", "genus2_sep", "--N", "3", "--seed", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [e["multiplicity"] for e in report["eigen"]] == [27, 27, 27]
    assert calls == []


def test_a_family_refused_at_rho_K1s_level_has_no_spectrum(monkeypatch, capsys):
    # at N=3 the level before rho[K1]'s has N^2 = 9 spaces; refusing their
    # split leaves no pants spaces: F is then the dense kernel, the eigen
    # check fails and the kernels report has no eigenvalues
    refused = []
    original = scalars._refine

    def refine(spaces, *args):
        if spaces.count == 9:
            refused.append(spaces)
            return None
        return original(spaces, *args)

    monkeypatch.setattr(scalars, "_refine", refine)
    T = standard_library("genus2_sep")
    rep = build_rep(T, 3, sample_generic_weights(T, 3, random.Random(0)))
    assert pants_spaces(rep, T.designated_edge, 1e-8) is None and refused
    F = total_kernel(rep, 1e-8)
    assert F.dim == 27 and F.equals(offdiag_kernel(rep, 0, tol=1e-8), 1e-8)
    assert [(c.name, c.passed) for c in verify.genus2_checks([rep], 1e-8)] == [
        ("genus2-rep-dim", True), ("genus2-kernel-dim", True),
        ("genus2-eigen-structure", False)]
    assert main(["kernels", "--name", "genus2_sep", "--N", "3", "--seed", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["eigen"] == [] and report["total_dim"] == 27


def test_verify_sphere_and_exit_codes(capsys):
    assert main(["verify", "--suite", "sphere"]) == 0
    out = capsys.readouterr().out
    assert "PASS sphere-rep-dim" in out
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "nonsense"])


def test_verify_even_N_rejected(capsys):
    assert main(["verify", "--suite", "sphere", "--N", "4"]) == 2


def test_verify_deterministic_reports(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--suite", "torus", "--seed", "7",
                 "--out", str(p1)]) == 0
    assert main(["verify", "--suite", "torus", "--seed", "7",
                 "--out", str(p2)]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


def test_verify_failed_check_exits_1(capsys):
    assert main(["verify", "--suite", "torus", "--tol", "1e-30"]) == 1
    assert "FAIL torus-kernel-dim" in capsys.readouterr().out


# The ordered check names each suite's report must carry.
REPORT_CHECKS = {
    "algebra": ["weyl-product-law", "central-element-coefficient",
                "central-element-commutes", "prefix-order-cases",
                "torus-offdiag-factorization", "offdiag-start-rotation-recursion"],
    "torus": ["torus-weights-valid", "torus-annihilates-offdiag", "torus-kernel-dim"],
    "sphere": ["sphere-rep-dim", "sphere-kernel-dim", "sphere-annihilates-offdiag"],
    "genus2": ["genus2-rep-dim", "genus2-kernel-dim", "genus2-eigen-structure"],
    "subdivision": ["quantum-binomial-N3", "quantum-binomial-N5",
                    "subdivision-homomorphism", "subdivision-weights-valid",
                    "subdivision-kernel-dim", "subdivision-eigenvalues",
                    "subdivision-restriction-identity"],
    "flip": ["flip-coordinate-change", "flip-preserves-central-elements",
             "flip-offdiag-transfer", "flip-weights-involutive",
             "flip-double-isomorphic", "flip-classical-table"],
    "sweep": ["sweep-restriction-agrees", "sweep-kernel-equality",
              "sweep-offdiag-identity"],
    "threading": ["threading-exact", "threading-float", "threading-central-scalar"],
    "signrev": ["chebyshev-odd-degrees", "signrev-fixes-offdiag", "signrev-invariants",
                "signrev-flips-odd-monomials"],
}


# seed 4 draws a sign-reversal class that is even on the whole balanced lattice
@pytest.mark.parametrize("suite,seed", [(s, 0) for s in SUITES] + [("signrev", 4)],
                         ids=list(SUITES) + ["signrev-seed4"])
def test_verify_suite_passes(suite, seed, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", suite, "--N", "3", "--seed", str(seed),
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [c["name"] for c in report["checks"]] == REPORT_CHECKS[suite]
    if seed == 0:  # the committed reference reports (tests/reports/regenerate.py)
        assert_same_report(report, json.loads((REPORTS / f"verify-{suite}-N3.json").read_text()))


@pytest.mark.parametrize("suite", SUITES)
def test_verify_suite_matches_its_N5_reference_report(suite, tmp_path):
    # float genus-2 reports at N=5 read the monomial images of dim 625
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", suite, "--N", "5", "--seed", "0", "--out", str(out)]) == 0
    assert_same_report(json.loads(out.read_text()),
                       json.loads((REPORTS / f"verify-{suite}-N5.json").read_text()))


@pytest.mark.parametrize("name", KERNELS_REPORTS)
def test_kernels_report_matches_its_reference(name, tmp_path):
    # pants_spaces, total_kernel and certified_kernel through the CLI
    out = tmp_path / "report.json"
    assert main(kernels_command(name, tmp_path) + ["--out", str(out)]) == 0
    assert_same_kernels_report(json.loads(out.read_text()),
                               json.loads((REPORTS / f"{name}.json").read_text()))


def test_kernels_report_comparison_catches_a_changed_dimension_or_eigenvalue():
    want = json.loads((REPORTS / "kernels-genus2_sep-N3.json").read_text())

    def moved(shift):
        report = json.loads(json.dumps(want))
        report["eigen"][1]["value"][0] += shift
        return report

    assert_same_kernels_report(moved(1e-13), want)
    for bad in (moved(1e-11), dict(want, total_dim=26), dict(want, eigen=want["eigen"][:-1]),
                dict(want, eigen=[dict(e, multiplicity=26) for e in want["eigen"]])):
        with pytest.raises(AssertionError):
            assert_same_kernels_report(bad, want)


def test_report_comparison_catches_a_changed_detail_or_a_flipped_check():
    want = json.loads((REPORTS / "verify-threading-N3.json").read_text())
    assert [c["detail"] for c in want["checks"]][1].endswith("residual <= 1.11e-14")

    def changed(index, **kw):
        report = json.loads(json.dumps(want))
        report["checks"][index].update(kw)
        return report

    assert_same_report(changed(1, detail="20 random weight systems, residual <= 1.12e-14"), want)
    for bad in (changed(0, passed=False),
                changed(1, detail="21 random weight systems, residual <= 1.11e-14"),
                changed(1, detail="20 random weight systems, residual <= 1.11e-11"),
                changed(2, detail="T_N of a central image is the expected scalar")):
        with pytest.raises(AssertionError):
            assert_same_report(bad, want)
    assert split_decimals("dim F = 27, tol 1e-8, 0.5") == ("dim F = 27, tol #, #", [1e-8, 0.5])


def test_threading_suite_is_exact_beyond_N3(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "threading", "--N", "5", "--seed", "0",
                 "--out", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    assert [c["name"] for c in checks] == REPORT_CHECKS["threading"]


def test_signrev_class_draws_are_bounded():
    class Zeros(random.Random):
        def randint(self, a, b):
            return a

    with pytest.raises(SamplerExhausted):
        suite_signrev(3, Zeros(0), 1e-8)
