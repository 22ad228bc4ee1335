import json
from fractions import Fraction

import pytest

from axial import QQ, toric_euf
from axial.cli import main
from axial.errors import SchemaError
from axial.io import (
    algebra_from_json,
    algebra_to_json,
    element_from_json,
    element_to_json,
    form_from_json,
    form_to_json,
    load_algebra,
    save_algebra,
)

HALF = Fraction(1, 2)


class TestIoRoundTrip:
    def test_algebra_bit_exact(self, toric, tmp_path):
        path = tmp_path / "toric.json"
        save_algebra(toric.algebra, path)
        loaded = load_algebra(path)
        assert loaded == toric.algebra
        # serialized form is stable
        assert algebra_to_json(loaded) == algebra_to_json(toric.algebra)

    def test_element_roundtrip(self, mats3c):
        A = mats3c.algebra
        x = A.element([Fraction(1), Fraction(-1, 2), Fraction(27, 32)])
        assert element_from_json(element_to_json(x), A) == x

    def test_form_roundtrip(self, mats3c):
        doc = form_to_json(mats3c.form)
        assert form_from_json(doc, mats3c.algebra).gram == mats3c.form.gram

    def test_malformed_scalar(self, toric):
        doc = algebra_to_json(toric.algebra)
        doc["structure"][0][0][0] = "1.5"
        with pytest.raises(SchemaError):
            algebra_from_json(doc)

    def test_asymmetric_structure_rejected(self, toric):
        from axial.errors import AsymmetricStructure

        doc = algebra_to_json(toric.algebra)
        doc["structure"][0][1][0] = "7"
        with pytest.raises(AsymmetricStructure):
            algebra_from_json(doc)

    def test_schema_violations(self):
        with pytest.raises(SchemaError):
            algebra_from_json({"dim": 1})
        with pytest.raises(SchemaError):
            algebra_from_json({"field": {"kind": "Q"}, "dim": 2, "basis": ["a"], "structure": []})


@pytest.fixture()
def alg3c_path(tmp_path):
    path = tmp_path / "3c.json"
    code = main(["construct", "matsuo", "--lines", "a,b,c", "--lambda", "1/2", "-o", str(path)])
    assert code == 0
    return str(path)


@pytest.fixture()
def toric_path(tmp_path):
    path = tmp_path / "toric.json"
    assert main(["construct", "toric", "-o", str(path)]) == 0
    return str(path)


class TestCliPipeline:
    def test_construct_then_check_axis(self, alg3c_path):
        code = main(["check-axis", "--algebra", alg3c_path,
                     "--element", '["1","0","0"]', "--lambda", "1/2"])
        assert code == 0

    def test_check_axis_fails_on_non_axis(self, toric_path):
        code = main(["check-axis", "--algebra", toric_path,
                     "--element", '["1","0","0"]', "--lambda", "1/2"])
        assert code == 1  # e is not even idempotent

    def test_bad_lambda_usage_error(self, alg3c_path):
        code = main(["check-axis", "--algebra", alg3c_path,
                     "--element", '["1","0","0"]', "--lambda", "1"])
        assert code == 2

    def test_malformed_file_exit2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code = main(["check-axis", "--algebra", str(bad),
                     "--element", '["1","0","0"]', "--lambda", "1/2"])
        assert code == 2

    def test_identity_jordan(self, alg3c_path):
        assert main(["identity", "--name", "jordan", "--algebra", alg3c_path]) == 0

    def test_identity_poly_with_pool(self, alg3c_path):
        code = main([
            "identity", "--algebra", alg3c_path, "--lambda", "1/2",
            "--poly", "lam*(E1*x1) + (1-lam)*B(E1,x1)*E1 - E1*(E1*x1)",
            "--pool", '["1","0","0"]', "--pool", '["0","1","0"]', "--pool", '["0","0","1"]',
        ])
        assert code == 0

    def test_fusion(self, alg3c_path):
        assert main(["fusion", "--algebra", alg3c_path,
                     "--element", '["1","0","0"]', "--lambda", "1/2"]) == 0

    def test_miyamoto(self, alg3c_path):
        assert main(["miyamoto", "--algebra", alg3c_path,
                     "--element", '["0","1","0"]', "--lambda", "1/2"]) == 0

    def test_orbit_closed_and_overflow(self, alg3c_path, toric_path):
        assert main(["orbit", "--algebra", alg3c_path, "--lambda", "1/2",
                     "--axis", '["1","0","0"]', "--axis", '["0","1","0"]']) == 0
        code = main(["orbit", "--algebra", toric_path, "--lambda", "1/2",
                     "--axis", '["1","1/2","1"]', "--axis", '["2","1/2","1/2"]',
                     "--max-size", "50"])
        assert code == 1

    def test_frobenius_and_radical(self, alg3c_path, tmp_path, capsys):
        code = main(["frobenius", "--algebra", alg3c_path, "--json",
                     "--normalize", '["1","0","0"]=1',
                     "--normalize", '["0","1","0"]=1',
                     "--normalize", '["0","0","1"]=1'])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema_version"] == 1
        assert report["gram_det"] == "27/32"
        assert report["radical_dim"] == 0
        form_path = tmp_path / "form.json"
        form_path.write_text(json.dumps({"gram": report["gram"]}))
        assert main(["radical", "--algebra", alg3c_path, "--form", str(form_path)]) == 0

    def test_solid(self, toric_path, capsys):
        code = main(["solid", "--algebra", toric_path, "--lambda", "1/2",
                     "--a", '["1","1/2","1"]', "--b", '["2","1/2","1/2"]',
                     "--eps", "1,2,3", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "solid"
        assert report["symbolic_family_checked"] is True

    def test_audit_trace(self, toric_path, tmp_path, capsys):
        tor = toric_euf()
        form_path = tmp_path / "tform.json"
        form_path.write_text(json.dumps(form_to_json(tor.form)))
        assert main(["audit-trace", "--algebra", toric_path, "--form", str(form_path)]) == 0

    def test_json_report_schema(self, alg3c_path, capsys):
        assert main(["check-axis", "--algebra", alg3c_path, "--json",
                     "--element", '["1","0","0"]', "--lambda", "1/2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema_version"] == 1
        assert report["passed"] is True
        assert {c["name"] for c in report["checks"]} >= {"idempotent", "axis-of-type-lambda", "primitive"}

    def test_construct_two_gen_and_jordan_sym(self, tmp_path):
        out = tmp_path / "tg.json"
        assert main(["construct", "two-gen", "--lambda", "1/2", "--pi", "1/8",
                     "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["gamma"] == "-7/16"
        out2 = tmp_path / "h3.json"
        assert main(["construct", "jordan-sym", "--k", "3", "-o", str(out2)]) == 0
        assert json.loads(out2.read_text())["dim"] == 6
        # the matrix Jordan algebra satisfies the Jordan identity
        assert main(["identity", "--name", "jordan", "--algebra", str(out2)]) == 0

    def test_orbit_env_cap(self, toric_path, monkeypatch):
        monkeypatch.setenv("AXIAL_MAX_ORBIT", "10")
        code = main(["orbit", "--algebra", toric_path, "--lambda", "1/2",
                     "--axis", '["1","1/2","1"]', "--axis", '["2","1/2","1/2"]'])
        assert code == 1  # overflow at the small env cap

    def test_construct_flat_annihilating(self, tmp_path, capsys):
        out = tmp_path / "fa.json"
        assert main(["construct", "two-gen", "--lambda", "1/2", "--pi", "0",
                     "--flat-annihilating", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["gamma"] == "0"
        # sigma row is identically zero
        assert all(c == "0" for cell in doc["structure"][2] for c in cell)

    def test_construct_usage_errors(self):
        assert main(["construct", "two-gen"]) == 2
        assert main(["construct", "matsuo", "--lambda", "1/2"]) == 2

    def test_field_too_large_for_root_scan(self, tmp_path, capsys):
        code = main(["construct", "matsuo", "--lines", "a,b,c", "--lambda", "1/2",
                     "--field", '{"kind":"Fp","p":2147483647}', "-o", str(tmp_path / "big.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


ORBIT_3C = ["orbit", "--algebra", "{alg}", "--lambda", "1/2", "--axis", '["1","0","0"]']
USAGE_ERRORS = {
    "field-not-json": (["construct", "toric", "--field", "notjson"], {}),
    "form-not-json": (["radical", "--algebra", "{alg}", "--form", "{bad}"], {}),
    "algebra-is-directory": (["check-axis", "--algebra", "{dir}", "--element", '["1","0","0"]',
                              "--lambda", "1/2"], {}),
    "jordan-sym-k1": (["construct", "jordan-sym", "--k", "1"], {}),
    "env-cap-not-int": (ORBIT_3C, {"AXIAL_MAX_ORBIT": "abc"}),
    "max-size-zero": (ORBIT_3C + ["--max-size", "0"], {}),
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_error_exit2_without_traceback(case, alg3c_path, tmp_path, monkeypatch, capsys):
    argv, env = USAGE_ERRORS[case]
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    capsys.readouterr()
    assert main([a.format(alg=alg3c_path, bad=bad, dir=tmp_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
