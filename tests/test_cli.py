import argparse
import contextlib
import io
import json
import signal
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from axial import QQ, PrimeField, holds_as_identity, jordan_symmetric_matrices, parse_poly, toric_euf
from axial.cli import _build_parser, main
from axial.errors import SchemaError
from axial.fields import _PRIME_TEST_BOUND, _is_prime
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
SERESS_TEXT = ("E1*(x1*(x2 - E1*x2/lam + B(E1,x2)*E1/lam)) - (E1*x1)*(x2 - E1*x2/lam + B(E1,x2)*E1/lam)"
               " - E1*((x1 - E1*x1/lam + (1-lam)/lam*B(E1,x1)*E1)*(x2 - E1*x2/lam + (1-lam)/lam*B(E1,x2)*E1))")


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

    @pytest.mark.parametrize("p", [3, 5])
    def test_small_prime_field_roundtrip(self, p, tmp_path):
        A = jordan_symmetric_matrices(2, PrimeField(p, allow_small=True))
        path = tmp_path / f"f{p}.json"
        save_algebra(A, path)
        assert json.loads(path.read_text())["field"] == {"kind": "Fp", "p": p, "allow_small": True}
        assert load_algebra(path) == A

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

    def test_identity_over_rational_functions(self, tmp_path, capsys):
        # toric over Q(t), the generic idempotent in the pool; the CLI solves
        # the form from (a, a) = 1 at the pool for the bracket identities
        path = str(tmp_path / "toric-t.json")
        assert main(["construct", "toric", "--field", '{"kind":"Qt","var":"t"}', "-o", path]) == 0
        pool = ["--pool", '["t","1/2","1/t"]']
        assert main(["identity", "--algebra", path, "--name", "jordan"]) == 0
        assert main(["identity", "--algebra", path, "--name", "primitivityFrobenius",
                     "--lambda", "1/2", *pool]) == 0
        capsys.readouterr()
        assert main(["identity", "--algebra", path, "--poly", "B(x1,x2)*x1 - x1", "--json", *pool]) == 1
        (check,) = json.loads(capsys.readouterr().out)["checks"]
        assert not check["passed"] and set(check["detail"]["witness"]["x"]) == {"x1", "x2"}

    def test_identity_poly_names_the_field_variable(self, tmp_path, capsys):
        path = str(tmp_path / "toric-t.json")
        assert main(["construct", "toric", "--field", '{"kind":"Qt","var":"t"}', "-o", path]) == 0
        A = load_algebra(path)
        for text, code in (("(t^2+1)*(((x1*x1)*x2)*x1) - (x1*x1)*(x2*x1)*(t^2+1)", 0), ("x1*x2/(t-1)", 1)):
            capsys.readouterr()
            assert main(["identity", "--algebra", path, "--poly", text, "--json"]) == code
            (check,) = json.loads(capsys.readouterr().out)["checks"]
            assert check["passed"] is holds_as_identity(parse_poly(text, A.field), A).holds is (code == 0)
        assert main(["identity", "--algebra", path, "--poly", "x1^2"]) == 2
        assert "'^' needs a scalar base (at position 2)" in capsys.readouterr().err

    @pytest.mark.parametrize("lines_lam", ["1/2", "1/4"])
    def test_seress_text_and_name_agree(self, lines_lam, tmp_path, capsys):
        """--poly with the catalog's seress text and --name seress print the
        same verdict, method and witness; the axes of 3C(1/4) are not of
        Jordan type 1/2, so there the identity fails with a witness."""
        path = str(tmp_path / "3c.json")
        assert main(["construct", "matsuo", "--lines", "a,b,c", "--lambda", lines_lam, "-o", path]) == 0
        common = ["identity", "--algebra", path, "--lambda", "1/2", "--json",
                  "--pool", '["1","0","0"]', "--pool", '["0","1","0"]']
        capsys.readouterr()
        reports = []
        for how in (["--name", "seress"], ["--poly", SERESS_TEXT]):
            code = main(common + how)
            (check,) = json.loads(capsys.readouterr().out)["checks"]
            reports.append((code, check["passed"], check["detail"]))
        assert reports[0] == reports[1]
        assert reports[0][1] is (lines_lam == "1/2")

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

    def test_orbit_env_cap(self, alg3c_path, toric_path, monkeypatch, capsys):
        # the cap is read at each call: the first call runs with the default
        # cap, and the second, in the same process, sees the variable
        monkeypatch.delenv("AXIAL_MAX_ORBIT", raising=False)
        assert main(["orbit", "--algebra", alg3c_path, "--lambda", "1/2", "--axis", '["1","0","0"]']) == 0
        monkeypatch.setenv("AXIAL_MAX_ORBIT", "10")
        capsys.readouterr()
        code = main(["orbit", "--algebra", toric_path, "--lambda", "1/2", "--json",
                     "--axis", '["1","1/2","1"]', "--axis", '["2","1/2","1/2"]'])
        assert code == 1  # overflow at the small env cap
        (check,) = json.loads(capsys.readouterr().out)["checks"]
        assert check["detail"] == {"cap": 10, "partial_size": 10}

    def test_construct_flat_annihilating(self, tmp_path, capsys):
        out = tmp_path / "fa.json"
        assert main(["construct", "two-gen", "--lambda", "1/2", "--pi", "0",
                     "--flat-annihilating", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["gamma"] == "0"
        # sigma row is identically zero
        assert all(c == "0" for cell in doc["structure"][2] for c in cell)

    @pytest.mark.parametrize("p", [3, 5])
    def test_small_prime_field_files_read_back(self, p, tmp_path):
        path = str(tmp_path / f"f{p}.json")
        field = json.dumps({"kind": "Fp", "p": p, "allow_small": True})
        assert main(["construct", "jordan-sym", "--k", "2", "--field", field, "-o", path]) == 0
        assert main(["check-axis", "--algebra", path, "--element", '["1","0","0"]', "--lambda", "1/2"]) == 0

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_construct_without_output_writes_only_the_document(self, flags, capsys):
        assert main(["construct", "toric", *flags]) == 0
        out, err = capsys.readouterr()
        doc = json.loads(out)
        tor = toric_euf()
        A = algebra_from_json(doc)
        assert A == tor.algebra
        assert form_from_json(doc["form"], A).gram == tor.form.gram
        if flags:
            report = json.loads(err)
            assert (report["command"], report["passed"], report["checks"][0]["name"]) == (
                "construct", True, "construct:toric")
        else:
            assert err.startswith("[ok ] construct:toric  {'dim': 3}\n=> PASS (")

    def test_construct_usage_errors(self):
        assert main(["construct", "two-gen"]) == 2
        assert main(["construct", "matsuo", "--lambda", "1/2"]) == 2

    def test_construct_and_check_axis_over_large_prime_fields(self, tmp_path):
        for p in (2**31 - 1, 10**24 + 7):
            path = tmp_path / f"3c-{p}.json"
            assert main(["construct", "matsuo", "--lines", "a,b,c", "--lambda", "1/2",
                         "--field", json.dumps({"kind": "Fp", "p": p}), "-o", str(path)]) == 0
            assert main(["check-axis", "--algebra", str(path), "--element", '["1","0","0"]',
                         "--lambda", "1/2"]) == 0


ORBIT_3C = ["orbit", "--algebra", "{alg}", "--lambda", "1/2", "--axis", '["1","0","0"]']
USAGE_ERRORS = {
    "field-not-json": (["construct", "toric", "--field", "notjson"], {}),
    "form-not-json": (["radical", "--algebra", "{alg}", "--form", "{bad}"], {}),
    "algebra-is-directory": (["check-axis", "--algebra", "{dir}", "--element", '["1","0","0"]',
                              "--lambda", "1/2"], {}),
    "jordan-sym-k1": (["construct", "jordan-sym", "--k", "1"], {}),
    "env-cap-not-int": (ORBIT_3C, {"AXIAL_MAX_ORBIT": "abc"}),
    "max-size-zero": (ORBIT_3C + ["--max-size", "0"], {}),
    "algebra-not-utf8": (["check-axis", "--algebra", "{bin}", "--element", '["1"]',
                          "--lambda", "1/2"], {}),
    "form-not-utf8": (["radical", "--algebra", "{alg}", "--form", "{bin}"], {}),
    "field-p-not-scalar": (["construct", "toric", "--field", '{{"kind":"Fp","p":[7]}}'], {}),
    "field-allow-small-not-boolean": (["construct", "toric", "--field",
                                       '{{"kind":"Fp","p":5,"allow_small":"false"}}'], {}),
    "field-var-not-text": (["construct", "toric", "--field", '{{"kind":"Qt","var":5}}'], {}),
    "field-strong-pseudoprime": (["construct", "toric", "--field",
                                  '{{"kind":"Fp","p":318665857834031151167461}}'], {}),
    "poly-parse": (["identity", "--algebra", "{alg}", "--poly", "x1*"], {}),
    "poly-zero-denominator": (["identity", "--algebra", "{alg}", "--poly", "1/0*x1"], {}),
    "poly-nested-too-deeply": (["identity", "--algebra", "{alg}", "--poly", "(" * 3000 + "x1" + ")" * 3000], {}),
    "poly-bare-bracket": (["identity", "--algebra", "{alg}", "--poly", "B(x1,x2)",
                           "--pool", '["1","0","0"]'], {}),
    "poly-bracket-plus-element": (["identity", "--algebra", "{alg}", "--poly", "B(x1,x2) + x1",
                                   "--pool", '["1","0","0"]'], {}),
    "bracket-poly-needs-form": (["identity", "--algebra", "{alg}", "--poly", "B(x1,x2)*x1 - x1"], {}),
    "identity-needs-lambda": (["identity", "--algebra", "{alg}", "--name", "ax1"], {}),
    "identity-e-slots-need-pool": (["identity", "--algebra", "{alg}", "--name", "ax1",
                                    "--lambda", "1/2"], {}),
    "poly-e-slots-need-pool": (["identity", "--algebra", "{alg}", "--poly", "E1*x1"], {}),
    "distinct-slots-pool-too-small": (["identity", "--algebra", "{alg}", "--poly", "E1*(E2*x1)",
                                       "--pool", '["1","0","0"]', "--pool", '["1","0","0"]',
                                       "--distinct-slots"], {}),
    "matsuo-two-point-line": (["construct", "matsuo", "--lines", "a,b", "--lambda", "1/2"], {}),
    "qt-lambda-divides-by-zero": (["construct", "two-gen", "--field", '{{"kind":"Qt","var":"t"}}',
                                   "--lambda", "t/(t-t)", "--pi", "0"], {}),
    "qt-lambda-nested-too-deeply": (["construct", "two-gen", "--field", '{{"kind":"Qt","var":"t"}}',
                                     "--lambda", "(" * 3000 + "t" + ")" * 3000, "--pi", "0"], {}),
    "lambda-past-digit-limit": (["check-axis", "--algebra", "{alg}", "--element", '["1","0","0"]',
                                 "--lambda", "9" * 5000], {}),
    "result-past-digit-limit": (["construct", "two-gen", "--lambda", "1/2", "--pi", "9" * 4300], {}),
    "check-axis-needs-lambda": (["check-axis", "--algebra", "{alg}", "--element", '["1","0","0"]'], {}),
    "fusion-needs-lambda": (["fusion", "--algebra", "{alg}", "--element", '["1","0","0"]'], {}),
    "miyamoto-needs-lambda": (["miyamoto", "--algebra", "{alg}", "--element", '["1","0","0"]'], {}),
    "orbit-needs-lambda": (["orbit", "--algebra", "{alg}", "--axis", '["1","0","0"]'], {}),
    "solid-needs-lambda": (["solid", "--algebra", "{alg}", "--a", '["1","0","0"]', "--b", '["0","1","0"]'], {}),
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_error_exit2_without_traceback(case, alg3c_path, tmp_path, monkeypatch, capsys):
    argv, env = USAGE_ERRORS[case]
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    binary = tmp_path / "bin.json"
    binary.write_bytes(b"\xff\xfe\xfa")
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    capsys.readouterr()
    assert main([a.format(alg=alg3c_path, bad=bad, bin=binary, dir=tmp_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

# every subcommand, the repeatable options among them
PARSE_ARGV = [
    ["construct", "matsuo", "--lines", "a,b,c", "--lambda", "1/2", "-o", "3c.json"],
    ["construct", "jordan-sym", "--k", "3", "--json"],
    ["check-axis", "--algebra", "a.json", "--element", '["1","0","0"]', "--lambda", "1/2"],
    ["fusion", "--algebra", "a.json", "--element", '["0","1","0"]', "--lambda", "1/4", "--json"],
    ["frobenius", "--algebra", "a.json", "--normalize", '["1","0","0"]=1', "--normalize", '["0","1","0"]=1'],
    ["frobenius", "--algebra", "a.json"],
    ["radical", "--algebra", "a.json", "--form", "f.json"],
    ["identity", "--algebra", "a.json", "--name", "jordan"],
    ["identity", "--algebra", "a.json", "--poly", "E1*x1", "--pool", '["1","0","0"]',
     "--pool", '["0","1","0"]', "--distinct-slots"],
    ["miyamoto", "--algebra", "a.json", "--element", '["1","0","0"]', "--lambda", "1/2"],
    ["solid", "--algebra", "a.json", "--lambda", "1/2", "--a", "[1]", "--b", "[2]", "--eps", "1,2"],
    ["orbit", "--algebra", "a.json", "--lambda", "1/2", "--axis", "[1]", "--axis", "[2]", "--max-size", "5"],
    ["orbit", "--algebra", "a.json", "--lambda", "1/2", "--axis", "[3]"],
    ["audit-trace", "--algebra", "a.json", "--form", "f.json", "--pairs", "[1]|[2]"],
]


def _subcommands(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_parser_is_built_once_across_main_calls(alg3c_path, toric_path, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    _build_parser.cache_clear()
    e = '["1","0","0"]'
    for argv in (["check-axis", "--algebra", alg3c_path, "--element", e, "--lambda", "1/2"],
                 ["fusion", "--algebra", alg3c_path, "--element", e, "--lambda", "1/2"],
                 ["miyamoto", "--algebra", alg3c_path, "--element", e, "--lambda", "1/2"],
                 ["radical", "--algebra", toric_path],
                 ["identity", "--name", "jordan", "--algebra", alg3c_path],
                 ["construct", "toric", "--json"]):
        assert main(argv) in (0, 2)
    assert built.count("axial") == 1
    assert len(built) == 1 + len(_subcommands(_build_parser()))


def test_shared_parser_help_and_errors_match_a_fresh_build(capsys):
    shared, fresh = _build_parser(), _build_parser.__wrapped__()
    assert shared is _build_parser() is not fresh
    for argv in PARSE_ARGV:  # parsing leaves nothing behind in the parser
        shared.parse_args(argv)
    assert shared.format_help() == fresh.format_help()
    subs, fresh_subs = _subcommands(shared), _subcommands(fresh)
    assert list(subs) == list(fresh_subs) and len(subs) == 10
    for name, sub in fresh_subs.items():
        assert subs[name].format_help() == sub.format_help()
    for argv, help_text in ((["--help"], fresh.format_help()), (["fusion", "--help"], fresh_subs["fusion"].format_help())):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0 and capsys.readouterr().out == help_text
    bogus = ["fusion", "--algebra", "a.json", "--element", "[1]", "--bogus"]
    errors = []
    for parse in (main, fresh.parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(bogus)
        errors.append((exc.value.code, capsys.readouterr().err))
    assert errors[0] == errors[1]
    assert errors[0][0] == 2 and errors[0][1].endswith("error: unrecognized arguments: --bogus\n")


def test_parses_in_threads_match_sequential_ones():
    parser = _build_parser()
    want = [vars(parser.parse_args(argv)) for argv in PARSE_ARGV]
    assert parser.parse_args(PARSE_ARGV[4]).normalize is not parser.parse_args(PARSE_ARGV[4]).normalize
    rounds, n = 40, len(PARSE_ARGV)
    got = [[] for _ in range(4)]

    def parse(k):
        for r in range(rounds):
            for i in range(n):
                j = (i + k + r) % n  # threads parse different commands at once
                got[k].append((j, vars(parser.parse_args(PARSE_ARGV[j]))))

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=parse, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    for results in got:
        assert len(results) == rounds * n
        assert all(ns == want[j] for j, ns in results)


# ---------------------------------------------------------------------------
# malformed and extreme inputs, run in-process: the exit code is always 0, 1
# or 2, and no exception escapes main
# ---------------------------------------------------------------------------

NICE_FIELDS = st.sampled_from([{"kind": "Q"}, {"kind": "Fp", "p": 7}, {"kind": "Qt", "var": "t"}])


def _prime_from(n):
    while not _is_prime(n):
        n += 1
    return n


# primes of every size up to the exact prime test's bound, where root finding
# costs a few powers mod p; composites and larger numbers must exit 2
FIELD_P = st.one_of(
    st.integers(-7, 60),
    st.integers(2**20, _PRIME_TEST_BOUND).map(_prime_from),
    st.integers(2**20, 10**40),
    st.sampled_from([2**31 - 1, 318665857834031151167461, 3317044064679887385961981]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
)
FIELD_DOCS = st.one_of(
    NICE_FIELDS,
    st.fixed_dictionaries({"kind": st.just("Fp"), "p": FIELD_P}),
    st.fixed_dictionaries({"kind": st.just("Qt"), "var": st.one_of(st.text(max_size=3), st.integers())}),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
)
NICE = st.sampled_from(["0", "1", "-1", "2", "1/2", "-1/3", "1/4"])
# Integer literals of up to 4300 digits reach the rational root finder, whose
# cost grows with their length, not with their divisors.  Longer ones exceed
# Python's int-string limit and must exit 2, and so must results that would.
SCALARS = st.one_of(
    NICE,
    st.sampled_from(["0/1", "1/0", "", " ", "1.5", "x", "t", "t/(t-t)"]),
    st.integers(7, 6000).map(lambda k: "9" * k),
    st.integers(7, 6000).map(lambda k: "1/" + "7" * k),
    st.text("0123456789", min_size=7, max_size=4300),
    st.text(max_size=6),
)


def algebra_doc(data, dim, clean):
    """An algebra document; a clean one is well formed, with symmetric constants."""
    scalar = NICE if clean else SCALARS
    side = dim if clean or data.draw(st.booleans()) else data.draw(st.integers(0, 3))
    cells = {(i, j): data.draw(st.lists(scalar, min_size=side, max_size=side))
             for i in range(side) for j in range(i, side)}
    return {
        "field": data.draw(NICE_FIELDS if clean else FIELD_DOCS),
        "dim": dim,
        "basis": [f"b{i}" for i in range(dim)],
        "structure": [[cells[min(i, j), max(i, j)] for j in range(side)] for i in range(side)],
    }


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_cli_survives_malformed_and_extreme_inputs(fuzz_dir, data):
    dim = data.draw(st.integers(0, 3))
    clean = data.draw(st.booleans())
    path = fuzz_dir / "algebra.json"
    if data.draw(st.integers(0, 7)):
        path.write_text(json.dumps(algebra_doc(data, dim, clean)))
    else:
        path.write_bytes(data.draw(st.binary(max_size=24)))
    command = data.draw(st.sampled_from(["check-axis", "fusion", "miyamoto", "frobenius"]))
    argv = [command, "--algebra", str(path)]
    if command != "frobenius":
        scalar = NICE if clean else SCALARS
        n = dim if clean else data.draw(st.integers(0, 4))
        element = data.draw(st.lists(scalar, min_size=n, max_size=n))
        lam = data.draw(scalar)
        argv += [f"--element={json.dumps(element)}", f"--lambda={lam}"]
    _run_in_process(argv)


@settings(max_examples=150, deadline=None)
@given(field=st.one_of(NICE_FIELDS, FIELD_DOCS), lam=SCALARS, pi=SCALARS)
def test_cli_construct_survives_odd_fields_and_scalars(field, lam, pi):
    _run_in_process(["construct", "two-gen", f"--field={json.dumps(field)}", f"--lambda={lam}", f"--pi={pi}"])


class _Overtime(Exception):
    """Raised by _deadline; not an OSError (TimeoutError is one), which
    main() would report as an input error."""


@contextlib.contextmanager
def _deadline(seconds):
    """Raise _Overtime in the block once the given wall time has passed."""
    def expire(signum, frame):
        raise _Overtime(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("lam", ["9" * 47, "1/" + "7" * 49])
def test_construct_with_long_integer_literals_answers(lam):
    # the generators' axis checks find the rational roots of polynomials
    # whose coefficients are about 50 digits long
    with _deadline(2):
        _run_in_process(["construct", "two-gen", "--lambda", lam, "--pi", "9" * 47])


@pytest.mark.parametrize("lam", ["t^100000000", "2^100000000", "(t^1000)^1000", "(t^10000)^10000",
                                 "(2^1000)^1000", "(t+1)^10000"])
def test_huge_exponent_is_an_input_error(lam, capsys):
    with _deadline(1):
        code = main(["construct", "two-gen", "--field", '{"kind":"Qt","var":"t"}',
                     "--lambda", lam, "--pi", "0"])
    assert code == 2
    assert "exceeds" in capsys.readouterr().err


# sixteen-thousand-bit prime powers, and a dense polynomial of 1000 terms
_PRIME_POWERS = [f"{p}^{min(10**4, 20000 // p.bit_length())}" for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)]
_DENSE = "(t^1000-1)/(t-1)"


# the third and fourth build coefficients with large distinct denominators,
# whose gcds grow with the square of their size; the fifth is a quotient whose
# polynomial gcd grows its coefficients along the remainder sequence, and the
# last one whose gcd first lifts twelve such denominators to their lcm
@pytest.mark.parametrize("lam", ["*".join(["(t+1)^400"] * 8), "*".join(["(t+1)"] * 2000),
                                 "+".join(f"{_DENSE}/{q}" for q in _PRIME_POWERS),
                                 _DENSE + "*" + "/".join(_PRIME_POWERS),
                                 "(3*t^2+5*t+1)^60/(7*t^2+2)^60",
                                 "(" + "+".join(f"t^{i}/{q}" for i, q in enumerate(_PRIME_POWERS)) + ")/(t-1)"],
                         ids=["eight-powers", "2000-factors", "prime-power-denominators", "prime-power-divisors",
                              "growing-remainders", "lifted-content"])
def test_costly_product_is_an_input_error(lam, capsys):
    with _deadline(1):
        code = main(["construct", "two-gen", "--field", '{"kind":"Qt","var":"t"}',
                     "--lambda", lam, "--pi", "0"])
    assert code == 2
    assert "exceeds" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["identity", "--poly", "x1 + x١"],
    ["identity", "--poly", "x² - x1"],
    ["identity", "--name", "ax1", "--lambda", "٣/4", "--pool", '["1","0","0"]'],
    ["identity", "--name", "jordan", "--pool", '["١","0","0"]'],
])
def test_non_ascii_digits_exit_2(alg3c_path, argv, capsys):
    assert main(argv[:1] + ["--algebra", alg3c_path] + argv[1:]) == 2
    assert "bad character" in capsys.readouterr().err


def test_non_ascii_digit_in_an_algebra_file_exits_2(alg3c_path, tmp_path, capsys):
    doc = json.loads(open(alg3c_path).read())
    doc["structure"][0][0][0] = "١"
    path = tmp_path / "digits.json"
    path.write_text(json.dumps(doc))
    assert main(["identity", "--name", "jordan", "--algebra", str(path)]) == 2
    assert "bad character '١'" in capsys.readouterr().err
