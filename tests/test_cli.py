import contextlib
import io
import json
import signal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from axial import QQ, toric_euf
from axial.cli import main
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
    "identity-needs-lambda": (["identity", "--algebra", "{alg}", "--name", "ax1"], {}),
    "matsuo-two-point-line": (["construct", "matsuo", "--lines", "a,b", "--lambda", "1/2"], {}),
    "qt-lambda-divides-by-zero": (["construct", "two-gen", "--field", '{{"kind":"Qt","var":"t"}}',
                                   "--lambda", "t/(t-t)", "--pi", "0"], {}),
    "qt-lambda-nested-too-deeply": (["construct", "two-gen", "--field", '{{"kind":"Qt","var":"t"}}',
                                     "--lambda", "(" * 3000 + "t" + ")" * 3000, "--pi", "0"], {}),
    "lambda-past-digit-limit": (["check-axis", "--algebra", "{alg}", "--element", '["1","0","0"]',
                                 "--lambda", "9" * 5000], {}),
    "result-past-digit-limit": (["construct", "two-gen", "--lambda", "1/2", "--pi", "9" * 4300], {}),
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


# the last two build coefficients with large distinct denominators, whose gcds
# grow with the square of their size
@pytest.mark.parametrize("lam", ["*".join(["(t+1)^400"] * 8), "*".join(["(t+1)"] * 2000),
                                 "+".join(f"{_DENSE}/{q}" for q in _PRIME_POWERS),
                                 _DENSE + "*" + "/".join(_PRIME_POWERS)],
                         ids=["eight-powers", "2000-factors", "prime-power-denominators", "prime-power-divisors"])
def test_costly_product_is_an_input_error(lam, capsys):
    with _deadline(1):
        code = main(["construct", "two-gen", "--field", '{"kind":"Qt","var":"t"}',
                     "--lambda", lam, "--pi", "0"])
    assert code == 2
    assert "exceeds" in capsys.readouterr().err
