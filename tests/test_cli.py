"""End-to-end command line checks driven through main(argv)."""

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import cycloclass
from cycloclass import cli
from cycloclass.arith import PrimeFactorization
from cycloclass.bounds import BoundResult, class_number_bound
from cycloclass.classnum import OrbitNorm, RelativeClassNumber
from cycloclass.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, main


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def test_hminus_59(capsys):
    rc, out, _ = run(capsys, "hminus", "59")
    assert rc == EXIT_OK
    assert out.splitlines()[0] == "h-(59) = 41241 = 3 · 59 · 233"


def test_hminus_trivial_and_prime_values(capsys):
    rc, out, _ = run(capsys, "hminus", "3")
    assert rc == EXIT_OK and out.strip() == "h-(3) = 1"
    rc, out, _ = run(capsys, "hminus", "23")
    assert rc == EXIT_OK and out.strip() == "h-(23) = 3"


def test_hminus_normalizes_conductor(capsys):
    rc, out, _ = run(capsys, "hminus", "46")
    assert rc == EXIT_OK
    assert "h-(23) = 3" in out


def test_hminus_verbose_shows_structure(capsys):
    rc, out, _ = run(capsys, "hminus", "59", "--verbose")
    assert rc == EXIT_OK
    assert "Q = 1" in out and "w = 118" in out
    assert "orbit" in out


def test_hminus_rejects_bad_conductor(capsys):
    rc, _, err = run(capsys, "hminus", "0")
    assert rc == EXIT_USAGE and err.strip()


def test_out_of_range_modulus_refused_up_front(capsys):
    # no unit-group data is built for u above the cap
    for command in ("subfields", "hminus"):
        rc, out, err = run(capsys, command, "1000003")
        assert rc == EXIT_USAGE and not out
        assert err == "error: modulus 1000003 exceeds the largest modulus, 100000\n"


def test_hminus_verbose_notes_probable_primes(capsys):
    rc, out, _ = run(capsys, "hminus", "167", "--verbose")
    assert rc == EXIT_OK
    assert out.splitlines()[-1] == (
        "  note: 5123189985484229035947419 is a probable prime (beyond deterministic range)"
    )


def test_hminus_time_limit(capsys):
    rc, _, err = run(capsys, "hminus", "191", "--time-limit", "0.000001")
    assert rc == EXIT_FAIL
    assert "time limit" in err.lower()


def test_hminus_refuses_unusable_time_limit(capsys):
    # nan and inf would run with no limit at all; -1 is not a duration
    for limit in ("nan", "inf", "-1"):
        rc, out, err = run(capsys, "hminus", "23", "--time-limit", limit)
        assert (rc, out) == (EXIT_USAGE, ""), limit
        assert err.startswith("error: time limit must be a finite number of seconds >= 0"), err


def test_hminus_time_limit_in_factoring_prints_cofactor(capsys):
    # real time: the 64-digit cofactor of h^-(401) stops Pollard rho at the
    # deadline instead of hanging; the bound only has to tell that apart
    start = time.monotonic()
    rc, out, err = run(capsys, "hminus", "401", "--time-limit", "5")
    assert time.monotonic() - start < 30.0
    assert rc == EXIT_FAIL
    assert re.fullmatch(r"h-\(401\) = \d{104} = 41\^2 · 401 · (\d+ · )*C\d+\n", out)
    assert re.fullmatch(
        r"note: h-\(401\): time limit 5\.0s exceeded in factorization "
        r"\(Pollard (rho|p - 1) stopped on C\d+\)\n",
        err,
    )


def test_hminus_prints_values_past_the_str_limit(capsys, monkeypatch):
    # h^- and an orbit norm of 4401 and more digits, above CPython's default
    # limit of 4300 digits for int-to-str conversion, print in full, with
    # and without --verbose; the norms and the factoring are stubbed
    cofactor = 10**4400 + 1  # x^275 + 1 at x = 10^16: divisible by x + 1
    value = 3 * cofactor
    norm = Fraction(value, 2 * 8191)
    result = RelativeClassNumber(
        8191, value, PrimeFactorization(value, ((3, 1),), cofactor),
        (OrbitNorm(8190, 2160, (1,), norm),), 1, 16382,
        "time limit 3s exceeded in factorization (Pollard p - 1 stopped on C4401)",
    )
    monkeypatch.setattr(cli, "relative_class_number", lambda u, time_limit: result)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        rc, out, err = run(capsys, "hminus", "8191", "--time-limit", "3")
        rc_v, out_v, err_v = run(capsys, "hminus", "8191", "--verbose")
    finally:
        sys.set_int_max_str_digits(limit)
    digits = "3" + "0" * 4399 + "3"
    assert rc == rc_v == EXIT_FAIL
    assert out == f"h-(8191) = {digits} = 3 · C4401\n"
    assert err == err_v == f"note: h-(8191): {result.note}\n"
    assert out_v == out + (
        "  Q = 1, roots of unity w = 16382\n"
        f"  orbit order=8190 size=2160 rep=(1,): size 2160, norm {digits}/16382\n"
    )


def test_bound_rounded(capsys):
    rc, out, _ = run(capsys, "bound", "--disc", "59", "--m", "2")
    assert rc == EXIT_OK
    assert "H = 62.64031880 (rounded up)" in out


def test_bound_rounded_up_is_an_upper_bound(capsys):
    # H = 752056909.932...; rounding to nearest would print 752056909.9
    rc, out, _ = run(capsys, "bound", "--disc", "1234567", "--m", "7")
    assert rc == EXIT_OK
    assert out == "H = 752056910.0 (rounded up)\n"


def test_printed_bounds_are_upper_bounds(capsys, monkeypatch):
    # every H_F printed by the bundled audit and the subfield lattices of
    # 480, 571 and 9907 reads as a decimal >= H_fraction, equal when exact
    shown = []
    display = BoundResult.display

    def recording(self, digits=10):
        text = display(self, digits)
        shown.append((self, text))
        return text

    monkeypatch.setattr(BoundResult, "display", recording)
    for argv in (("verify-paper", "--format", "structured"), ("subfields", "480"),
                 ("subfields", "571"), ("subfields", "9907")):
        rc, out, _ = run(capsys, *argv)
        assert rc == EXIT_OK and out, argv
    assert len(shown) > 400
    for bound, text in shown:
        number, marker = text.split(" ", 1)
        if bound.rounded_up:
            assert marker == "(rounded up)" and Fraction(number) >= bound.H_fraction, text
        else:
            assert marker == "(exact)" and Fraction(number) == bound.H_fraction, text


def test_bound_exact(capsys):
    rc, out, _ = run(capsys, "bound", "--disc", "3969", "--m", "1")
    assert rc == EXIT_OK
    assert "H = 63.00000000 (exact)" in out


def test_bound_degenerate_rejected(capsys):
    rc, _, err = run(capsys, "bound", "--disc", "1", "--m", "2")
    assert rc == EXIT_USAGE and "degenerate" in err


def test_bound_refuses_degree_above_limit(capsys):
    # (m - 1)! alone takes seconds at m = 2 * 10^6; the refusal comes first
    t0 = time.perf_counter()
    rc, out, err = run(capsys, "bound", "--disc", "5", "--m", "2000000")
    assert time.perf_counter() - t0 < 1
    assert (rc, out) == (EXIT_USAGE, "")
    assert "m = 2000000 exceeds the largest degree, 100000" in err
    assert class_number_bound(5, 100_000).degree == 100_000
    with pytest.raises(ValueError, match="largest degree"):
        class_number_bound(5, 100_001)


def test_subfields_59(capsys):
    rc, out, _ = run(capsys, "subfields", "59")
    assert rc == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "subfields of Q(zeta_59)"
    rows = [ln.split() for ln in lines[2:]]
    assert [r[0] for r in rows] == ["1", "2", "29", "58"]
    assert rows[1][2] == "59" and "62.64031880" in lines[3]
    assert rows[3][2] == "~10^100"


def test_subfields_of_q(capsys):
    # Q(zeta_1) = Q(zeta_2) = Q, as hminus 1 and hminus 2 read them
    for u in ("1", "2"):
        rc, out, err = run(capsys, "subfields", u)
        assert (rc, err) == (EXIT_OK, "")
        assert out.splitlines() == [
            "subfields of Q(zeta_1)",
            " degree  conductor                    |disc|  H_F",
            "      1          1                         1  1.000000000 (exact)",
        ]


def test_subfields_discriminant_beyond_str_limit(capsys):
    # |disc Q(zeta_2003)| = 2003^2001 has more digits than str() converts.
    rc, out, _ = run(capsys, "subfields", "2003")
    assert rc == EXIT_OK
    last = out.splitlines()[-1].split()
    assert last[:3] == ["2002", "2003", "~10^6606"]


def test_subfields_abbreviate_exactly_the_large_discriminants(capsys):
    # a row prints |disc| in full below 10^24 and as ~10^E from there on,
    # with 10^E <= |disc| < 10^(E+1); 9907's discriminants run to 39,000 digits
    for u in (480, 9907):
        rc, out, _ = run(capsys, "subfields", str(u))
        assert rc == EXIT_OK
        rows = [line.split() for line in out.splitlines()[2:]]
        fields = cycloclass.subfields(u)
        assert len(rows) == len(fields)
        for (degree, conductor, disc_s, *_), F in zip(rows, fields):
            assert (int(degree), int(conductor)) == (F.degree, F.conductor)
            disc = F.abs_discriminant
            if disc < 10**24:
                assert disc_s == str(disc)
            else:
                E = int(re.fullmatch(r"~10\^(\d+)", disc_s)[1])
                assert 10**E <= disc < 10 ** (E + 1), (u, F.degree, F.conductor)


def test_audit_clean_file(tmp_path, capsys):
    f = tmp_path / "recs.jsonl"
    f.write_text(
        json.dumps(
            {
                "field": {"kind": "cyclotomic", "u": 23},
                "h_minus": [[3, 1]],
                "source": "test",
            }
        )
        + "\n"
    )
    rc, out, _ = run(capsys, "audit", str(f))
    assert rc == EXIT_OK
    assert "audit outcome: PASS (no violations)" in out
    assert "VIOLATION" not in out.replace("0 VIOLATION", "")


def test_audit_violation_exits_1(tmp_path, capsys):
    f = tmp_path / "recs.jsonl"
    f.write_text(
        json.dumps(
            {
                "field": {"kind": "abelian", "degree": 3},
                "h": [[5, 1]],
                "source": "test",
            }
        )
        + "\n"
    )
    rc, out, _ = run(capsys, "audit", str(f))
    assert rc == EXIT_FAIL
    assert "VIOLATION" in out and "FAIL" in out


def test_audit_malformed_file_exits_2(tmp_path, capsys):
    f = tmp_path / "recs.jsonl"
    f.write_text('{"field": {"kind": "cyclotomic", "u": 118}}\n')
    rc, _, err = run(capsys, "audit", str(f))
    assert rc == EXIT_USAGE
    assert "line 1" in err


def test_audit_refuses_large_primes_before_testing_them(tmp_path, capsys):
    # is_prime of 2^2203 - 1 alone takes seconds and cannot be stopped: the
    # 2^1024 limit on listed primes, and the degree check on descents.n,
    # refuse each of these before any primality test
    m4423, m2203 = 2**4423 - 1, 2**2203 - 1
    field = {"kind": "cyclotomic", "u": 59}
    records = [
        ({"field": field, "h_minus": [[m4423, 1]]}, "h_minus: a prime of 4423 bits exceeds"),
        ({"field": field, "h_minus": [[3, 1]], "p_ranks": {str(m4423): 1}},
         "p_ranks key of 4423 bits exceeds"),
        ({"field": {"kind": "abelian", "degree": 3}, "h": [[3, 1]],
          "descents": [{"n": m2203, "abs_disc": 5, "degree": 1}]},
         "its degree 1 times n must equal the field degree 3"),
    ]
    f = tmp_path / "recs.jsonl"
    for rec, message in records:
        f.write_text(json.dumps(dict(rec, source="probe")) + "\n")
        t0 = time.perf_counter()
        rc, out, err = run(capsys, "audit", str(f))
        assert time.perf_counter() - t0 < 1
        assert (rc, out) == (EXIT_USAGE, "")
        assert "line 1: " in err and message in err


def test_audit_diagnostics_abbreviate_wide_integers(tmp_path, capsys):
    # an echoed integer above 2^256 is printed as its number of digits
    m607, m521, m2203 = 2**607 - 1, 2**521 - 1, 2**2203 - 1
    cyclotomic = {"kind": "cyclotomic", "u": 59}
    records = [
        ({"field": {"kind": "cyclotomic", "u": 10**3000}, "h_minus": [[3, 1]]},
         "field.u = <3001-digit integer> exceeds the largest modulus, 100000"),
        ({"field": {"kind": "abelian", "degree": 10**3000}, "h": [[3, 1]]},
         "field.degree = <3001-digit integer> exceeds the largest degree, 100000"),
        ({"field": {"kind": "abelian", "degree": 3}, "h": [[3, 1]],
          "descents": [{"n": m2203, "abs_disc": 5, "degree": 1}]},
         "descents entry for n = <664-digit integer>: its degree 1 times n must "
         "equal the field degree 3"),
        ({"field": cyclotomic, "h_minus": [[m607, 1], [m521, 1]]},
         "h_minus: primes must be strictly increasing, <157-digit integer> after "
         "<183-digit integer>"),
        ({"field": cyclotomic, "h_minus": [[3, 1]], "p_ranks": {str(3 * m607): 1}},
         "p_ranks key <184-digit integer> is not prime"),
        ({"field": cyclotomic, "h_minus": [[3, 1]], "p_ranks": {str(m607): 1}},
         "p_ranks lists <183-digit integer>, which divides none of the stated class numbers"),
    ]
    f = tmp_path / "recs.jsonl"
    for rec, message in records:
        f.write_text(json.dumps(dict(rec, source="probe")) + "\n")
        t0 = time.perf_counter()
        rc, out, err = run(capsys, "audit", str(f))
        assert time.perf_counter() - t0 < 1
        assert (rc, out) == (EXIT_USAGE, "")
        assert err == f"error: {f}: line 1: {message}\n"
        assert len(err) - len(str(f)) < 200


def test_audit_unreadable_json_exits_2(tmp_path, capsys):
    # json.loads refuses a 5000-digit integer with a plain ValueError
    f = tmp_path / "recs.jsonl"
    field = '{"kind": "abelian", "degree": 3, "abs_disc": ' + "1" * 5000 + "}"
    f.write_text('{"field": ' + field + ', "h": [[3, 1]], "source": "probe"}\n')
    rc, out, err = run(capsys, "audit", str(f))
    assert (rc, out) == (EXIT_USAGE, "")
    assert "line 1: unreadable JSON" in err and "5000 digits" in err
    # and a RecursionError on arrays nested past the recursion limit
    f.write_text("\n" + "[" * 100_000 + "]" * 100_000 + "\n")
    rc, out, err = run(capsys, "audit", str(f))
    assert (rc, out) == (EXIT_USAGE, "")
    assert "line 2: unreadable JSON (maximum recursion depth exceeded" in err


def test_audit_refuses_descent_search_of_oversized_lattice(tmp_path, capsys):
    # (Z/65520)^* has 948024 subgroups, which subfields also refuses to list:
    # the theorem2 verdict is INCONCLUSIVE and names the refused search
    f = tmp_path / "recs.jsonl"
    rec = {"field": {"kind": "cyclotomic", "u": 65520}, "h_minus": [[3, 1]], "source": "probe"}
    f.write_text(json.dumps(rec) + "\n")
    t0 = time.perf_counter()
    rc, out, _ = run(capsys, "audit", str(f), "--format", "structured")
    assert time.perf_counter() - t0 < 5
    assert rc == EXIT_OK
    (v,) = [o for o in map(json.loads, out.splitlines()) if o.get("theorem") == "theorem2(n=3)"]
    assert v["status"] == "INCONCLUSIVE"
    assert v["witness"]["reason"] == (
        "descent subfield not searched: Q(zeta_65520) has 948024 subfields, "
        "more than 100000; refusing to list them"
    )


def test_audit_missing_file_exits_2(tmp_path, capsys):
    rc, _, err = run(capsys, "audit", str(tmp_path / "nope.jsonl"))
    assert rc == EXIT_USAGE and err.strip()


def test_audit_empty_file_exits_2(tmp_path, capsys):
    f = tmp_path / "empty.jsonl"
    f.write_text("\n")
    rc, _, err = run(capsys, "audit", str(f))
    assert rc == EXIT_USAGE and "no records" in err


def test_audit_structured_format(tmp_path, capsys):
    f = tmp_path / "recs.jsonl"
    f.write_text(
        json.dumps(
            {
                "field": {"kind": "cyclotomic", "u": 23},
                "h_minus": [[3, 1]],
                "source": "test",
            }
        )
        + "\n"
    )
    rc, out, _ = run(capsys, "audit", str(f), "--format", "structured")
    assert rc == EXIT_OK
    objs = [json.loads(ln) for ln in out.splitlines()]
    assert "summary" in objs[-1]
    assert objs[-1]["summary"]["violations"] == 0


def test_verify_paper(capsys):
    rc, out, _ = run(capsys, "verify-paper")
    assert rc == EXIT_OK
    assert "0 VIOLATION" in out
    assert "audit outcome: PASS (no violations)" in out


def test_verify_paper_output_is_deterministic(capsys):
    rc1, out1, _ = run(capsys, "verify-paper")
    rc2, out2, _ = run(capsys, "verify-paper")
    assert (rc1, rc2) == (EXIT_OK, EXIT_OK)
    assert out1 == out2
    rc1, out1, _ = run(capsys, "verify-paper", "--format", "structured")
    rc2, out2, _ = run(capsys, "verify-paper", "--format", "structured")
    assert out1 == out2


# sha256 of stdout for the outputs that define behaviour, recorded when the
# field specs still held one DirichletCharacter per member
PINNED_STDOUT = {
    ("verify-paper", "--format", "structured", "--probable-primes", "allow"):
        "a4f53e82df2895b88f29efecc789375be532ae451a4966b639f21a40bde0ec66",
    ("verify-paper", "--format", "structured", "--probable-primes", "reject"):
        "b66d90ee7c9cac966e9f6910d7f0c7d43da8be0ed20f4e123b5dd6691412e0b1",
    ("subfields", "480"): "47923390a2d14108ea825e65c58578dd33a6dcbc6082131a8ee89ef34a330c9c",
    ("subfields", "571"): "4f908ccdcea4ea893ab7948ff212ea876e8279d48df93b9f569e76f6af69e9fb",
}


def test_pinned_outputs_are_byte_identical(capsys):
    for argv, digest in PINNED_STDOUT.items():
        rc, out, err = run(capsys, *argv)
        assert (rc, err) == (EXIT_OK, ""), argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def _python(script):
    env = dict(os.environ, PYTHONIOENCODING="utf-8",
               PYTHONPATH=str(Path(cycloclass.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout.decode("utf-8")


def test_bounds_need_no_mpmath():
    assert _python("import sys, cycloclass.cli; print('mpmath' in sys.modules)") == "False\n"
    out = _python(
        "import sys\n"
        "sys.modules['mpmath'] = None\n"
        "from cycloclass.cli import main\n"
        "sys.exit(main(['bound', '--disc', '1234567', '--m', '7'])"
        " or main(['verify-paper', '--format', 'structured']))\n"
    )
    bound, audit = out.split("\n", 1)
    assert bound == "H = 752056910.0 (rounded up)"
    digest = PINNED_STDOUT[("verify-paper", "--format", "structured", "--probable-primes", "allow")]
    assert hashlib.sha256(audit.encode()).hexdigest() == digest


def test_no_command_prints_usage(capsys):
    rc, _, err = run(capsys, )
    assert rc == EXIT_USAGE
    assert "usage" in err.lower()
