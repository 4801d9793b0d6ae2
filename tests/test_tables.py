"""Record tables: strict parsing with line diagnostics, the bundled dataset,
and audit orchestration."""

import json
import time

import pytest

from cycloclass.arith import euler_phi
from cycloclass.congruence import CONSISTENT, INCONCLUSIVE, VIOLATION
from cycloclass.tables import (
    ClassNumberRecord,
    TableFormatError,
    audit_records,
    builtin_paper_dataset,
    format_factors,
    parse_records,
)


def _line(obj) -> str:
    return json.dumps(obj) + "\n"

GOOD = {
    "field": {"kind": "cyclotomic", "u": 59},
    "h_minus": [[3, 1], [59, 1], [233, 1]],
    "source": "test",
}


def test_format_factors():
    assert format_factors(((7, 2), (79241, 1))) == "7^2 * 79241"
    assert format_factors(()) == "1"


def test_parse_good_record():
    (rec,) = parse_records(_line(GOOD))
    assert rec.kind == "cyclotomic" and rec.modulus == 59
    assert rec.h_minus == ((3, 1), (59, 1), (233, 1))
    assert rec.label() == "Q(zeta_59)"


def test_parse_reports_line_numbers():
    text = _line(GOOD) + "\n" + "{not json}\n"
    with pytest.raises(TableFormatError, match="line 3"):
        parse_records(text)


def test_parse_rejects_composite_factor_with_factorization():
    bad = dict(GOOD, h_minus=[[91, 1]])
    with pytest.raises(TableFormatError, match=r"91 = 7 \* 13 is not prime"):
        parse_records(_line(bad))
    # Rho needs ~10^10 steps here: the diagnostic gives up after a second
    # and names the unsplit rest instead of hanging.
    semiprime = 10000000000000000051 * 30000000000000000041
    bad = dict(GOOD, h_minus=[[semiprime, 1]])
    with pytest.raises(TableFormatError, match=rf"{semiprime} = C39 is not prime"):
        parse_records(_line(bad))


def test_parse_rejects_misordered_or_bad_exponents():
    with pytest.raises(TableFormatError, match="strictly increasing"):
        parse_records(_line(dict(GOOD, h_minus=[[59, 1], [3, 1]])))
    with pytest.raises(TableFormatError, match="exponent"):
        parse_records(_line(dict(GOOD, h_minus=[[3, 0]])))
    with pytest.raises(TableFormatError, match="pair"):
        parse_records(_line(dict(GOOD, h_minus=[[3]])))


def test_parse_rejects_unknown_keys():
    with pytest.raises(TableFormatError, match="unknown record key"):
        parse_records(_line(dict(GOOD, extra=1)))
    bad = dict(GOOD, field={"kind": "cyclotomic", "u": 59, "z": 1})
    with pytest.raises(TableFormatError, match="unknown field key"):
        parse_records(_line(bad))


def test_parse_rejects_missing_essentials():
    with pytest.raises(TableFormatError, match="source"):
        parse_records(_line({"field": GOOD["field"], "h_minus": []}))
    with pytest.raises(TableFormatError, match="none of h_minus"):
        parse_records(_line({"field": GOOD["field"], "source": "x"}))
    with pytest.raises(TableFormatError, match="field"):
        parse_records(_line({"h_minus": [], "source": "x"}))


def test_parse_rejects_unnormalized_conductor():
    bad = dict(GOOD, field={"kind": "cyclotomic", "u": 118})
    with pytest.raises(TableFormatError, match="normalized"):
        parse_records(_line(bad))


def test_parse_rejects_modulus_above_limit():
    (rec,) = parse_records(_line(dict(GOOD, field={"kind": "cyclotomic", "u": 99991})))
    assert rec.modulus == 99991
    for kind, key in (("cyclotomic", "u"), ("real-cyclotomic", "l")):
        bad = dict(GOOD, field={"kind": kind, key: 100003})
        with pytest.raises(TableFormatError, match=f"field.{key} = 100003 exceeds"):
            parse_records(_line(bad))


def test_parse_rejects_degree_that_does_not_split():
    # The degree is a semiprime that rho needs ~10^10 steps for: the degree
    # cap refuses it before anything tries to factor it.
    degree = 10000000000000000051 * 30000000000000000041
    bad = {"field": {"kind": "abelian", "degree": degree}, "h": [[3, 1]], "source": "x"}
    t0 = time.perf_counter()
    with pytest.raises(TableFormatError,
                       match=f"field.degree = {degree} exceeds the largest degree, 100000"):
        parse_records(_line(bad))
    assert time.perf_counter() - t0 < 0.1


def test_parse_rejects_degree_above_limit():
    # a descent of degree 10^6 needs a field of degree n * 10^6, refused
    # before its bound is evaluated
    (rec,) = parse_records(_line({"field": {"kind": "abelian", "degree": 100_000}, "h": [[3, 1]],
                                  "source": "x"}))
    assert rec.degree == 100_000
    bad = {
        "field": {"kind": "abelian", "degree": 3_000_000},
        "h": [[3, 1]],
        "descents": [{"n": 3, "abs_disc": 5, "degree": 1_000_000}],
        "source": "x",
    }
    with pytest.raises(TableFormatError,
                       match="line 1: field.degree = 3000000 exceeds the largest degree, 100000"):
        parse_records(_line(bad))


def test_parse_kind_h_key_compatibility():
    bad = {"field": {"kind": "abelian", "degree": 3}, "h_minus": [], "source": "x"}
    with pytest.raises(TableFormatError, match="not meaningful"):
        parse_records(_line(bad))
    bad = {"field": {"kind": "real-cyclotomic", "l": 191}, "h": [], "source": "x"}
    with pytest.raises(TableFormatError, match="not meaningful"):
        parse_records(_line(bad))


def test_parse_p_ranks_validation():
    good = dict(GOOD, p_ranks={"3": 1})
    (rec,) = parse_records(_line(good))
    assert rec.known_rank(3) == 1 and rec.known_rank(59) is None
    with pytest.raises(TableFormatError, match="multiplicity"):
        parse_records(_line(dict(GOOD, p_ranks={"3": 2})))
    with pytest.raises(TableFormatError, match="divides none"):
        parse_records(_line(dict(GOOD, p_ranks={"7": 1})))
    with pytest.raises(TableFormatError, match="not prime"):
        parse_records(_line(dict(GOOD, p_ranks={"9": 1})))


def test_parse_subfield_h_validation():
    good = dict(GOOD, subfield_h=[{"disc": -59, "h": [[3, 1]]}])
    (rec,) = parse_records(_line(good))
    assert rec.subfield_h[0].asserts_divisor(3) is True
    assert rec.subfield_h[0].asserts_divisor(5) is False
    good = dict(GOOD, subfield_h=[{"disc": -59, "h_divisors": [3]}])
    (rec,) = parse_records(_line(good))
    assert rec.subfield_h[0].asserts_divisor(3) is True
    assert rec.subfield_h[0].asserts_divisor(5) is None  # open, not refuted
    with pytest.raises(TableFormatError, match="exactly the keys"):
        parse_records(_line(dict(GOOD, subfield_h=[{"disc": -59}])))
    with pytest.raises(TableFormatError, match="exactly the keys"):
        parse_records(
            _line(dict(GOOD, subfield_h=[{"disc": -59, "h": [], "h_divisors": []}]))
        )
    with pytest.raises(TableFormatError, match="twice"):
        parse_records(
            _line(
                dict(
                    GOOD,
                    subfield_h=[
                        {"disc": -59, "h": [[3, 1]]},
                        {"disc": -59, "h_divisors": [3]},
                    ],
                )
            )
        )


def test_parse_h_divisors_are_listed_primes():
    for divisors, msg in (([5, 3], "strictly increasing"), ([91], r"91 = 7 \* 13 is not prime"),
                          ([1], "must be >= 2")):
        bad = dict(GOOD, subfield_h=[{"disc": -59, "h_divisors": divisors}])
        with pytest.raises(TableFormatError, match=f"subfield_h.h_divisors: .*{msg}"):
            parse_records(_line(bad))


def test_parse_descents_validation():
    good = {
        "field": {"kind": "abelian", "degree": 10, "conductor": 9081},
        "h": [[3, 1]],
        "descents": [{"n": 5, "abs_disc": 9081, "degree": 2}],
        "source": "x",
    }
    (rec,) = parse_records(_line(good))
    assert rec.descents[0].n == 5
    bad = dict(good, descents=[{"n": 5, "abs_disc": 9081, "degree": 3}])
    with pytest.raises(TableFormatError, match="field degree"):
        parse_records(_line(bad))
    bad = dict(GOOD, descents=[{"n": 29, "abs_disc": 59, "degree": 2}])
    with pytest.raises(TableFormatError, match="abelian records"):
        parse_records(_line(bad))
    bad = dict(good, descents=[{"n": 9, "abs_disc": 9081, "degree": 2}])
    with pytest.raises(TableFormatError, match="odd prime"):
        parse_records(_line(bad))


_ABELIAN = {"field": {"kind": "abelian", "degree": 9}, "h": [[3, 1]], "source": "x"}
_DESCENT = {"n": 3, "abs_disc": 5, "degree": 3}


@pytest.mark.parametrize(
    "obj, message",
    [
        ([1], "each line must be a JSON object"),
        (dict(GOOD, field=[]), "field must be an object"),
        (dict(GOOD, field={"kind": "quartic"}),
         "field.kind must be one of ('cyclotomic', 'real-cyclotomic', 'abelian'), got 'quartic'"),
        (dict(GOOD, field={"kind": "cyclotomic"}), "field.u is required for kind 'cyclotomic'"),
        (dict(GOOD, field={"kind": "cyclotomic", "u": "59"}),
         "field.u must be an integer, got '59'"),
        ({"field": {"kind": "real-cyclotomic", "l": 3}, "h_plus": [], "source": "x"},
         "field.l = 3 gives a degenerate real subfield"),
        (dict(_ABELIAN, field={"kind": "abelian"}),
         "field.degree is required for kind 'abelian'"),
        (dict(GOOD, h_minus=3), "h_minus must be a list of [prime, exponent] pairs"),
        (dict(GOOD, p_ranks=[3]), "p_ranks must be an object mapping primes to ranks"),
        (dict(GOOD, p_ranks={"x": 1}), "p_ranks key 'x' is not an integer"),
        (dict(GOOD, subfield_h={}), "subfield_h must be a list of objects"),
        (dict(GOOD, subfield_h=[3]), "subfield_h entries must be objects, got 3"),
        (dict(GOOD, subfield_h=[{"disc": -59, "h_divisors": 3}]),
         "subfield_h.h_divisors must be a list of primes"),
        (dict(GOOD, subfield_h=[{"disc": 1, "h": []}]),
         "subfield_h.disc must be an integer with |disc| >= 3, got 1"),
        (dict(_ABELIAN, descents={}), "descents must be a list of objects"),
        (dict(_ABELIAN, descents=[{"n": 3}]),
         "each descents entry needs exactly the keys {n, abs_disc, degree}"),
        (dict(_ABELIAN, descents=[_DESCENT, _DESCENT]), "duplicate descents entry for n = 3"),
        (dict(GOOD, h_minus=[[(1 << 1024) + 1, 1]]),
         "h_minus: a prime of 1025 bits exceeds the largest listed prime, 2^1024"),
        (dict(GOOD, p_ranks={str((1 << 1024) + 1): 1}),
         "p_ranks key of 1025 bits exceeds the largest listed prime, 2^1024"),
        (dict(GOOD, p_ranks={"03": 1}), "p_ranks key '03' is not in plain decimal digits"),
        (dict(GOOD, p_ranks={"+3": 1}), "p_ranks key '+3' is not in plain decimal digits"),
        (dict(GOOD, p_ranks={" 59 ": 1}), "p_ranks key ' 59 ' is not in plain decimal digits"),
        (dict(GOOD, p_ranks={"2_33": 1}), "p_ranks key '2_33' is not in plain decimal digits"),
        (dict(GOOD, p_ranks={"3": 1, "03": 1}), "p_ranks key '03' is not in plain decimal digits"),
        ('{"field": {"kind": "cyclotomic", "u": 59, "u": 71}, "h_minus": [], "source": "x"}',
         "duplicate key 'u'"),
        ('{"field": {"kind": "cyclotomic", "u": 59}, "h_minus": [[3, 1]], "h_minus": [],'
         ' "source": "x"}', "duplicate key 'h_minus'"),
    ],
)
def test_parse_diagnostics(obj, message):
    # a str is a raw line, for what json.dumps cannot write: repeated keys
    with pytest.raises(TableFormatError) as info:
        parse_records("\n" + (obj if isinstance(obj, str) else _line(obj)))
    assert str(info.value) == f"line 2: {message}"


def test_parse_refuses_a_leading_byte_order_mark():
    # as json.loads does: the diagnostic names the BOM, on any line
    for text, where in (('\ufeff{"a": 1}\n', "line 1"), ('\n\ufeff' + _line(GOOD), "line 2")):
        with pytest.raises(TableFormatError) as info:
            parse_records(text)
        assert str(info.value) == (
            f"{where}: invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig) at column 1)"
        )


def test_builtin_dataset_shape():
    records = builtin_paper_dataset()
    assert len(records) == 49
    kinds = {}
    for r in records:
        kinds[r.kind] = kinds.get(r.kind, 0) + 1
    assert kinds == {"cyclotomic": 17, "real-cyclotomic": 10, "abelian": 22}
    moduli = [r.modulus for r in records if r.kind == "cyclotomic"]
    assert moduli == [59, 71, 79, 83, 103, 107, 121, 127, 131, 139, 151,
                      163, 167, 179, 191, 199, 572]
    assert all(r.source for r in records)


def test_builtin_dataset_audit_is_clean():
    report = audit_records(builtin_paper_dataset())
    assert report.exit_ok
    counts = report.counts
    assert counts[VIOLATION] == 0
    assert counts[CONSISTENT] == 157
    assert counts[INCONCLUSIVE] == 189
    assert report.pair_count == 135
    assert len(report.entries) == 346


def test_audit_pairs_appear_once_per_applicable_theorem():
    report = audit_records(builtin_paper_dataset())
    seen = {}
    for e in report.entries:
        key = (e.record_index, e.h_kind, e.prime, e.theorem)
        assert key not in seen, key
        seen[key] = e
    # the theorem set per pair is exactly determined by the context degree
    for e in report.entries:
        rec = report.records[e.record_index - 1]
        if rec.kind == "cyclotomic":
            N = euler_phi(rec.modulus)
            if e.h_kind == "h+":
                N //= 2
        elif rec.kind == "real-cyclotomic":
            N = euler_phi(rec.modulus) // 2
        else:
            N = rec.degree
        odd = N
        while odd % 2 == 0:
            odd //= 2
        expected = set()
        if N % 2 == 1 and N > 1:
            expected.add("corollary1")
        elif odd > 1:
            expected.add("theorem1")
        d = 3
        while d * d <= odd:
            if odd % d == 0:
                expected.add(f"theorem2(n={d})")
                while odd % d == 0:
                    odd //= d
            d += 2
        if odd > 1:
            expected.add(f"theorem2(n={odd})")
        got = {
            t for (idx, kind, p, t) in seen
            if (idx, kind, p) == (e.record_index, e.h_kind, e.prime)
        }
        assert got == expected, (e.record_index, e.h_kind, e.prime)


def test_audit_flags_probable_primes_and_reject_policy():
    records = builtin_paper_dataset()
    allow = audit_records(records, probable_primes="allow")
    flagged = {e.prime for e in allow.entries if e.probable_prime}
    assert flagged == {5123189985484229035947419, 14458667392334948286764635121}
    assert all(
        e.verdict.status == CONSISTENT
        for e in allow.entries
        if e.probable_prime and e.theorem == "theorem1"
    )
    reject = audit_records(records, probable_primes="reject")
    assert reject.exit_ok  # INCONCLUSIVE, never VIOLATION
    for e in reject.entries:
        if e.probable_prime:
            assert e.verdict.status == INCONCLUSIVE
            assert "probable prime" in e.verdict.witness["reason"]
    with pytest.raises(ValueError):
        audit_records(records, probable_primes="maybe")


def test_audit_two_part_asserted_from_quadratic_subfield():
    report = audit_records(builtin_paper_dataset())
    e = next(
        e for e in report.entries
        if e.label == "Q(zeta_59)" and e.prime == 3 and e.theorem == "theorem1"
    )
    assert e.verdict.status == CONSISTENT
    assert e.verdict.witness["branch"] == "two-part"
    assert e.verdict.witness["subfield_disc"] == -59
    # u = 107 carries no quadratic data: the same branch stays open
    e = next(
        e for e in report.entries
        if e.label == "Q(zeta_107)" and e.prime == 3 and e.theorem == "theorem1"
    )
    assert e.verdict.status == INCONCLUSIVE


def test_audit_two_part_unmatched_subfield_data_is_not_recorded():
    # subfield_h names Q(sqrt(-7)), which is no subfield of Q(zeta_59): the
    # branch stays open, with no subfield data in its witness
    text = _line(dict(GOOD, h_minus=[[3, 1]], subfield_h=[{"disc": -7, "h": [[3, 1]]}]))
    e = next(e for e in audit_records(parse_records(text)).entries if e.theorem == "theorem1")
    assert e.verdict.status == INCONCLUSIVE and e.verdict.witness["branch"] == "two-part"
    assert e.verdict.witness["reason"] == "p | h(L) for the 2-power-degree subfield is not recorded"
    assert "subfield_disc" not in e.verdict.witness


def test_audit_skips_contexts_of_degree_one():
    # Q(zeta_3)^+ = Q: its stated h+ is audited by no theorem
    text = _line({"field": {"kind": "cyclotomic", "u": 3}, "h_plus": [[3, 1]], "source": "x"})
    report = audit_records(parse_records(text))
    assert report.entries == () and report.exit_ok
    assert "[1] Q(zeta_3): h+ = 3\n    (no primes to audit)\n" in report.to_text()


def test_audit_two_part_conductor_fallback_for_unrealizable_field():
    # degree 10, conductor 9081 = 3^2 * 1009: 10 does not divide phi, so the
    # field cannot be reconstructed; the quadratic match falls back to |disc|
    # = conductor
    report = audit_records(builtin_paper_dataset())
    e = next(
        e for e in report.entries
        if "9081" in e.label and e.prime == 7 and e.theorem == "theorem1"
    )
    assert e.verdict.status == CONSISTENT
    assert "conductor" in e.verdict.witness["matched_by"]
    e = next(
        e for e in report.entries
        if "9081" in e.label and e.theorem == "theorem2(n=5)"
    )
    assert e.verdict.status == INCONCLUSIVE
    assert "not derivable" in e.verdict.witness["reason"]


def test_audit_two_part_takes_no_conductor_fallback_for_a_reconstructed_field():
    # the cyclic degree-10 field of conductor 9011 is reconstructed, and its
    # quadratic subfield is Q(sqrt(-9011)): data about Q(sqrt(9011)), another
    # field, must not decide the two-part branch
    text = _line({
        "field": {"kind": "abelian", "degree": 10, "conductor": 9011},
        "h": [[3, 1]],
        "subfield_h": [{"disc": 9011, "h": []}],
        "source": "x",
    })
    report = audit_records(parse_records(text))
    (e,) = [e for e in report.entries if e.theorem == "theorem1"]
    assert e.verdict.status == INCONCLUSIVE
    assert e.verdict.witness["reason"] == "p | h(L) for the 2-power-degree subfield is not recorded"
    assert "matched_by" not in e.verdict.witness


def test_audit_does_not_reconstruct_field_above_conductor_limit():
    # 100003 is a prime = 1 (mod 6), so the cyclic sextic field exists, but
    # its conductor is above the limit: the descent step is not derived.
    text = _line(
        {"field": {"kind": "abelian", "degree": 6, "conductor": 100003}, "h": [[5, 1]], "source": "x"}
    )
    report = audit_records(parse_records(text))
    (e,) = [e for e in report.entries if e.theorem == "theorem2(n=3)"]
    assert e.verdict.status == INCONCLUSIVE
    assert "not derivable" in e.verdict.witness["reason"]


def test_audit_cyclotomic_h_derives_descent_from_the_field():
    # an h key on a cyclotomic record is audited in its own context, on
    # Q(zeta_59): the descent subfield of degree 2 is Q(sqrt(-59))
    text = _line({"field": {"kind": "cyclotomic", "u": 59}, "h": [[233, 1]], "source": "x"})
    e = next(e for e in audit_records(parse_records(text)).entries if e.theorem == "theorem2(n=29)")
    assert e.h_kind == "h" and e.verdict.status == CONSISTENT
    assert (e.verdict.witness["F_abs_disc"], e.verdict.witness["F_degree"]) == (59, 2)


def test_witness_discriminants_are_ints_and_only_jsonl_writes_hex():
    # 80 of the bundled theorem2 witnesses carry an |disc F| above 2^256:
    # the verdict holds the int, and to_jsonl alone writes it as hex
    report = audit_records(builtin_paper_dataset())
    discs = [e.verdict.witness["F_abs_disc"] for e in report.entries
             if "F_abs_disc" in e.verdict.witness]
    assert len(discs) == 204 and all(type(d) is int for d in discs)
    wide = [d for d in discs if d.bit_length() > 256]
    assert len(wide) == 80
    written = [json.loads(line)["witness"] for line in report.to_jsonl().splitlines()[:-1]]
    written = [w["F_abs_disc"] for w in written if "F_abs_disc" in w]
    assert written == [hex(d) if d.bit_length() > 256 else d for d in discs]


def test_audit_drops_field_whose_stated_disc_contradicts_it():
    # the sextic subfield of Q(zeta_13) has |disc| = 13^5: stated so, the
    # descent subfield Q(sqrt(13)) is derived; stated otherwise, it is not
    def theorem2(abs_disc):
        field = {"kind": "abelian", "degree": 6, "conductor": 13, "abs_disc": abs_disc}
        text = _line({"field": field, "h": [[7, 1]], "source": "x"})
        (e,) = [e for e in audit_records(parse_records(text)).entries
                if e.theorem == "theorem2(n=3)"]
        return e.verdict.witness

    assert theorem2(13**5)["F_abs_disc"] == 13
    assert theorem2(13**5 + 1)["reason"] == "descent subfield not derivable from the record data"


def test_audit_two_part_matched_on_quartic_subfield():
    # the 2-power subfield of Q(zeta_13) is quartic, |disc| = 13^3: 5 has no
    # odd witness at N = 12, and the entry of that |disc| decides the branch
    text = _line(
        {
            "field": {"kind": "cyclotomic", "u": 13},
            "h_minus": [[5, 1]],
            "subfield_h": [{"disc": 2197, "h": [[5, 1]]}],
            "source": "x",
        }
    )
    e = next(e for e in audit_records(parse_records(text)).entries if e.theorem == "theorem1")
    assert e.verdict.status == CONSISTENT and e.verdict.witness["branch"] == "two-part"
    assert e.verdict.witness["matched_by"] == "|disc| = 2197 of the 2-power subfield"


def test_audit_ignores_rank_above_the_context_exponent():
    # p_ranks is per record: rank 2 fits 3^2 | h but not 3 || h-, so the h-
    # context audits 3 with no known rank
    text = _line(
        {
            "field": {"kind": "cyclotomic", "u": 59},
            "h_minus": [[3, 1]],
            "h": [[3, 2]],
            "p_ranks": {"3": 2},
            "source": "x",
        }
    )
    ranks = {(e.h_kind, e.known_rank) for e in audit_records(parse_records(text)).entries}
    assert ranks == {("h-", None), ("h", 2)}


def test_audit_two_part_known_false_violates():
    # a deliberately inconsistent record: 3 | h- of Q(zeta_59) has no odd
    # witness, and the (false) quadratic value 7 refutes the two-part branch
    text = _line(
        {
            "field": {"kind": "cyclotomic", "u": 59},
            "h_minus": [[3, 1]],
            "subfield_h": [{"disc": -59, "h": [[7, 1]]}],
            "source": "synthetic inconsistency",
        }
    )
    report = audit_records(parse_records(text))
    assert not report.exit_ok
    (bad,) = report.violations
    assert bad.theorem == "theorem1" and bad.prime == 3


def test_audit_violation_on_fabricated_cubic():
    # no cyclic cubic field can have h divisible by 5: 5 != 0, 1 (mod 3)
    text = _line(
        {
            "field": {"kind": "abelian", "degree": 3},
            "h": [[5, 1]],
            "p_ranks": {"5": 1},
            "source": "synthetic inconsistency",
        }
    )
    report = audit_records(parse_records(text))
    statuses = {e.theorem: e.verdict.status for e in report.entries}
    assert statuses == {"corollary1": VIOLATION, "theorem2(n=3)": VIOLATION}
    assert not report.exit_ok
    assert "FAIL" in report.to_text()


def test_audit_uses_known_rank():
    # 3-rank 3 is recorded for u = 131: 3^3 = 27 = 1 (mod 13)
    report = audit_records(builtin_paper_dataset())
    e = next(
        e for e in report.entries
        if e.label == "Q(zeta_131)" and e.prime == 3 and e.theorem == "theorem1"
    )
    assert e.known_rank == 3
    assert e.verdict.status == CONSISTENT
    assert e.verdict.witness["n"] == 13 and e.verdict.witness["r"] == 3


def test_audit_explicit_descent_record():
    # explicit descent data lets theorem2 run on a field the library cannot
    # reconstruct: F = Q(sqrt(-9011)), H_F ~ 1728.8 < 1566031
    text = _line(
        {
            "field": {"kind": "abelian", "degree": 10, "conductor": 9011},
            "h": [[1566031, 1]],
            "descents": [{"n": 5, "abs_disc": 9011, "degree": 2}],
            "source": "synthetic descent",
        }
    )
    report = audit_records(parse_records(text))
    e = next(e for e in report.entries if e.theorem == "theorem2(n=5)")
    assert e.verdict.status == CONSISTENT
    assert e.verdict.witness["F_abs_disc"] == 9011


def test_audit_empty_factor_lists_emit_no_entries():
    text = _line(
        {"field": {"kind": "cyclotomic", "u": 20}, "h_minus": [], "source": "x"}
    )
    report = audit_records(parse_records(text))
    assert report.entries == ()
    assert "no primes to audit" in report.to_text()
    assert report.exit_ok


def test_audit_real_cyclotomic_marked_conjectural():
    report = audit_records(builtin_paper_dataset())
    real_entries = [e for e in report.entries if e.label.endswith("^+")]
    assert real_entries and all(e.conjectural for e in real_entries)
    cyc_entries = [e for e in report.entries if e.label == "Q(zeta_59)"]
    assert cyc_entries and not any(e.conjectural for e in cyc_entries)
    assert any("conjectural" in n for n in report.notes)


def test_audit_output_determinism():
    records = builtin_paper_dataset()
    a, b = audit_records(records), audit_records(records)
    assert a.to_text() == b.to_text()
    assert a.to_jsonl() == b.to_jsonl()


def test_audit_jsonl_is_parseable_and_consistent():
    report = audit_records(builtin_paper_dataset())
    lines = report.to_jsonl().splitlines()
    objs = [json.loads(ln) for ln in lines]
    summary = objs[-1]["summary"]
    assert summary["violations"] == 0
    assert summary["records"] == 49
    assert summary["entries"] == len(objs) - 1
    statuses = {o["status"] for o in objs[:-1]}
    assert statuses == {CONSISTENT, INCONCLUSIVE}


def test_record_label_formats():
    rec = ClassNumberRecord(kind="abelian", degree=3, conductor=63, abs_disc=3969, h=())
    assert rec.label() == "abelian N=3 f=63 |D|=3969"
    rec = ClassNumberRecord(kind="real-cyclotomic", modulus=191, h_plus=())
    assert rec.label() == "Q(zeta_191)^+"
