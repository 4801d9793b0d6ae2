"""Class-number record tables and the congruence audit run over them.

Records live in JSONL: one JSON object per non-blank line, schema:

    {"field": {...}, <h keys>, "p_ranks"?, "subfield_h"?, "descents"?,
     "source": "..."}

field is one of
    {"kind": "cyclotomic", "u": int}            full field Q(zeta_u)
    {"kind": "real-cyclotomic", "l": int}       maximal real subfield
    {"kind": "abelian", "degree": int,          any abelian field, described
     "conductor"?: int, "abs_disc"?: int}       by invariants only

Class-number keys hold factor lists [[p, e], ...] with p prime and strictly
increasing; [] means the value 1; an absent key means the value is unknown.
Allowed keys per kind: cyclotomic may carry h_minus/h_plus/h (h_plus refers
to the maximal real subfield), real-cyclotomic carries h_plus, abelian
carries h.  p_ranks maps a prime (as a string key) to its known class-group
p-rank.  subfield_h lists quadratic-subfield class numbers, each entry
{"disc": d, "h": [[p, e], ...]} for an exact value or {"disc": d,
"h_divisors": [p, ...]} for known prime divisors.  descents supplies explicit
descent data [{"n": odd prime, "abs_disc": |disc F|, "degree": [F:Q]}] for
abelian records whose subfields this library cannot derive.  source is a
free-form provenance string.

The audit applies, per (record, class-number kind, prime):

  * odd degree: the gcd corollary (corollary1);
  * even degree: the descent theorem (theorem1), its two-part branch
    resolved against subfield_h data when no odd congruence witness exists;
  * per odd prime n dividing the degree: the bounded descent theorem
    (theorem2), with the descent subfield taken from explicit descents,
    derived from the character group when the field is reconstructible from
    the record, or Q itself when n equals the degree.

Verdicts are CONSISTENT / VIOLATION / INCONCLUSIVE; an INCONCLUSIVE never
fails an audit, a VIOLATION always does.
"""

from __future__ import annotations

import json
from functools import partial
from importlib import resources
from typing import NamedTuple

from .arith import (
    PrimeFactorization,
    TimeLimitExceeded,
    _decimal,
    euler_phi,
    factorize,
    is_prime,
    probable_prime_only,
    within,
)
from .abelian import (
    _MAX_CONDUCTOR,
    AbelianFieldSpec,
    LatticeTooLarge,
    cyclic_subfield_spec,
    cyclotomic_field_spec,
    descent_subfield,
    quadratic_signed_discriminant,
    real_cyclotomic_field_spec,
    two_power_subfield,
)
from .bounds import _MAX_DEGREE
from .congruence import (
    CONSISTENT,
    INCONCLUSIVE,
    VIOLATION,
    RankHypothesis,
    Verdict,
    corollary1_verdict,
    theorem1_audit,
    theorem2_audit,
)

KINDS = ("cyclotomic", "real-cyclotomic", "abelian")
_RECORD_KEYS = ("field", "h_minus", "h_plus", "h", "p_ranks", "subfield_h", "descents", "source")
_H_KEYS = ("h_minus", "h_plus", "h")
_ALLOWED_H = {
    "cyclotomic": ("h_minus", "h_plus", "h"),
    "real-cyclotomic": ("h_plus",),
    "abelian": ("h",),
}
_FIELD_KEYS = {
    "cyclotomic": ("kind", "u"),
    "real-cyclotomic": ("kind", "l"),
    "abelian": ("kind", "degree", "conductor", "abs_disc"),
}
PROBABLE_PRIME_POLICIES = ("allow", "reject")


class TableFormatError(ValueError):
    """Malformed record input; the message carries a line diagnostic."""


Factors = tuple[tuple[int, int], ...]


def format_factors(factors: Factors) -> str:
    if not factors:
        return "1"
    return " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in factors)


class SubfieldClassNumber(NamedTuple):
    """Known class-number data of a quadratic subfield: either the exact
    factored value or a set of known prime divisors."""

    disc: int
    h: Factors | None = None
    h_divisors: tuple[int, ...] | None = None

    def asserts_divisor(self, p: int) -> bool | None:
        """True/False when divisibility of h by p is decided, None if open."""
        if self.h is not None:
            return any(q == p for q, _ in self.h)
        if self.h_divisors is not None and p in self.h_divisors:
            return True
        return None  # divisor lists are partial knowledge


class DescentData(NamedTuple):
    n: int
    abs_disc: int
    degree: int


class ClassNumberRecord(NamedTuple):
    kind: str
    modulus: int | None = None  # u (cyclotomic) or l (real-cyclotomic)
    degree: int | None = None  # abelian only
    conductor: int | None = None
    abs_disc: int | None = None
    h_minus: Factors | None = None
    h_plus: Factors | None = None
    h: Factors | None = None
    p_ranks: tuple[tuple[int, int], ...] = ()
    subfield_h: tuple[SubfieldClassNumber, ...] = ()
    descents: tuple[DescentData, ...] = ()
    source: str = ""

    def label(self) -> str:
        if self.kind == "cyclotomic":
            return f"Q(zeta_{self.modulus})"
        if self.kind == "real-cyclotomic":
            return f"Q(zeta_{self.modulus})^+"
        parts = [f"abelian N={self.degree}"]
        if self.conductor is not None:
            parts.append(f"f={self.conductor}")
        if self.abs_disc is not None:
            parts.append(f"|D|={self.abs_disc}")
        return " ".join(parts)

    def known_rank(self, p: int) -> int | None:
        for q, r in self.p_ranks:
            if q == p:
                return r
        return None


# ints above this size are written as hex strings by to_jsonl, so that
# structured output never trips CPython's decimal conversion limit on an
# enormous discriminant, and are echoed by their length in diagnostics
_INLINE_INT_BITS = 256


def encode_int(v: int) -> int | str:
    return v if v.bit_length() <= _INLINE_INT_BITS else hex(v)


def _fail(where: str, msg: str) -> TableFormatError:
    return TableFormatError(f"{where}: {msg}")


def _show(v: int) -> str:
    """v as a diagnostic echoes it: in full below 2^256, the witness bound,
    and above it by its number of digits only."""
    if v.bit_length() <= _INLINE_INT_BITS:
        return str(v)
    return f"{'-' if v < 0 else ''}<{len(_decimal(abs(v)))}-digit integer>"


# A listed prime above this is refused before is_prime, which cannot be
# stopped: it takes ~0.2 s at 1024 bits and ~2 s at 2203 bits (2-core
# x86-64, CPython 3.11).
_MAX_PRIME = 1 << 1024


def _check_prime_size(p: int, where: str, what: str) -> None:
    if p > _MAX_PRIME:
        raise _fail(
            where, f"{what} of {p.bit_length()} bits exceeds the largest listed prime, 2^1024"
        )


def _factor_briefly(n: int) -> PrimeFactorization:
    """n factored for up to 1 s: on time-out, the unsplit rest is the cofactor."""
    try:
        with within(1.0):
            return factorize(n)
    except TimeLimitExceeded as exc:
        return exc.partial


def _expect_int(v, where: str, what: str, minimum: int = 1) -> int:
    if not isinstance(v, int) or isinstance(v, bool):
        raise _fail(where, f"{what} must be an integer, got {v!r}")
    if v < minimum:
        raise _fail(where, f"{what} must be >= {minimum}, got {_show(v)}")
    return v


def _listed_prime(v, last: int, where: str, key: str) -> int:
    """A prime of a list whose previous prime is last (1 before the first)."""
    p = _expect_int(v, where, f"{key}: prime", 2)
    if p <= last:
        raise _fail(
            where, f"{key}: primes must be strictly increasing, {_show(p)} after {_show(last)}"
        )
    _check_prime_size(p, where, f"{key}: a prime")
    if not is_prime(p):
        # a factorization of p above the bound would echo its wide factors
        shown = _show(p) if p.bit_length() > _INLINE_INT_BITS else f"{p} = {_factor_briefly(p)}"
        raise _fail(where, f"{key}: {shown} is not prime")
    return p


def _parse_factors(v, where: str, key: str) -> Factors:
    if not isinstance(v, list):
        raise _fail(where, f"{key} must be a list of [prime, exponent] pairs")
    out: list[tuple[int, int]] = []
    last = 1
    for item in v:
        if not (isinstance(item, list) and len(item) == 2):
            raise _fail(where, f"{key}: each factor must be a [prime, exponent] pair, got {item!r}")
        last = _listed_prime(item[0], last, where, key)
        out.append((last, _expect_int(item[1], where, f"{key}: exponent", 1)))
    return tuple(out)


def _parse_field(v, where: str) -> dict:
    if not isinstance(v, dict):
        raise _fail(where, "field must be an object")
    kind = v.get("kind")
    if kind not in KINDS:
        raise _fail(where, f"field.kind must be one of {KINDS}, got {kind!r}")
    allowed = _FIELD_KEYS[kind]
    for k in v:
        if k not in allowed:
            raise _fail(where, f"unknown field key {k!r} for kind {kind!r}")
    out: dict = {"kind": kind}
    if kind == "cyclotomic" or kind == "real-cyclotomic":
        mkey = "u" if kind == "cyclotomic" else "l"
        if mkey not in v:
            raise _fail(where, f"field.{mkey} is required for kind {kind!r}")
        m = _expect_int(v[mkey], where, f"field.{mkey}", 3)
        if m > _MAX_CONDUCTOR:
            raise _fail(
                where, f"field.{mkey} = {_show(m)} exceeds the largest modulus, {_MAX_CONDUCTOR}"
            )
        if m % 4 == 2:
            raise _fail(
                where,
                f"field.{mkey} = {m} is not a normalized conductor "
                f"(use {m // 2}: both name the same field)",
            )
        if kind == "real-cyclotomic" and euler_phi(m) < 4:
            raise _fail(where, f"field.l = {m} gives a degenerate real subfield")
        out["modulus"] = m
    else:
        if "degree" not in v:
            raise _fail(where, "field.degree is required for kind 'abelian'")
        n = out["degree"] = _expect_int(v["degree"], where, "field.degree", 2)
        if n > _MAX_DEGREE:
            raise _fail(
                where, f"field.degree = {_show(n)} exceeds the largest degree, {_MAX_DEGREE}"
            )
        if "conductor" in v:
            out["conductor"] = _expect_int(v["conductor"], where, "field.conductor", 3)
        if "abs_disc" in v:
            out["abs_disc"] = _expect_int(v["abs_disc"], where, "field.abs_disc", 1)
    return out


def _parse_subfield_h(v, where: str) -> tuple[SubfieldClassNumber, ...]:
    if not isinstance(v, list):
        raise _fail(where, "subfield_h must be a list of objects")
    out = []
    for item in v:
        if not isinstance(item, dict):
            raise _fail(where, f"subfield_h entries must be objects, got {item!r}")
        keys = set(item)
        if keys == {"disc", "h"}:
            h = _parse_factors(item["h"], where, "subfield_h.h")
            divisors = None
        elif keys == {"disc", "h_divisors"}:
            h = None
            dv = item["h_divisors"]
            if not isinstance(dv, list):
                raise _fail(where, "subfield_h.h_divisors must be a list of primes")
            divisors, last = [], 1
            for p in dv:
                last = _listed_prime(p, last, where, "subfield_h.h_divisors")
                divisors.append(last)
            divisors = tuple(divisors)
        else:
            raise _fail(
                where,
                "each subfield_h entry needs exactly the keys "
                "{disc, h} or {disc, h_divisors}, got " + repr(sorted(keys)),
            )
        disc = item["disc"]
        if not isinstance(disc, int) or isinstance(disc, bool) or abs(disc) < 3:
            raise _fail(where, f"subfield_h.disc must be an integer with |disc| >= 3, got {disc!r}")
        out.append(SubfieldClassNumber(disc, h, divisors))
    return tuple(out)


def _parse_descents(v, where: str, kind: str, degree: int | None) -> tuple[DescentData, ...]:
    if kind != "abelian":
        raise _fail(where, "descents is only accepted on abelian records")
    if not isinstance(v, list):
        raise _fail(where, "descents must be a list of objects")
    out = []
    seen = set()
    for item in v:
        if not isinstance(item, dict) or set(item) != {"n", "abs_disc", "degree"}:
            raise _fail(where, "each descents entry needs exactly the keys {n, abs_disc, degree}")
        n = _expect_int(item["n"], where, "descents.n", 3)
        # an n above the degree, which the degree cap bounds, fails the
        # degree check below without a primality test
        if n % 2 == 0 or (n <= degree and not is_prime(n)):
            raise _fail(where, f"descents.n = {_show(n)} is not an odd prime")
        if n in seen:
            raise _fail(where, f"duplicate descents entry for n = {_show(n)}")
        seen.add(n)
        d = _expect_int(item["abs_disc"], where, "descents.abs_disc", 1)
        g = _expect_int(item["degree"], where, "descents.degree", 1)
        if g * n != degree:
            raise _fail(
                where,
                f"descents entry for n = {_show(n)}: its degree {_show(g)} times n must "
                f"equal the field degree {degree}",
            )
        out.append(DescentData(n, d, g))
    return tuple(out)


def _record_from_obj(obj, where: str) -> ClassNumberRecord:
    if not isinstance(obj, dict):
        raise _fail(where, "each line must be a JSON object")
    for k in obj:
        if k not in _RECORD_KEYS:
            raise _fail(where, f"unknown record key {k!r}")
    if "field" not in obj:
        raise _fail(where, "record lacks the 'field' key")
    if "source" not in obj or not isinstance(obj["source"], str) or not obj["source"].strip():
        raise _fail(where, "record needs a non-empty 'source' string")
    fld = _parse_field(obj["field"], where)
    kind = fld["kind"]

    present_h = [k for k in _H_KEYS if k in obj]
    if not present_h:
        raise _fail(where, "record carries none of h_minus / h_plus / h")
    for k in present_h:
        if k not in _ALLOWED_H[kind]:
            raise _fail(where, f"{k} is not meaningful for kind {kind!r}")
    factors = {k: _parse_factors(obj[k], where, k) for k in present_h}

    p_ranks: tuple[tuple[int, int], ...] = ()
    if "p_ranks" in obj:
        v = obj["p_ranks"]
        if not isinstance(v, dict):
            raise _fail(where, "p_ranks must be an object mapping primes to ranks")
        pairs = []
        for key, r in v.items():
            try:
                p = int(key)
            except ValueError:
                raise _fail(where, f"p_ranks key {key!r} is not an integer") from None
            _check_prime_size(p, where, "p_ranks key")
            if p < 2 or not is_prime(p):
                raise _fail(where, f"p_ranks key {_show(p)} is not prime")
            r = _expect_int(r, where, f"p_ranks[{_show(p)}]", 1)
            caps = [e for fs in factors.values() for q, e in fs if q == p]
            if not caps:
                raise _fail(
                    where, f"p_ranks lists {_show(p)}, which divides none of the stated class numbers"
                )
            if r > max(caps):
                raise _fail(
                    where,
                    f"p_ranks[{_show(p)}] = {_show(r)} exceeds the stated multiplicity {max(caps)}",
                )
            pairs.append((p, r))
        p_ranks = tuple(sorted(pairs))

    subfield_h = _parse_subfield_h(obj["subfield_h"], where) if "subfield_h" in obj else ()
    if len({s.disc for s in subfield_h}) != len(subfield_h):
        raise _fail(where, "subfield_h lists the same discriminant twice")
    descents = (
        _parse_descents(obj["descents"], where, kind, fld.get("degree"))
        if "descents" in obj
        else ()
    )

    return ClassNumberRecord(
        kind=kind,
        modulus=fld.get("modulus"),
        degree=fld.get("degree"),
        conductor=fld.get("conductor"),
        abs_disc=fld.get("abs_disc"),
        h_minus=factors.get("h_minus"),
        h_plus=factors.get("h_plus"),
        h=factors.get("h"),
        p_ranks=p_ranks,
        subfield_h=subfield_h,
        descents=descents,
        source=obj["source"],
    )


def parse_records(text: str) -> tuple[ClassNumberRecord, ...]:
    """Parse JSONL record text; raises TableFormatError with a line number
    on the first malformed record."""
    records = []
    for i, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"line {i}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise _fail(where, f"invalid JSON ({exc.msg} at column {exc.colno})") from None
        except (ValueError, RecursionError) as exc:  # past the digit limit, or nested too deep
            raise _fail(where, f"unreadable JSON ({str(exc).partition(';')[0]})") from None
        records.append(_record_from_obj(obj, where))
    return tuple(records)


def builtin_paper_dataset() -> tuple[ClassNumberRecord, ...]:
    """The bundled transcription of published class-number tables."""
    text = (
        resources.files("cycloclass").joinpath("data/paper_tables.jsonl").read_text("utf-8")
    )
    return parse_records(text)


# --- audit -----------------------------------------------------------------


class AuditEntry(NamedTuple):
    record_index: int  # 1-based position in the input
    label: str
    h_kind: str  # "h-", "h+", "h"
    prime: int
    exponent: int
    known_rank: int | None
    theorem: str  # "corollary1", "theorem1", "theorem2(n=..)"
    verdict: Verdict
    conjectural: bool = False
    probable_prime: bool = False

    def summary_line(self) -> str:
        w = self.verdict.witness
        if "congruence" in w:
            detail = f"n={w['n']} r={w['r']}: {w['congruence']}"
        elif w.get("branch") == "two-part":
            detail = w.get("note") or w.get("reason", "")
        else:
            detail = w.get("reason", "")
        if "H_F" in w:
            detail += f" [H_F = {w['H_F']}]"
        flags = ""
        if self.probable_prime:
            flags += " (probable prime)"
        if self.known_rank is not None:
            flags += f" (rank {self.known_rank} known)"
        return (
            f"p={self.prime}{flags}  {self.theorem:<14} "
            f"{self.verdict.status:<12} {detail}".rstrip()
        )


class _Context(NamedTuple):
    h_kind: str
    factors: Factors
    N: int
    K: AbelianFieldSpec | None


def _record_contexts(rec: ClassNumberRecord) -> list[_Context]:
    out = []
    u = rec.modulus
    if rec.kind == "cyclotomic":
        N = euler_phi(u)
        if rec.h_minus is not None:
            out.append(_Context("h-", rec.h_minus, N, cyclotomic_field_spec(u)))
        if rec.h is not None:
            out.append(_Context("h", rec.h, N, cyclotomic_field_spec(u)))
        if rec.h_plus is not None:
            out.append(_Context("h+", rec.h_plus, N // 2, real_cyclotomic_field_spec(u)))
    elif rec.kind == "real-cyclotomic":
        out.append(_Context("h+", rec.h_plus, euler_phi(u) // 2, real_cyclotomic_field_spec(u)))
    else:
        K = None
        f, N = rec.conductor, rec.degree
        if f is not None and f <= _MAX_CONDUCTOR and is_prime(f) and (f - 1) % N == 0:
            K = cyclic_subfield_spec(f, N)
            if rec.abs_disc is not None and K.abs_discriminant != rec.abs_disc:
                K = None  # the stated invariants contradict the reconstruction
        out.append(_Context("h", rec.h, N, K))
    return out


def _resolve_two_part(rec: ClassNumberRecord, ctx: _Context, p: int) -> tuple[bool | None, dict]:
    """Whether p divides h(L) for the 2-power-degree subfield L by the
    record's subfield_h data, None when the data do not decide it, and the
    witness extras."""
    if not rec.subfield_h:
        return None, {}
    entry = matched_by = None
    if ctx.K is not None:
        L = two_power_subfield(ctx.K)
        if L.degree == 2:
            signed = quadratic_signed_discriminant(L)
            entry = next((s for s in rec.subfield_h if s.disc == signed), None)
            matched_by = f"disc {signed} of the quadratic subfield"
        else:
            entry = next(
                (s for s in rec.subfield_h if abs(s.disc) == L.abs_discriminant), None
            )
            matched_by = f"|disc| = {L.abs_discriminant} of the 2-power subfield"
    if entry is None and rec.conductor is not None:
        entry = next((s for s in rec.subfield_h if abs(s.disc) == rec.conductor), None)
        matched_by = f"|disc| = conductor {rec.conductor} (field not reconstructible)"
    if entry is None:
        return None, {}
    extras = {"subfield_disc": entry.disc, "matched_by": matched_by}
    decided = entry.asserts_divisor(p)
    if decided is None:
        return None, extras | {"note": "divisor list does not decide p"}
    if entry.h is not None:
        extras["subfield_h"] = format_factors(entry.h)
    return decided, extras


def _theorem1_verdict(rec: ClassNumberRecord, ctx: _Context, hyp: RankHypothesis) -> Verdict:
    p_divides_hL, extras = _resolve_two_part(rec, ctx, hyp.p)
    v = theorem1_audit(ctx.N, hyp, p_divides_hL)
    if extras and v.witness.get("branch") == "two-part":
        return Verdict(v.status, v.witness | extras)
    return v


def _theorem2_verdict(rec: ClassNumberRecord, ctx: _Context, hyp: RankHypothesis, n: int) -> Verdict:
    if ctx.N == n:
        return theorem2_audit(hyp, n, F_abs_disc=1, F_degree=1)
    explicit = next((d for d in rec.descents if d.n == n), None)
    if explicit is not None:
        return theorem2_audit(hyp, n, F_abs_disc=explicit.abs_disc, F_degree=explicit.degree)
    reason = "descent subfield not derivable from the record data"
    if ctx.K is not None:
        try:
            F = descent_subfield(ctx.K, n)
        except LatticeTooLarge as exc:
            reason = f"descent subfield not searched: {exc}"
        else:
            return theorem2_audit(hyp, n, F_abs_disc=F.abs_discriminant, F_degree=F.degree)
    return Verdict(INCONCLUSIVE, {"theorem": "theorem2", "p": hyp.p, "n": n, "reason": reason})


class AuditReport(NamedTuple):
    records: tuple[ClassNumberRecord, ...]
    entries: tuple[AuditEntry, ...]
    probable_prime_policy: str
    notes: tuple[str, ...]

    @property
    def counts(self) -> dict[str, int]:
        out = {CONSISTENT: 0, INCONCLUSIVE: 0, VIOLATION: 0}
        for e in self.entries:
            out[e.verdict.status] += 1
        return out

    @property
    def violations(self) -> tuple[AuditEntry, ...]:
        return tuple(e for e in self.entries if e.verdict.status == VIOLATION)

    @property
    def pair_count(self) -> int:
        return len({(e.record_index, e.h_kind, e.prime) for e in self.entries})

    @property
    def exit_ok(self) -> bool:
        return not self.violations

    def to_text(self) -> str:
        lines = ["class-number congruence audit"]
        lines.append(
            f"records: {len(self.records)}   (record, prime) pairs: {self.pair_count}"
            f"   theorem applications: {len(self.entries)}"
        )
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append("")
        by_record: dict[int, list[AuditEntry]] = {}
        for e in self.entries:
            by_record.setdefault(e.record_index, []).append(e)
        for idx, rec in enumerate(self.records, start=1):
            parts = []
            for key, name in (("h_minus", "h-"), ("h", "h"), ("h_plus", "h+")):
                v = getattr(rec, key)
                if v is not None:
                    parts.append(f"{name} = {format_factors(v)}")
            head = f"[{idx}] {rec.label()}: " + "; ".join(parts)
            if any(e.conjectural for e in by_record.get(idx, ())):
                head += "   (conjectural)"
            lines.append(head)
            for e in by_record.get(idx, ()):
                lines.append("    " + e.summary_line())
            if idx not in by_record:
                lines.append("    (no primes to audit)")
        c = self.counts
        lines.append("")
        lines.append(
            f"verdicts: {c[CONSISTENT]} CONSISTENT, {c[INCONCLUSIVE]} INCONCLUSIVE, "
            f"{c[VIOLATION]} VIOLATION"
        )
        lines.append("audit outcome: " + ("PASS (no violations)" if self.exit_ok else "FAIL"))
        return "\n".join(lines) + "\n"

    def to_jsonl(self) -> str:
        out = []
        for e in self.entries:
            witness = {
                k: encode_int(v) if isinstance(v, int) and not isinstance(v, bool) else v
                for k, v in e.verdict.witness.items()
            }
            out.append(
                json.dumps(
                    {
                        "record": e.record_index,
                        "label": e.label,
                        "h_kind": e.h_kind,
                        "prime": encode_int(e.prime),
                        "exponent": e.exponent,
                        "known_rank": e.known_rank,
                        "theorem": e.theorem,
                        "status": e.verdict.status,
                        "witness": witness,
                        "conjectural": e.conjectural,
                        "probable_prime": e.probable_prime,
                    },
                    sort_keys=True,
                )
            )
        c = self.counts
        out.append(
            json.dumps(
                {
                    "summary": {
                        "records": len(self.records),
                        "pairs": self.pair_count,
                        "entries": len(self.entries),
                        "consistent": c[CONSISTENT],
                        "inconclusive": c[INCONCLUSIVE],
                        "violations": c[VIOLATION],
                        "probable_prime_policy": self.probable_prime_policy,
                        "notes": list(self.notes),
                    }
                },
                sort_keys=True,
            )
        )
        return "\n".join(out) + "\n"


def audit_records(records, probable_primes: str = "allow") -> AuditReport:
    """Run every applicable congruence theorem over the records."""
    if probable_primes not in PROBABLE_PRIME_POLICIES:
        raise ValueError(f"probable_primes must be one of {PROBABLE_PRIME_POLICIES}")
    records = tuple(records)
    entries: list[AuditEntry] = []
    any_conjectural = False
    any_probable = False
    for idx, rec in enumerate(records, start=1):
        label = rec.label()
        conjectural = rec.kind == "real-cyclotomic"
        for ctx in _record_contexts(rec):
            if ctx.N < 2:
                continue
            odd_part = ctx.N // (ctx.N & -ctx.N)
            odd_primes = factorize(odd_part).primes()
            for p, e in ctx.factors:
                rank = rec.known_rank(p)
                if rank is not None and rank > e:
                    rank = None  # the stated rank belongs to another h-context
                hyp = RankHypothesis(p, e, rank)
                flagged = probable_prime_only(p)
                any_probable = any_probable or flagged
                any_conjectural = any_conjectural or conjectural
                planned = []  # (theorem, verdict thunk)
                if ctx.N % 2 == 1:
                    planned.append(("corollary1", partial(corollary1_verdict, ctx.N, hyp)))
                elif odd_part > 1:
                    planned.append(("theorem1", partial(_theorem1_verdict, rec, ctx, hyp)))
                planned += [
                    (f"theorem2(n={n})", partial(_theorem2_verdict, rec, ctx, hyp, n))
                    for n in odd_primes
                ]
                for theorem, verdict in planned:
                    if flagged and probable_primes == "reject":
                        reason = "probable prime rejected by policy (primality not proven)"
                        v = Verdict(INCONCLUSIVE, {"theorem": theorem, "p": p, "reason": reason})
                    else:
                        v = verdict()
                    entries.append(
                        AuditEntry(
                            idx, label, ctx.h_kind, p, e, rank, theorem, v,
                            conjectural, flagged,
                        )
                    )
    notes = ["logarithms in the class-number bound are natural (base e)"]
    if any_probable:
        if probable_primes == "allow":
            notes.append(
                "some factors exceed the deterministic primality range and are "
                "probable primes; policy 'allow' audits them as primes"
            )
        else:
            notes.append(
                "some factors exceed the deterministic primality range; policy "
                "'reject' marks their verdicts INCONCLUSIVE"
            )
    if any_conjectural:
        notes.append("real-cyclotomic class numbers are conjectural table values")
    return AuditReport(records, tuple(entries), probable_primes, tuple(notes))
