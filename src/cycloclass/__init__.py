"""Exact class-number arithmetic for abelian fields: relative class numbers of
cyclotomic fields, certified class-number bounds, and congruence audits of
published class-number tables."""

from __future__ import annotations

from .arith import (
    PrimeFactorization,
    euler_phi,
    factorize,
    is_prime,
    multiplicative_order,
    probable_prime_only,
    within,
)
from .abelian import (
    AbelianFieldSpec,
    DirichletCharacter,
    characters,
    cyclic_subfield_spec,
    cyclotomic_field_spec,
    descent_subfield,
    galois_orbits,
    normalize_conductor,
    real_cyclotomic_field_spec,
    subfields,
)
from .classnum import (
    IntegralityError,
    OrbitNorm,
    RelativeClassNumber,
    TimeLimitExceeded,
    b1_chi,
    orbit_norm,
    relative_class_number,
)
from .bounds import BoundResult, class_number_bound
from .congruence import (
    CONSISTENT,
    INCONCLUSIVE,
    VIOLATION,
    RankHypothesis,
    Verdict,
    corollary1_verdict,
    feasible_ranks,
    theorem1_audit,
    theorem2_audit,
)
from .tables import (
    AuditEntry,
    AuditReport,
    ClassNumberRecord,
    TableFormatError,
    audit_records,
    builtin_paper_dataset,
    parse_records,
)

__all__ = [
    "AbelianFieldSpec",
    "AuditEntry",
    "AuditReport",
    "BoundResult",
    "CONSISTENT",
    "ClassNumberRecord",
    "DirichletCharacter",
    "INCONCLUSIVE",
    "IntegralityError",
    "OrbitNorm",
    "PrimeFactorization",
    "RankHypothesis",
    "RelativeClassNumber",
    "TableFormatError",
    "TimeLimitExceeded",
    "VIOLATION",
    "Verdict",
    "audit_records",
    "b1_chi",
    "builtin_paper_dataset",
    "characters",
    "class_number_bound",
    "corollary1_verdict",
    "cyclic_subfield_spec",
    "cyclotomic_field_spec",
    "descent_subfield",
    "euler_phi",
    "factorize",
    "feasible_ranks",
    "galois_orbits",
    "is_prime",
    "multiplicative_order",
    "normalize_conductor",
    "orbit_norm",
    "parse_records",
    "probable_prime_only",
    "real_cyclotomic_field_spec",
    "relative_class_number",
    "subfields",
    "theorem1_audit",
    "theorem2_audit",
    "within",
]
