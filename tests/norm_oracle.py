"""Reference routes to B_{1,chi} and orbit norms: the independent code that
b1_chi and the transform route in cycloclass.classnum.orbit_norm are tested
against.

cyclotomic_polynomial gives the dense coefficients of Phi_d, which the package
itself never builds. CyclotomicNumber is exact arithmetic in Q(zeta_d) on the
power basis, with x^k mod Phi_d taken from the rows of _power_rows; oracle_b1
sums roots of unity in it, reading chi(a) from char_value, a discrete-log table of (Z/u)^* built
here rather than from the cached unit walk _UnitData.units;
odometer_values steps through the generators one unit at a time, the order
that walk must keep. per_unit_b1_chi is b1_chi summed one unit of that walk
at a time, where b1_chi sums residue classes of it by slices.
oracle_orbit_norm computes Res(Phi_d, A) by the Euclidean remainder sequence
over F_p for descending 62-bit primes p, CRT-combined past a Hadamard bound. _sylvester_resultant is the Sylvester determinant, and
_orbit_norm_conjugates the explicit product of Galois conjugates.
_norm_mod is prod A(omega^k) mod q over the units k mod d by one Bluestein
chirp-z convolution, independent of the Gauss periods of the package's last
descent step.
maillet_hminus is h^-(p) for prime p from the classical half-matrix
determinant, independent of b1_chi; _bareiss_det evaluates both determinants.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

from cycloclass.abelian import CharacterOrbit, DirichletCharacter, _unit_data
from cycloclass.arith import euler_phi, factorize, is_prime
from cycloclass.classnum import _poly_rem


@lru_cache(maxsize=None)
def cyclotomic_polynomial(d: int) -> tuple[int, ...]:
    """Coefficients of Phi_d, ascending. For d > 1, Phi_d = prod_{e|d}
    (1 - x^e)^mu(d/e) as power series cut after degree phi(d): one sparse
    multiplication or division by a binomial per squarefree d/e."""
    if d < 1:
        raise ValueError(f"cyclotomic_polynomial expects d >= 1, got {d}")
    if d == 1:
        return (-1, 1)
    poly = [1] + [0] * euler_phi(d)
    primes = factorize(d).primes()
    for k in range(len(primes) + 1):
        for sub in itertools.combinations(primes, k):
            e = d // math.prod(sub)
            if k % 2 == 0:  # times 1 - x^e
                for i in range(len(poly) - 1, e - 1, -1):
                    poly[i] -= poly[i - e]
            else:  # divided by 1 - x^e: times 1 + x^e + x^2e + ...
                for i in range(e, len(poly)):
                    poly[i] += poly[i - e]
    return tuple(poly)


@lru_cache(maxsize=None)
def dlog_table(u: int) -> dict[int, tuple[int, ...]]:
    """Every unit r mod u with the exponents t of r = prod g_i^t_i against
    the generators of _unit_data(u), from products of their power lists."""
    table: dict[tuple[int, ...], int] = {(): 1}
    for g, o in _unit_data(u).generators:
        powers = [pow(g, t, u) for t in range(o)]
        table = {tup + (t,): r * powers[t] % u for tup, r in table.items() for t in range(o)}
    return {r: tup for tup, r in table.items()}


def char_value(chi: DirichletCharacter, a: int) -> int | None:
    """Exponent k in [0, d) with chi(a) = e(k/d), d the order of chi, or None
    when gcd(a, u) > 1: chi(prod g_i^t_i) = e(sum e_i t_i / o_i)."""
    u, d = chi.modulus, chi.order
    ts = dlog_table(u).get(a % u)
    if ts is None:
        return None
    orders = _unit_data(u).orders
    return sum(e * d // o * t for e, t, o in zip(chi.exponents, ts, orders)) % d


def odometer_values(chi: DirichletCharacter):
    """Yield (r, k) for every unit r mod u, with chi(r) = e(k/d): r = prod
    g_i^t_i steps like an odometer over the t_i (last digit fastest), and
    k = sum t_i e_i d/o_i mod d."""
    u, d = chi.modulus, chi.order
    data = _unit_data(u)
    steps = [(g, o, e * d // o) for (g, o), e in zip(data.generators, chi.exponents)]
    r, k, digits = 1, 0, [0] * len(steps)
    for _ in range(math.prod(data.orders)):
        yield r, k
        # g_i^o_i = 1 and o_i w_i = 0 mod d, so a digit wraps with no reset
        for i in reversed(range(len(steps))):
            g, o, w = steps[i]
            r, k = r * g % u, (k + w) % d
            digits[i] = (digits[i] + 1) % o
            if digits[i]:
                break


def char_power(chi: DirichletCharacter, k: int) -> DirichletCharacter:
    """chi^k, by definition: every exponent times k."""
    return DirichletCharacter(chi.modulus, tuple(k * e for e in chi.exponents))


@lru_cache(maxsize=None)
def _power_rows(d: int) -> tuple[tuple[int, ...], ...]:
    """x^k reduced mod Phi_d for 0 <= k < max(d, 2*phi(d) - 1), as integer rows."""
    phi = euler_phi(d)
    Phi = cyclotomic_polynomial(d)
    neg_low = tuple(-c for c in Phi[:phi])
    rows = [tuple(1 if i == k else 0 for i in range(phi)) for k in range(phi)]
    for _ in range(phi, max(d, 2 * phi - 1)):
        prev = rows[-1]
        c = prev[-1]
        shifted = (0,) + prev[:-1]
        rows.append(tuple(s + c * n for s, n in zip(shifted, neg_low)))
    return tuple(rows)


@dataclass(frozen=True)
class CyclotomicNumber:
    """Element of Q(zeta_d) on the power basis 1, zeta, ..., zeta^(phi(d)-1)."""

    order: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) != euler_phi(self.order):
            raise ValueError(
                f"need {euler_phi(self.order)} coefficients for order {self.order}"
            )

    @classmethod
    def zero(cls, d: int) -> CyclotomicNumber:
        return cls(d, (Fraction(0),) * euler_phi(d))

    @classmethod
    def one(cls, d: int) -> CyclotomicNumber:
        return cls.from_rational(d, Fraction(1))

    @classmethod
    def from_rational(cls, d: int, q) -> CyclotomicNumber:
        coeffs = [Fraction(0)] * euler_phi(d)
        coeffs[0] = Fraction(q)
        return cls(d, tuple(coeffs))

    @classmethod
    def root_of_unity(cls, d: int, k: int) -> CyclotomicNumber:
        row = _power_rows(d)[k % d]
        return cls(d, tuple(Fraction(c) for c in row))

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def constant(self) -> Fraction:
        """The value as a rational; raises if any higher coefficient is nonzero."""
        if any(self.coeffs[1:]):
            raise ValueError(f"not rational: {self}")
        return self.coeffs[0]

    def __add__(self, other: CyclotomicNumber) -> CyclotomicNumber:
        self._check(other)
        return CyclotomicNumber(
            self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: CyclotomicNumber) -> CyclotomicNumber:
        self._check(other)
        return CyclotomicNumber(
            self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> CyclotomicNumber:
        return CyclotomicNumber(self.order, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber(self.order, tuple(c * other for c in self.coeffs))
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        self._check(other)
        phi = len(self.coeffs)
        conv = [Fraction(0)] * (2 * phi - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        conv[i + j] += a * b
        rows = _power_rows(self.order)
        out = [Fraction(0)] * phi
        for k, c in enumerate(conv):
            if c:
                for i, r in enumerate(rows[k]):
                    if r:
                        out[i] += c * r
        return CyclotomicNumber(self.order, tuple(out))

    __rmul__ = __mul__

    def galois_map(self, k: int) -> CyclotomicNumber:
        """sigma_k: zeta -> zeta^k, for gcd(k, d) = 1."""
        d = self.order
        if math.gcd(k, d) != 1:
            raise ValueError(f"sigma_{k} is not an automorphism for order {d}")
        rows = _power_rows(d)
        phi = len(self.coeffs)
        out = [Fraction(0)] * phi
        for j, c in enumerate(self.coeffs):
            if c:
                for i, r in enumerate(rows[(j * k) % d]):
                    if r:
                        out[i] += c * r
        return CyclotomicNumber(d, tuple(out))

    def _check(self, other: CyclotomicNumber) -> None:
        if self.order != other.order:
            raise ValueError("mixed cyclotomic orders")

    def __str__(self) -> str:
        return f"({' , '.join(str(c) for c in self.coeffs)}) in Q(zeta_{self.order})"


def oracle_b1(chi: DirichletCharacter) -> CyclotomicNumber:
    """B_{1,chi} = (1/f) sum_{a=1}^{f} chi*(a) a as a sum of roots of unity
    zeta^k in Q(zeta_d), chi* the primitive character of conductor f."""
    d, f, u = chi.order, chi.conductor, chi.modulus
    weight = [0] * d  # weight[k] = sum of the a with chi*(a) = zeta^k
    for a in range(1, f + 1):
        if math.gcd(a, f) != 1:
            continue
        # Lift a to a unit mod u congruent to a mod f; chi*(a) = chi(lift).
        b = a
        while math.gcd(b, u) != 1:
            b += f
        weight[char_value(chi, b)] += a
    total = CyclotomicNumber.zero(d)
    for k, w in enumerate(weight):
        if w:
            total = total + CyclotomicNumber.root_of_unity(d, k) * w
    return total * Fraction(1, f)



def per_unit_b1_chi(chi: DirichletCharacter) -> tuple[tuple[int, ...], int]:
    """b1_chi one unit at a time: (c, f) with B_{1,chi} = (1/f) sum c_i zeta^i,
    from every (r, k) of odometer_values(chi) adding r mod f to the
    coefficient of zeta^k, then folded by x^(d/2) + 1 and reduced by Phi_d as
    b1_chi does."""
    d, f, u = chi.order, chi.conductor, chi.modulus
    acc = [0] * d
    for r, k in odometer_values(chi):
        acc[k] += r % f
    if d % 2 == 0:
        acc = [a - b for a, b in zip(acc[: d // 2], acc[d // 2:])]
    c = _poly_rem(acc, d)
    m = euler_phi(u) // euler_phi(f)
    return tuple(x // m for x in c), f


_PRIME_POOL: list[int] = []


def _crt_primes():
    """Yield fixed 62-bit primes, descending from 2^62; pool grows lazily."""
    i = 0
    candidate = (1 << 62) - 1 if not _PRIME_POOL else _PRIME_POOL[-1] - 2
    while True:
        while i >= len(_PRIME_POOL):
            if is_prime(candidate):
                _PRIME_POOL.append(candidate)
            candidate -= 2
        yield _PRIME_POOL[i]
        i += 1


def _poly_mod_p(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a by b over F_p (b trimmed, lc(b) nonzero), ascending."""
    a = a[:]
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    while len(a) - 1 >= db:
        if a[-1] == 0:
            a.pop()
            continue
        c = a[-1] * inv % p
        off = len(a) - 1 - db
        for j in range(db + 1):
            a[off + j] = (a[off + j] - c * b[j]) % p
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def _resultant_mod(f: list[int], g: list[int], p: int) -> int:
    """Res(f, g) over F_p by the Euclidean remainder sequence."""
    f = [c % p for c in f]
    g = [c % p for c in g]
    while f and f[-1] == 0:
        f.pop()
    while g and g[-1] == 0:
        g.pop()
    res = 1
    while True:
        df, dg = len(f) - 1, len(g) - 1
        if dg < 0:
            return 0 if df > 0 else res
        if dg == 0:
            return res * pow(g[0], df, p) % p
        r = _poly_mod_p(f, g, p)
        dr = len(r) - 1
        res = res * pow(g[-1], df - dr, p) % p
        if (df * dg) % 2 == 1:
            res = (p - res) % p
        f, g = g, r


def _resultant_int(f: tuple[int, ...], g: tuple[int, ...]) -> int:
    """Res(f, g) over Z: modular images CRT-combined past a Hadamard-type bound."""
    f = list(f)
    g = list(g)
    while f and f[-1] == 0:
        f.pop()
    while g and g[-1] == 0:
        g.pop()
    if not f or not g:
        return 0 if (len(f) > 1 or len(g) > 1) else 1
    df, dg = len(f) - 1, len(g) - 1
    if df == 0:
        return f[0] ** dg
    if dg == 0:
        return g[0] ** df
    # |Res| <= ||f||_2^dg * ||g||_2^df  (Hadamard on the Sylvester matrix).
    bits = (
        dg * (sum(c * c for c in f).bit_length() + 1)
        + df * (sum(c * c for c in g).bit_length() + 1)
    ) // 2 + 3
    x, mod = 0, 1
    for p in _crt_primes():
        if f[-1] % p == 0 or g[-1] % p == 0:
            continue  # degree would drop mod p
        r = _resultant_mod(f, g, p)
        # CRT: combine (x mod mod) with (r mod p).
        t = (r - x) * pow(mod, -1, p) % p
        x += mod * t
        mod *= p
        if mod.bit_length() > bits + 1:
            break
    return x - mod if 2 * x > mod else x


def _sylvester_matrix(f: list[int], g: list[int]) -> list[list[int]]:
    df, dg = len(f) - 1, len(g) - 1
    n = df + dg
    rows = []
    for i in range(dg):
        row = [0] * n
        for j, c in enumerate(reversed(f)):
            row[i + j] = c
        rows.append(row)
    for i in range(df):
        row = [0] * n
        for j, c in enumerate(reversed(g)):
            row[i + j] = c
        rows.append(row)
    return rows


def _sylvester_resultant(f, g) -> int:
    """Reference resultant: determinant of the Sylvester matrix (slow, exact)."""
    return _bareiss_det(_sylvester_matrix(list(f), list(g)))


def _norm_mod(A: tuple[int, ...], d: int, q: int, omega: int) -> int:
    """prod A(omega^k) mod q over the units k mod d, for even d, len(A) <= d/2
    and omega of exact order d.

    The units are the odd k = 2j + 1, and A(omega^(2j+1)) is a length-d/2 DFT
    of a_i omega^i. Bluestein's 2ij = i^2 + j^2 - (j-i)^2 makes it
    omega^(j^2) sum_i (a_i omega^(i+i^2)) omega^(-(j-i)^2): one convolution
    with a chirp, done as a single big-integer product of W-byte slots
    (Kronecker substitution). A slot holds at most len(A) products below q^2.
    """
    L, n = len(A), d // 2
    pw = [1] * d
    for k in range(1, d):
        pw[k] = pw[k - 1] * omega % q
    W = (2 * q.bit_length() + L.bit_length() + 7) // 8
    a = b"".join(
        (c * pw[(i + i * i) % d] % q).to_bytes(W, "little") for i, c in enumerate(A)
    )
    chirp = b"".join(pw[-m * m % d].to_bytes(W, "little") for m in range(1 - L, n))
    conv = int.from_bytes(a, "little") * int.from_bytes(chirp, "little")
    conv = conv.to_bytes(len(a) + len(chirp), "little")
    acc, e = 1, 0
    for j in range(n):
        if math.gcd(2 * j + 1, d) == 1:
            t = (j + L - 1) * W
            acc = acc * int.from_bytes(conv[t:t + W], "little") % q
            e += j * j
    return acc * pow(omega, e, q) % q


def oracle_orbit_norm(orbit: CharacterOrbit) -> Fraction:
    """Norm from Q(zeta_d) to Q of -B_{1,chi}/2 for one Galois orbit of odd chi,
    as the Euclidean resultant Res(Phi_d, A) by CRT over 62-bit primes."""
    if not orbit.is_odd:
        raise ValueError("orbit norm is defined here for odd-character orbits only")
    chi = orbit.members[0]
    d = chi.order
    if euler_phi(d) != orbit.size:
        raise AssertionError("orbit size must be phi(order)")
    w = oracle_b1(chi) * Fraction(-1, 2)
    if d == 2:
        return w.coeffs[0]
    denom = reduce(math.lcm, (c.denominator for c in w.coeffs), 1)
    A = tuple(int(c * denom) for c in w.coeffs)
    res = _resultant_int(cyclotomic_polynomial(d), A)
    return Fraction(res, denom ** euler_phi(d))


def _orbit_norm_conjugates(orbit: CharacterOrbit) -> Fraction:
    """Same norm as the explicit product of Galois conjugates (test route)."""
    chi = orbit.members[0]
    d = chi.order
    w = oracle_b1(chi) * Fraction(-1, 2)
    prod = CyclotomicNumber.one(d)
    for k in range(1, d + 1):
        if math.gcd(k, d) == 1:
            prod = prod * w.galois_map(k)
    return prod.constant()


def _bareiss_det(rows: list[list[int]]) -> int:
    """Fraction-free Gaussian elimination; exact integer determinant."""
    n = len(rows)
    if n == 0:
        return 1
    M = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[-1][-1]


def maillet_hminus(p: int) -> int:
    """h^-(p) from the half-size least-residue determinant:
    |det R(r s^*)|_{r,s <= (p-1)/2} = p^((p-3)/2) h^-(p). Independent of b1_chi."""
    if p < 5 or not is_prime(p):
        raise ValueError(f"expected a prime p >= 5, got {p}")
    half = (p - 1) // 2
    inv = [0] * (half + 1)
    for s in range(1, half + 1):
        inv[s] = pow(s, -1, p)
    rows = [[(r * inv[s]) % p for s in range(1, half + 1)] for r in range(1, half + 1)]
    det = _bareiss_det(rows)
    if det == 0:
        raise AssertionError("half-matrix determinant vanished")
    h, rem = divmod(abs(det), p ** ((p - 3) // 2))
    if rem:
        raise AssertionError("determinant not divisible by p^((p-3)/2)")
    return h
