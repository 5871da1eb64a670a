"""Exact Verlinde-type dimensions from csc power sums.

The genus-g dimension formula

    dim(g, k) = ((k+2)/2)^{g-1} * sum_{j=1}^{k+1} sin(pi j / (k+2))^{2-2g}

and its twisted, alternating-sign analogue

    dim'(g, p) = (p/4)^{g-1} * sum_{j=1}^{p/2-1} (-1)^{j+1} sin(2 pi j / p)^{2-2g}

are real trigonometric sums with integer values.  This module evaluates
them exactly through the power sums p_m(n) = sum_{j=1}^{n-1} csc^{2m}(pi j / n)
(Zagier, "Elementary aspects of the Verlinde formula", 1996).  The terms
pair up, j with n - j, over the d = (n - 1) // 2 roots s_j = sin^2(pi j / n)
of the polynomial prod_{j<=d} (1 - s / s_j); an even n adds the middle term
j = n/2, whose csc is 1.  A Newton recurrence on that polynomial's
coefficients gives p_1(n), ..., p_m(n) in one pass of O(m min(m, n/2))
products.  It runs in integers only, on one scale mu = n at every n: the
coefficients F_r = n^r f_r have a closed form in binomials, and the sums
P_i = n^i p_i(n) need no division.  One table per n holds them, grows on
demand and is shared by every genus; the twisted sum reads the tables at
n = p/2 and p/4.  The only exactness check is the final division by 2^m.
The same numbers are the fusion-ring traces tr H^{g-1} and tr N_k H^{g-1};
the tests keep that trace, the rational hypergeometric recurrence and its
integer form on the scale 2n at even n as oracles.

Every value is certified against the trigonometric sums by its residue
modulo M = Phi_n(2^t) / gcd(Phi_n(2^t), n), t = ceil(Q / phi(n)), which
is the sum once M exceeds twice Jordan's bound (n - 1)(n/2)^{3m}
(``_certified_sum`` has the proof); Q doubles from ``precision_bits``
until it does.  There is no real arithmetic, no rounding, no prime search
and no CRT.  One table per (n, Q), shared by every genus and both oracles,
holds M and the inverses of the n/2 folded terms; the twisted sum at odd
n is exactly 0 and needs none.  Bounded ``lru_cache``s keep 64 tables (by
sys.getsizeof, 1.4 KB at n = 50, Q = 128, and 2.2 MB at n = 1000,
Q = 32768) and 256 moduli.  The package needs nothing beyond the standard
library; the tests keep the mpmath interval sums (folded, and unfolded
with a sine for every j < n), the rational recurrence and the fusion trace
as the oracle's own oracles.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import mul

from ._value import Value

DEFAULT_PRECISION_BITS = 128


class CertificationError(ArithmeticError):
    """The modular oracle could not certify a unique integer value."""


# ---------------------------------------------------------------------------
# exact dimension values


def _root_coefficient(n: int, r: int) -> int:
    """F_r = n^r f_r, r >= 1, where f_r is the s^r coefficient of
    prod_{j=1}^{d} (1 - s / s_j), s_j = sin^2(pi j / n), d = (n - 1) // 2,
    and 0 past d.  The product is sin nz / (n sin z) at odd n and
    sin nz / (n sin z cos z) at even n, in s = sin^2 z, and n f_r =
    (-4)^r (C(ceil(n/2) + r, 2r + 1) + C(floor(n/2) + r, 2r + 1)), an integer.
    """
    binomials = math.comb((n + 1) // 2 + r, 2 * r + 1) + math.comb(n // 2 + r, 2 * r + 1)
    return n ** (r - 1) * (-4) ** r * binomials


def _extend_power_sums(n: int, coefficients: tuple, sums: tuple, m: int) -> tuple:
    """(F_0..F_min(m,d), R_0..R_m) at n, grown from a shorter prefix of both.

    R_i = 2 n^i sum_{j=1}^{d} s_j^-i are the scaled power sums of the roots
    of ``_root_coefficient``, from the Newton recurrence
    R_i = -2 i F_i - sum_{r=1}^{min(i-1,d)} F_r R_{i-r}, with F_i = 0 past d.
    """
    d = (n - 1) // 2
    f, r = list(coefficients), list(sums)
    f.extend(_root_coefficient(n, k) for k in range(len(f), min(m, d) + 1))
    for i in range(len(r), m + 1):
        top = min(i - 1, d)
        head = -2 * i * f[i] if i <= d else 0
        r.append(head - sum(map(mul, f[1 : top + 1], r[i - 1 : i - 1 - top : -1])))
    return tuple(f), tuple(r)


class _PowerSumTable:
    """The scaled csc power sums P_i = n^i p_i(n), i = 0, 1, ..., at one n.

    The table grows on demand and every genus reads it.  A growth builds new
    tuples and stores them in one assignment, so a concurrent reader sees
    either the old prefix or the new one, never a half-grown table.
    """

    __slots__ = ("n", "_rows")

    def __init__(self, n: int) -> None:
        self.n = n
        # (F_0..F_t, R_0..R_t'), with R_0 = 2d
        self._rows = ((1,), ((n - 1) // 2 * 2,))

    def scaled_sum(self, m: int) -> int:
        rows = self._rows
        if m >= len(rows[1]):
            rows = self._rows = _extend_power_sums(self.n, *rows, m)
        # the middle term j = n/2 of an even n, csc = 1, has no mirror
        return rows[1][m] + (1 - self.n % 2) * self.n**m


@lru_cache(maxsize=128)
def _power_sum_table(n: int) -> _PowerSumTable:
    """The table at n that every genus shares.

    The cache holds 128 tables.  Every genus x level grid, of the CLI and
    of the check suites, is evaluated level-major (``checks._level_major``),
    so the tables of a level serve every genus while they are cached, and a
    grid of more than 128 levels builds each table about once, not once per
    genus.  A table up to m keeps every R_i, O(m^2 log n) bits: about 3 KB
    at m = 23 and n <= 130, 195 KB for the table behind verlinde_dim(400,
    100) (n = 102, m = 399), 650 KB at n = 18, m = 999 and 2.1 MB at
    n = 1002, m = 999 (sys.getsizeof of both tuples and their integers).
    """
    return _PowerSumTable(n)


def _scaled_power_sum(m: int, n: int) -> int:
    """n^m p_m(n)."""
    return _power_sum_table(n).scaled_sum(m)


def _label(label: tuple) -> str:
    """The text of ``label``, a format template and its values, such as
    ("verlinde_dim(g={}, k={})", g, k).  Callers pass the tuple and build the
    text only on the path that raises, so a call that succeeds formats nothing."""
    return label[0].format(*label[1:])


def _integral(numerator: int, shift: int, label: tuple) -> int:
    """numerator / 2^shift, which must be an integer."""
    value, remainder = divmod(numerator, 1 << shift)
    if remainder:
        raise ArithmeticError(
            f"{_label(label)}: power-sum value {Fraction(numerator, 1 << shift)} is not an integer"
        )
    return value


def _verlinde_terms(g: int, k: int) -> tuple[int, int]:
    """(m, n) = (g - 1, k + 2), the power and the n of the genus-g sum at level k."""
    if g < 1:
        raise ValueError(f"genus must be a positive integer, got {g}")
    if k < 0:
        raise ValueError(f"level must be a non-negative integer, got {k}")
    return g - 1, k + 2


def _twisted_terms(g: int, p: int) -> tuple[int, int]:
    """(m, n) = (g - 1, p/2), the power and the n of the twisted genus-g sum at level p."""
    if g < 1:
        raise ValueError(f"genus must be a positive integer, got {g}")
    if p % 2 or p < 4:
        raise ValueError(f"the twisted sum needs an even level p >= 4, got {p}")
    return g - 1, p // 2


@lru_cache(maxsize=None)
def verlinde_dim(g: int, k: int) -> int:
    """Genus-g dimension at level k, as ((k+2)/2)^{g-1} p_{g-1}(k+2)."""
    m, n = _verlinde_terms(g, k)
    # (n/2)^m p_m(n) = P_m(n) / 2^m
    return _integral(_scaled_power_sum(m, n), m, ("verlinde_dim(g={}, k={})", g, k))


@lru_cache(maxsize=None)
def twisted_dim(g: int, p: int) -> int:
    """Twisted genus-g dimension at even level p >= 4, from the csc power sums at n = p/2.

    The alternating sum over j is the full sum p_m(n) minus twice its
    even-j part.  For odd n the part is half the full sum (j -> n - j swaps
    the parities), so the value is 0.  For even n it is p_m(h), h = n/2.
    """
    m, n = _twisted_terms(g, p)
    if n % 2:
        return 0
    h = n // 2
    # (n/2)^m (p_m(n) - 2 p_m(h)) = (P_m(n) - 2^{m+1} P_m(h)) / 2^m, as n^m = 2^m h^m
    numerator = _scaled_power_sum(m, n) - (_scaled_power_sum(m, h) << m + 1)
    return _integral(numerator, m, ("twisted_dim(g={}, p={})", g, p))


# ---------------------------------------------------------------------------
# modular certification oracle


class CertifiedInteger(Value):
    """An integer with the modular certificate that pins it: the sum is
    ``value`` modulo ``modulus`` and at most ``bound`` in magnitude, so it is
    ``value`` itself once 2 bound < modulus."""

    value: int
    bound: int
    modulus: int
    precision_bits: int

    def __init__(self, value: int, bound: int, modulus: int, precision_bits: int) -> None:
        if not -bound <= value <= bound:
            raise ValueError(f"certificate violated: {value} outside [-{bound}, {bound}]")
        self._store(value=value, bound=bound, modulus=modulus, precision_bits=precision_bits)

    def __int__(self) -> int:
        return self.value


def _prime_factors(n: int) -> list[int]:
    """The distinct primes of n >= 1, by trial division."""
    primes, d = [], 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        primes.append(n)
    return primes


@lru_cache(maxsize=256)
def _modulus(n: int, bits: int) -> tuple[int, int]:
    """(t, M) with t = ceil(bits / phi(n)) and M = Phi_n(2^t) / gcd(Phi_n(2^t), n).

    Phi_n(x) = prod_{d | n} (x^d - 1)^{mu(n/d)}, where mu(n/d) is non-zero
    only for d = n / e with e a product of distinct primes of n, and is then
    (-1)^(their number): the factors of mu = 1 divide exactly by the others.
    """
    primes = _prime_factors(n)
    phi = n
    for q in primes:
        phi = phi // q * (q - 1)
    t = -(-bits // phi)
    factors = ([], [])
    for size in range(len(primes) + 1):
        for subset in combinations(primes, size):
            factors[size % 2].append((1 << t * (n // math.prod(subset))) - 1)
    cyclotomic = math.prod(factors[0]) // math.prod(factors[1])
    return t, cyclotomic // math.gcd(cyclotomic, n)


@lru_cache(maxsize=64)
def _residue_table(n: int, bits: int) -> tuple[int, tuple[int, ...]]:
    """(M, inverses): the M of ``_modulus(n, bits)`` and, at index j - 1 for
    1 <= j <= n/2, the inverse modulo M of the folded term 2 - w^j - w^-j
    under w -> 2^t (``_sum_residue``).

    The terms are batch-inverted: their prefix products, one modular
    inverse of the last, and one pass back.  Every term is a unit modulo M
    (``_certified_sum``); one that is not would be a wrong proof, and raises
    CertificationError, so that the cache keeps no table.
    """
    t, modulus = _modulus(n, bits)
    root = pow(2, t, modulus)
    inverse_root = pow(root, n - 1, modulus)
    terms, forward, backward = [], 1, 1
    for _ in range(n // 2):
        forward, backward = forward * root % modulus, backward * inverse_root % modulus
        terms.append((2 - forward - backward) % modulus)
    prefix = [1]
    for term in terms:
        prefix.append(prefix[-1] * term % modulus)
    try:
        inverse = pow(prefix[-1], -1, modulus)
    except ValueError:
        j = next(j for j, term in enumerate(terms, 1) if math.gcd(term, modulus) > 1)
        raise CertificationError(f"residue table at n={n}, {bits} bits: the term of j={j} is not a unit") from None
    inverses = [0] * len(terms)
    for i in range(len(terms) - 1, -1, -1):
        inverses[i] = inverse * prefix[i] % modulus
        inverse = inverse * terms[i] % modulus
    return modulus, tuple(inverses)


def _sum_residue(m: int, n: int, bits: int, alternating: bool) -> int:
    """V modulo the M of (n, bits), in (-M/2, M/2], for
    V = (2n)^m sum_{j=1}^{n-1} s_j (2 - w^j - w^-j)^-m, where
    s_j = (-1)^{j+1} if ``alternating``, else 1.

    The term of j is the term of n - j, so the table holds 1 <= j <= n/2:
    j and n - j fold into one term of weight 2, and the middle j = n/2 of an
    even n, its own mirror, has weight 1.  In the alternating sum, at even n,
    a folded term keeps the sign (-1)^{j+1} of j: the even indices of the
    table are positive, the odd ones negative.  At odd n the signs of j and
    n - j are opposite, every pair cancels and the sum is exactly 0.
    """
    if alternating and n % 2:
        return 0
    modulus, inverses = _residue_table(n, bits)
    powers = [pow(inverse, m, modulus) for inverse in inverses]
    total = 2 * (sum(powers[::2]) - sum(powers[1::2]) if alternating else sum(powers))
    if n % 2 == 0:
        # the middle term, counted twice, is negative in the alternating sum at n = 0 mod 4
        total += powers[-1] if alternating and n % 4 == 0 else -powers[-1]
    residue = pow(2 * n, m, modulus) * total % modulus
    return residue - modulus if 2 * residue > modulus else residue


def _certified_sum(m: int, n: int, alternating: bool, precision_bits: int, label: tuple) -> CertifiedInteger:
    """V = (n/2)^m sum_{j=1}^{n-1} s_j csc^{2m}(pi j / n), certified by its
    residue modulo the M of (n, Q) at the first precision Q of the doubling
    sequence from ``precision_bits`` with M > 2 bound.

    With w = e^{2 pi i / n}, csc^2(pi j / n) = 4 / (2 - w^j - w^-j), so V is
    the sum of ``_sum_residue`` in C.  Each 2 - w^j - w^-j = -w^-j (1 - w^j)^2
    divides a power of n in Z[w], as prod_{j=1}^{n-1} (1 - w^j) = n, so V
    lies in Z[w, 1/n].  Phi_n(2^t) is odd (Phi_n(0) = 1 for n >= 2), and an
    odd prime that divides both n and Phi_n(a) divides Phi_n(a) only once,
    so M is prime to 2n, and w -> 2^t is a ring map Z[w, 1/n] -> Z/M (2^t is
    a root of Phi_n modulo M).  It takes V to the residue.  By Jordan's
    inequality sin x >= 2x / pi on [0, pi/2], csc^2(pi j / n) <= (n/2)^2, so
    |V| <= (n - 1)(n/2)^{3m}, the bound rounded up to an integer; the
    twisted sum at odd n is exactly 0, of bound 0.  Once M > 2 bound, the
    residue in (-M/2, M/2] is V, as V is an integer, which the oracle takes
    as given and the exact path's guard checks.  M is at least
    (2^t - 1)^phi(n) / n and grows with Q, so the walk ends.  A residue
    outside the bound would be a wrong proof, and raises.
    """
    if precision_bits < 64:
        raise ValueError(f"precision_bits must be >= 64, got {precision_bits}")
    bound = 0 if alternating and n % 2 else -(-(n - 1) * n ** (3 * m) >> 3 * m)
    bits = precision_bits
    modulus = _modulus(n, bits)[1]
    while 2 * bound >= modulus:
        bits *= 2
        modulus = _modulus(n, bits)[1]
    value = _sum_residue(m, n, bits, alternating)
    if abs(value) > bound:
        # hexadecimal, which meets no limit on the decimal digits of an int
        raise CertificationError(f"{_label(label)}: residue {value:#x} at {bits} bits exceeds the bound {bound:#x}")
    return CertifiedInteger(value, bound, modulus, bits)


def verlinde_trig_oracle(g: int, k: int, precision_bits: int = DEFAULT_PRECISION_BITS) -> CertifiedInteger:
    """Certified evaluation of the genus-g trigonometric dimension sum at level k."""
    m, n = _verlinde_terms(g, k)
    return _certified_sum(m, n, False, precision_bits, ("verlinde(g={}, k={})", g, k))


def twisted_trig_oracle(g: int, p: int, precision_bits: int = DEFAULT_PRECISION_BITS) -> CertifiedInteger:
    """Certified evaluation of the alternating twisted dimension sum at even level p.

    With n = p/2, sin(2 pi j / p) = sin(pi j / n) and (p/4)^m = (n/2)^m, so
    the sum is (n/2)^m sum_{j=1}^{n-1} (-1)^{j+1} csc^{2m}(pi j / n), over the
    same terms as the Verlinde sum at level n - 2.  At odd n every folded
    pair cancels and the sum is exactly 0, certified at ``precision_bits``
    with no table.
    """
    m, n = _twisted_terms(g, p)
    return _certified_sum(m, n, True, precision_bits, ("twisted(g={}, p={})", g, p))
