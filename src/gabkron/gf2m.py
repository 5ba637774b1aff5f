"""Arithmetic in the binary extension field GF(2^m).

Field elements are plain Python ints whose bits are the coefficients of a
polynomial over GF(2): bit i is the coefficient of x^i.  All arithmetic is
performed modulo an irreducible polynomial of degree m held by a FieldCtx.
Working on raw ints keeps the hot loops cheap; containers in ranklinalg
carry the context and check that operands share it.

The modulus for each extension degree is the lexicographically smallest
irreducible polynomial of minimal weight (trinomial if one exists, else
pentanomial), so that serialized values are portable between runs.

Elements are also vectors over GF(2), and so are the rows of GF(2)
matrices held as bitmask ints.  One echelon routine (BitSpan) gives the
rank, the kernel and the coordinates of such vectors: the normality test,
the trace-dual solve and the Gabidulin decoder's root space and error
locations all run on it.
"""

from __future__ import annotations

from functools import lru_cache


class ContextMismatchError(ValueError):
    """Raised when elements from different field contexts are combined."""


# Degree-indexed moduli (smallest minimal-weight irreducible, bit i = coeff
# of x^i).  Regenerated by smallest_irreducible(); test_gf2m cross-checks.
MODULI = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011011,
    9: 0b1000000011,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000000001001,
    16: (1 << 16) | (1 << 5) | (1 << 3) | (1 << 1) | 1,
    20: (1 << 20) | (1 << 3) | 1,
    24: (1 << 24) | (1 << 4) | (1 << 3) | (1 << 1) | 1,
    48: (1 << 48) | (1 << 5) | (1 << 3) | (1 << 2) | 1,
    76: (1 << 76) | (1 << 21) | 1,
    90: (1 << 90) | (1 << 27) | 1,
    104: (1 << 104) | (1 << 4) | (1 << 3) | (1 << 1) | 1,
    120: (1 << 120) | (1 << 4) | (1 << 3) | (1 << 1) | 1,
    128: (1 << 128) | (1 << 7) | (1 << 2) | (1 << 1) | 1,
    211: (1 << 211) | (1 << 11) | (1 << 10) | (1 << 8) | 1,
    307: (1 << 307) | (1 << 8) | (1 << 4) | (1 << 2) | 1,
    331: (1 << 331) | (1 << 10) | (1 << 6) | (1 << 2) | 1,
}

def _poly_mulmod(a, b, mod, deg):
    """Multiply two GF(2) polynomials modulo mod (degree deg)."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> deg & 1:
            a ^= mod
    # a stays reduced each step, so r has degree < deg already
    return r


def _poly_gcd(a, b):
    while b:
        if a.bit_length() < b.bit_length():
            a, b = b, a
            continue
        a ^= b << (a.bit_length() - b.bit_length())
    return a


def is_irreducible(poly: int, m: int) -> bool:
    """Deterministic irreducibility test for a degree-m polynomial over GF(2).

    Checks that x^(2^i) - x shares no factor with poly for i up to m/2,
    which rules out irreducible factors of every degree below m.
    """
    if poly >> m != 1 or not poly & 1:
        return False
    if m == 1:
        return True
    r = 2  # the polynomial x
    for _ in range(m // 2):
        r = _poly_mulmod(r, r, poly, m)
        if _poly_gcd(r ^ 2, poly) != 1:
            return False
    return True


def smallest_irreducible(m: int) -> int:
    """Lexicographically smallest irreducible of degree m with minimal weight."""
    if m == 1:
        return 0b10
    top = 1 << m
    for a in range(1, m):
        cand = top | (1 << a) | 1
        if is_irreducible(cand, m):
            return cand
    for c in range(3, m):
        for b in range(2, c):
            for a in range(1, b):
                cand = top | (1 << c) | (1 << b) | (1 << a) | 1
                if is_irreducible(cand, m):
                    return cand
    raise ValueError(f"no low-weight irreducible of degree {m}")


@lru_cache(maxsize=None)
def modulus_for_degree(m: int) -> int:
    """Registry modulus for GF(2^m); searched and cached when not tabulated."""
    if m in MODULI:
        return MODULI[m]
    return smallest_irreducible(m)


_frob_rows_cache: dict = {}  # FieldCtx -> frobenius_power_rows tuple
_sqr_tables_cache: dict = {}  # m -> _sqr_tables tuple


def _sqr_tables(m: int, reduce) -> tuple:
    """Table p of the reduced squares of every byte at byte position p.

    Squaring is GF(2)-linear, so sqr(a) is the XOR of one entry per byte of
    a.  Entry v of table p is built from entry v minus its top bit and the
    reduced square of that bit, x^(2(8p+i)).  Built once per field.
    """
    tables = _sqr_tables_cache.get(m)
    if tables is None:
        tables = []
        for pos in range(0, m, 8):
            tab = [0]
            for i in range(8):
                sq = reduce(1 << 2 * (pos + i))
                tab += [v ^ sq for v in tab]
            tables.append(tab)
        tables = _sqr_tables_cache[m] = tuple(tables)
    return tables


class FieldCtx:
    """GF(2^m) modulo the registry polynomial modulus_for_degree(m).

    Immutable after construction; safe to share across threads.  All methods
    take and return raw int elements.
    """

    def __init__(self, m: int):
        if not 2 <= m <= 512:
            raise ValueError(f"extension degree {m} out of range [2, 512]")
        self.m = m
        self.modulus = modulus = modulus_for_degree(m)
        self.mask = (1 << m) - 1
        # bit positions of x^m mod modulus, used to fold products
        red = modulus ^ (1 << m)
        self._red_shifts = tuple(i for i in range(m) if red >> i & 1)
        self._sqr_tables = _sqr_tables(m, self.reduce)
        self._nbytes = len(self._sqr_tables)

    def __repr__(self):
        return f"FieldCtx(m={self.m}, modulus={self.modulus:#x})"

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and self.m == other.m

    def __hash__(self):
        return hash(self.m)

    # -- core arithmetic on raw ints ------------------------------------

    def check(self, a: int) -> int:
        if a >> self.m:
            raise ValueError(f"value {a:#x} has degree >= m={self.m}")
        return a

    def reduce(self, v: int) -> int:
        """Reduce a polynomial of any degree to the canonical m-bit form."""
        m = self.m
        mask = self.mask
        shifts = self._red_shifts
        hi = v >> m
        while hi:
            v &= mask
            for s in shifts:
                v ^= hi << s
            hi = v >> m
        return v

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if b == 1:
            return a
        if a == 1:
            return b
        return self.reduce(_window_mul(_window_table(a), b))

    def sqr(self, a: int) -> int:
        """a^2: one table lookup per byte of a, no reduction (_sqr_tables)."""
        r = 0
        for tab, byte in zip(self._sqr_tables, a.to_bytes(self._nbytes, "little")):
            r ^= tab[byte]
        return r

    def inv(self, a: int) -> int:
        """Multiplicative inverse by the extended Euclidean algorithm."""
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(2^m)")
        if a == 1:
            return 1
        # invariant: u = s * a (mod modulus), v = t * a (mod modulus)
        u, v = a, self.modulus
        s, t = 1, 0
        while u != 1:
            du = u.bit_length()
            dv = v.bit_length()
            if du < dv:
                u, v = v, u
                s, t = t, s
                du, dv = dv, du
            sh = du - dv
            u ^= v << sh
            s ^= t << sh
        return self.reduce(s)

    def frobenius(self, a: int, i: int) -> int:
        """a^(2^i); the bracket power a^[i].  frobenius(a, m) == a."""
        if i < 0:
            raise ValueError("frobenius power must be non-negative")
        for _ in range(i % self.m):
            a = self.sqr(a)
        return a

    def frobenius_orbit(self, a: int, n: int) -> list[int]:
        """(a^[n-1], ..., a^[1], a) from n - 1 squarings."""
        out = [a]
        for _ in range(n - 1):
            out.append(self.sqr(out[-1]))
        return out[::-1]

    # -- base-field structure --------------------------------------------

    def frobenius_power_rows(self, t: int) -> tuple[int, ...]:
        """Row u = (x^i)^[u] for i < m, u = 0..t, packed as in ranklinalg.

        One 2m-bit slot per entry, slot i at bit 2m*i.  The rows are cached
        per field, so equal contexts share them; the cache grows by
        whole-tuple assignment, so concurrent readers see complete rows.
        """
        rows = _frob_rows_cache.get(self, ())
        if len(rows) <= t:
            slot = 2 * self.m
            grown = list(rows)
            if grown:
                vals = [grown[-1] >> (slot * i) & self.mask for i in range(self.m)]
            else:
                vals = [1 << i for i in range(self.m)]
            while len(grown) <= t:
                if grown:
                    vals = [self.sqr(v) for v in vals]
                grown.append(sum(v << (slot * i) for i, v in enumerate(vals)))
            rows = _frob_rows_cache[self] = tuple(grown)
        return rows

    def sqrt(self, a: int) -> int:
        """Unique square root in characteristic 2: a^[m-1], as a^[m] = a."""
        return self.frobenius(a, self.m - 1)

    def is_normal(self, a: int) -> list[int] | None:
        """frobenius_orbit(a, m) if it is an F_2-basis of the field, else None.

        Truthy exactly when a is normal, and the orbit is returned so that
        callers who go on to use it square it once.
        """
        orbit = self.frobenius_orbit(a, self.m)
        return orbit if _bit_rank(orbit) == self.m else None

    def trace_vector(self) -> int:
        """Bit i is Tr(x^i) for i < m, so Tr(a) is the parity of a & trace_vector().

        Tr(x^i) is the i-th power sum p_i of the modulus's roots.  Newton's
        identities give it from the coefficients: with e_j the coefficient
        of x^(m-j), p_i = e_1 p_{i-1} + ... + e_{i-1} p_1 + i e_i over GF(2),
        and p_0 = m.
        """
        m = self.m
        e = 0  # bit j = e_j
        for j in range(1, m + 1):
            e |= (self.modulus >> (m - j) & 1) << j
        tv = m & 1
        prev = 0  # bit j = p_{i-j} for 0 < j < i
        for i in range(1, m):
            p = ((prev & e).bit_count() + (i & 1) * (e >> i & 1)) & 1
            tv |= p << i
            prev = (prev | p) << 1
        return tv

    def _trace_dual_of_orbit(self, orbit) -> int:
        """The trace dual beta of alpha from orbit = frobenius_orbit(alpha, m),
        alpha normal: Tr(alpha^[i] beta^[j]) = 1 if i = j else 0, i, j < m.

        Writing beta = sum_j b_j alpha^[j], the conditions reduce by Frobenius
        invariance of the trace to the circulant GF(2) system
        sum_j b_j c_{j-l} = [l = 0] with c_d = Tr(alpha alpha^[d]).  Its
        matrix is the Gram matrix of the trace form on alpha's orbit, so it
        is invertible exactly when alpha is normal; the orbit of beta is then
        the dual normal basis.  The matrix is symmetric, as c_d =
        Tr((alpha alpha^[d])^[-d]) = c_{-d}, so the combination of its rows
        equal to e_0 (BitSpan.coordinates) is b.  The caller checks
        normality (is_normal).
        """
        m = self.m
        tv = self.trace_vector()
        orbit = orbit[::-1]  # orbit[j] = alpha^[j]
        alpha = orbit[0]
        c = 0
        for d, a in enumerate(orbit):
            c |= ((self.mul(alpha, a) & tv).bit_count() & 1) << d
        # row l holds c_{j-l} at bit j: c rotated left by l
        rows = [((c << l) | (c >> (m - l))) & self.mask for l in range(m)]
        b = BitSpan(rows).coordinates(1)
        beta = 0
        for j, a in enumerate(orbit):
            if b >> j & 1:
                beta ^= a
        return beta

    def find_normal_element(self, rng) -> list[int]:
        """Orbit (alpha^[m-1], ..., alpha) of the first normal alpha drawn from
        rng; deterministic for seeded rng.  alpha is its last entry."""
        for _ in range(4096):
            orbit = self.is_normal(rng.element(self.m))
            if orbit:
                return orbit
        raise RuntimeError("no normal element in 4096 draws (implementation bug)")


def _window_table(p):
    """p times each of the 16 polynomials of degree < 4, for _window_mul.

    p may be one element or a row of packed slots (ranklinalg): the table
    is carry-less, so it multiplies every slot at once.
    """
    t2 = p << 1
    t4 = p << 2
    t8 = p << 3
    tab = [0, p, t2, t2 ^ p, t4, t4 ^ p, t4 ^ t2, t4 ^ t2 ^ p]
    return tab + [x ^ t8 for x in tab]


def _window_mul(tab, lam):
    """Carry-less product of lam by the value whose _window_table is tab."""
    r = 0
    sh = 0
    while lam:
        w = lam & 15
        if w:
            r ^= tab[w] << sh
        sh += 4
        lam >>= 4
    return r


def _window_mul_sum(tabs, lams):
    """XOR of the carry-less products lams[j] times the value of tabs[j].

    The windows of all terms are taken together, from the top one down,
    so the sum is shifted once per window instead of every term once per
    window as in separate _window_mul calls.
    """
    r = 0
    for sh in range((max(lams).bit_length() - 1) // 4 * 4, -1, -4):
        r <<= 4
        for tab, lam in zip(tabs, lams):
            w = lam >> sh & 15
            if w:
                r ^= tab[w]
    return r


class BitSpan:
    """Echelon form over GF(2) of vectors held as ints: rank, kernel and
    coordinates from one reduction.

    Each pivot is keyed by its top bit and tagged with the inputs XORed
    into it, bit i of a tag standing for input i.  Input i reduces against
    the pivots from its top bit down; what is left becomes a pivot, or
    nothing is left and its tag is a dependency among the inputs.
    """

    __slots__ = ("pivots", "kernel")

    def __init__(self, vecs):
        self.pivots = pivots = {}  # top bit -> (vector, tag)
        self.kernel = kernel = []  # tags that XOR to zero: a basis of the dependencies
        for i, v in enumerate(vecs):
            tag = 1 << i
            while v:
                top = v.bit_length() - 1
                piv = pivots.get(top)
                if piv is None:
                    pivots[top] = (v, tag)
                    break
                v ^= piv[0]
                tag ^= piv[1]
            else:
                kernel.append(tag)

    def coordinates(self, target):
        """The tag of inputs whose XOR is target, or None outside the span.

        Unique when the inputs are independent.
        """
        pivots = self.pivots
        tag = 0
        while target:
            piv = pivots.get(target.bit_length() - 1)
            if piv is None:
                return None
            target ^= piv[0]
            tag ^= piv[1]
        return tag


def _bit_rank(rows) -> int:
    """Rank over GF(2) of rows given as bitmask ints."""
    return len(BitSpan(rows).pivots)
