"""Arithmetic in the binary extension field GF(2^m).

Field elements are plain Python ints whose bits are the coefficients of a
polynomial over GF(2): bit i is the coefficient of x^i.  All arithmetic is
performed modulo an irreducible polynomial of degree m held by a FieldCtx.
Working on raw ints keeps the hot loops cheap; containers in ranklinalg
carry the context and check that operands share it.

The modulus for each extension degree is the lexicographically smallest
irreducible polynomial of minimal weight (trinomial if one exists, else
pentanomial), so that serialized values are portable between runs.
MODULI tabulates it for every m in 2..512, the degrees FieldCtx accepts,
so building a field never searches for a modulus.

Products are carry-less multiplies by window tables (_window_table), of
4-bit windows for FieldCtx.mul; ranklinalg's _Packed.table chooses the
width for packed rows.  Squaring is GF(2)-linear and spreads bit i to bit
2i, which two bytes.translate tables do on whole byte strings (_spread):
sqr spreads one element, and ranklinalg's _Packed.sqr the slots of a
whole packed row.  Inverses come from one binary extended Euclid on
polynomials held as ints (_poly_inv): FieldCtx.inv runs it modulo the
field polynomial, and ranklinalg's cyclotomic idempotents modulo each
binary cyclotomic polynomial.

Elements are also vectors over GF(2), and so are the rows of GF(2)
matrices, which the package holds as lists of row bitmask ints.  One
echelon routine (BitSpan, with _bit_rank) gives the rank, the kernel and
the coordinates of such vectors: the normality test, the trace-dual
solve, the Gabidulin decoder's root space and error locations and the
scheme's random GF(2) matrices all run on it.
"""

from __future__ import annotations


class ContextMismatchError(ValueError):
    """Raised when elements from different field contexts are combined."""


# The middle exponents of the modulus of each degree m in 2..512, ten
# degrees a line from the m that starts it: "a" is x^m + x^a + 1 and
# "c,b,a" is x^m + x^c + x^b + x^a + 1.  tests/conftest.py holds the search
# that finds them (smallest_irreducible), and test_gf2m checks the table
# against it.
_MIDDLE_TERMS = """
  2: 1 1 1 2 1 1 4,3,1 1
 10: 3 2 3 4,3,1 5 1 5,3,1 3 3 5,2,1
 20: 3 2 1 5 4,3,1 3 4,3,1 5,2,1 1 2
 30: 1 3 7,3,2 10 7 2 9 6,4,1 6,5,1 4
 40: 5,4,3 3 7 6,4,3 5 4,3,1 1 5 5,3,2 9
 50: 4,3,2 6,3,1 3 6,2,1 9 7 7,4,2 4 19 7,4,2
 60: 1 5,2,1 29 1 4,3,1 18 3 5,2,1 9 6,5,2
 70: 5,3,1 6 10,9,3 25 35 6,3,1 21 6,5,2 6,5,3 9
 80: 9,4,2 4 8,3,1 7,4,2 5 8,2,1 21 13 7,6,2 38
 90: 27 8,5,1 21 2 21 11 10,9,6 6 11 6,3,1
100: 15 7,6,1 29 9 4,3,1 4 15 9,7,4 17 5,4,2
110: 33 10 5,4,3 9 5,3,2 8,7,5 4,2,1 5,2,1 33 8
120: 4,3,1 18 6,2,1 2 19 7,6,5 21 1 7,2,1 5
130: 3 8,3,2 17 9,8,2 57 11 5,3,2 21 8,7,1 8,5,3
140: 15 10,4,1 21 5,3,2 7,4,2 52 71 14 27 10,9,7
150: 53 3 6,3,2 1 15 62 9 6,5,2 8,6,5 31
160: 5,3,2 18 27 7,6,3 10,8,7 9,8,3 37 6 15,3,2 34
170: 11 6,5,2 1 8,5,2 13 6 11,3,2 8 31 4,2,1
180: 3 7,6,1 81 56 9,8,7 24 11 7,6,5 6,5,2 6,5,2
190: 8,7,6 9 7,2,1 15 87 8,3,2 3 9,4,2 9 34
200: 5,3,2 14 55 8,7,1 27 9,5,2 10,9,5 43 9,3,1 6
210: 7 11,10,8 105 6,5,2 73 23 7,3,1 45 11 8,4,1
220: 7 8,6,2 5,4,2 33 9,8,3 32 10,7,3 10,9,4 113 10,4,1
230: 8,7,6 26 9,4,2 74 31 9,6,1 5 7,4,1 73 36
240: 8,5,3 70 95 8,5,1 111 6,4,1 11,2,1 82 15,14,10 35
250: 103 7,4,2 15 46 7,2,1 52 10,5,2 12 71 10,6,2
260: 15 7,6,4 9,8,4 93 9,6,2 42 47 8,6,3 25 7,6,1
270: 53 58 9,3,2 23 67 11,10,9 63 12,6,3 5 5
280: 9,5,2 93 35 12,7,5 53 10,7,5 69 71 11,10,1 21
290: 5,3,2 12,11,5 37 11,6,1 33 48 7,3,2 5 11,8,4 11,6,4
300: 5 9,5,2 41 1 11,2,1 102 7,3,1 8,4,2 15 10,6,4
310: 93 7,5,3 9,7,4 79 15 10,9,1 63 7,4,2 45 36
320: 4,3,1 31 67 10,3,1 51 10,5,2 10,3,1 34 8,3,1 50
330: 99 10,6,2 89 2 5,2,1 10,7,2 7,4,1 55 4,3,1 16,10,7
340: 45 10,8,6 125 75 7,2,1 22 63 11,10,3 103 6,5,2
350: 53 34 13,11,6 69 99 6,5,1 10,9,7 11,10,2 57 68
360: 5,3,2 7,4,1 63 8,5,3 9 9,6,5 29 21 7,3,2 91
370: 139 8,3,2 111 8,7,2 8,6,5 16 8,7,5 41 43 10,8,5
380: 47 5,2,1 81 90 12,3,2 6 83 8,7,1 159 10,9,5
390: 9 28 13,10,6 7 135 11,6,5 25 12,7,6 7,6,2 26
400: 5,3,2 152 171 9,8,5 65 13,8,2 141 71 5,3,2 87
410: 10,4,3 12,10,3 147 10,7,6 13 102 9,5,2 107 199 15,5,4
420: 7 5,4,2 149 25 9,7,2 12 63 11,6,5 105 10,8,7
430: 14,6,1 120 13,4,3 33 12,11,5 12,9,5 165 6,2,1 65 49
440: 4,3,1 7 7,5,2 10,6,1 81 7,6,4 105 73 11,6,4 134
450: 47 16,10,1 6,5,4 15,6,4 8,6,1 38 18,9,6 16 203 12,5,2
460: 19 7,6,1 73 93 19,18,13 31 14,11,6 11,6,1 27 9,5,2
470: 9 1 11,3,2 200 191 9,8,4 9 16,15,7 121 104
480: 15,9,6 138 9,6,5 9,6,4 105 17,16,6 81 94 4,3,1 83
490: 219 11,6,3 7 10,5,3 17 76 16,5,2 78 155 11,6,5
500: 27 5,4,2 8,5,4 3 15,14,6 156 23 13,6,3 9 8,7,3
510: 69 10 8,5,2
"""


def _moduli(table):
    moduli = {}
    for line in table.strip().splitlines():
        start, terms = line.split(":")
        for m, term in enumerate(terms.split(), int(start)):
            moduli[m] = 1 << m | sum(1 << int(e) for e in term.split(",")) | 1
    return moduli


# bit i = coefficient of x^i
MODULI = _moduli(_MIDDLE_TERMS)


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


def _poly_inv(a, mod):
    """The inverse, of degree below mod's, of the GF(2) polynomial a
    modulo mod by the binary extended Euclid (Hankerson, Menezes &
    Vanstone, Guide to Elliptic Curve Cryptography, Alg. 2.48).  For a
    not coprime to mod, u never reaches 1 and the loop does not end."""
    # invariant: u = s * a (mod mod), v = t * a (mod mod)
    u, v = a, mod
    s, t = 1, 0
    du, dv = u.bit_length(), v.bit_length()
    while u != 1:
        if du < dv:
            u, v = v, u
            s, t = t, s
            du, dv = dv, du
        sh = du - dv
        u ^= v << sh
        s ^= t << sh
        du = u.bit_length()
    return s


# bytes.translate tables taking a byte to the bits of its low (high)
# nibble at the even positions of one byte: spread bit i to bit 2i
_SPREAD_LO = bytes(sum((b >> i & 1) << 2 * i for i in range(4)) for b in range(256))
_SPREAD_HI = bytes(_SPREAD_LO[b >> 4] for b in range(256))


def _spread(raw: bytes) -> bytearray:
    """Little-endian bytes of the square, unreduced, of the polynomial whose
    little-endian bytes are raw: bit i moves to bit 2i, so byte p becomes
    bytes 2p and 2p + 1, which two translates give and slice assignment
    interleaves."""
    sp = bytearray(2 * len(raw))
    sp[0::2] = raw.translate(_SPREAD_LO)
    sp[1::2] = raw.translate(_SPREAD_HI)
    return sp


class FieldCtx:
    """GF(2^m) modulo the registry polynomial MODULI[m].

    Immutable after construction; safe to share across threads.  All methods
    take and return raw int elements.
    """

    def __init__(self, m: int):
        if not 2 <= m <= 512:
            raise ValueError(f"extension degree {m} out of range [2, 512]")
        self.m = m
        self.modulus = modulus = MODULI[m]
        self.mask = (1 << m) - 1
        # bit positions of x^m mod modulus, used to fold products
        red = modulus ^ (1 << m)
        self._red_shifts = tuple(i for i in range(m) if red >> i & 1)
        self._nbytes = (m + 7) // 8

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
        """a^2, for any a below 2^(8 * ceil(m / 8)): a's bytes spread, reduced."""
        return self.reduce(int.from_bytes(_spread(a.to_bytes(self._nbytes, "little")), "little"))

    def inv(self, a: int) -> int:
        """Multiplicative inverse: _poly_inv of a modulo the field polynomial."""
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(2^m)")
        return _poly_inv(a, self.modulus)

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

    def sqrt(self, a: int) -> int:
        """Unique square root in characteristic 2: a^[m-1], as a^[m] = a.
        No program path calls it; perfbench/tracer.py wraps it by name."""
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


def _window_table(p, bits=4):
    """p times each of the 2^bits polynomials of degree < bits, for _window_mul.

    p may be one element or a row of packed slots (ranklinalg._Packed): the
    table is carry-less, so it multiplies every slot at once.  A table of
    8-bit windows halves the steps of each product and costs 4-7 of those
    products to build, so it pays only for a value that many products
    reuse; _Packed.table applies that rule.
    """
    t2 = p << 1
    t4 = p << 2
    tab = [0, p, t2, t2 ^ p, t4, t4 ^ p, t4 ^ t2, t4 ^ t2 ^ p]
    for i in range(3, bits):
        top = p << i
        tab += [x ^ top for x in tab]
    return tab


def _window_mul(tab, lam):
    """Carry-less product of lam by the value whose _window_table is tab,
    in windows of the table's width."""
    mask = len(tab) - 1
    bits = mask.bit_length()
    r = 0
    sh = 0
    while lam:
        w = lam & mask
        if w:
            r ^= tab[w] << sh
        sh += bits
        lam >>= bits
    return r


def _window_mul_sum(tabs, lams):
    """XOR of the carry-less products lams[j] times the value of tabs[j].

    The windows of all terms are taken together, from the top one down,
    so the sum is shifted once per window instead of every term once per
    window as in separate _window_mul calls.  No terms sum to 0.
    """
    r = 0
    for sh in range((max(lams, default=0).bit_length() - 1) // 4 * 4, -1, -4):
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
