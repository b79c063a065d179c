"""Minimal secp256k1 group arithmetic for the K-time signature scheme.

Points cross the module boundary in affine coordinates, with None as the point
at infinity. Inside a multiplication the doublings and additions run in
Jacobian coordinates, adding each precomputed affine multiple with a mixed
addition, and the result is brought back to affine with a single inversion.

Every product runs through one interleaved walk, which `point_mul_add(a, q,
b)` uses for a*G + b*q and `point_mul(q, k)` for k*q alone. It uses the
curve's endomorphism LAMBDA*(x, y) = (BETA*x, y): each scalar splits into two
signed halves below 2^129, k = k1 + k2*LAMBDA (mod N) (Gallant, Lambert and
Vanstone, "Faster Point Multiplication on Elliptic Curves with Efficient
Endomorphisms", CRYPTO 2001). Each half is written as a width-w NAF of at
most 130 digits, cut into blocks of s bits. A base's tables (`point_tables`)
hold the signed odd multiples of q, 2^s*q, 2^(2s)*q, ... and of their LAMBDA
images, so the digit at bit p is added from the table of block p // s at step
p % s of the walk (the comb of Lim and Lee, "More Flexible Exponentiation
with Precomputation", CRYPTO 1994). All halves share one run of doublings,
one fewer than the largest s (Straus-Shamir interleaving, as in
libsecp256k1's `secp256k1_ecmult`). G's tables have width 8 and ten blocks of
13 bits, so a k*G walk runs 12 doublings for its about 29 additions (a
fixed-base comb, as libsecp256k1's `ecmult_gen` precomputes for G). They are
built once, on first use, not at import: about 10 ms, and 413 KiB live under
`tracemalloc`, on a 2-vCPU Xeon VM with CPython 3.11. Every other base has
four blocks of 33 bits, so a*G + b*q runs q's 32 doublings: a caller that
reuses a base builds its width-5 tables once with `point_tables`, and a
one-shot product builds them on the call. A batch of products with G
(`base_muls`, as a K-time verifying key needs) shares one inversion. None of
this is constant-time: the walk branches on the scalars' digits, so it
models cost, not a side-channel-safe signer.

Each scalar-by-point product counts as one point-multiplication unit for cost
accounting, so `point_mul_add` counts two and `base_muls` one per scalar. The
Jacobian formulas are the standard ones for a = 0, and the width-w NAF and
the interleaved walk follow Hankerson, Menezes and Vanstone, Guide to
Elliptic Curve Cryptography, 2004, sections 3.2.2, 3.3 and 3.3.3.
"""

from __future__ import annotations

from functools import cache
from typing import Iterator, Optional

from rfpop.primitives.counters import count_point_mul

P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
G = (
    0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798,
    0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8,
)

# LAMBDA is a cube root of 1 mod N and BETA one mod P with LAMBDA*(x, y) = (BETA*x, y).
LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
# A reduced basis (A1, B1), (A2, B2) of the lattice {(a, b): a + b*LAMBDA = 0 mod N}.
A1 = 0x3086D221A7D46BCDE86C90E49284EB15
B1 = -0xE4437ED6010E88286F547FA90ABFE4C3
A2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8
B2 = A1

Point = Optional[tuple[int, int]]
_Jacobian = tuple[int, int, int]  # (X, Y, Z) stands for (X/Z^2, Y/Z^3)
# A base's signed digit tables, one per block, for the base itself and for
# LAMBDA times it.
_Tables = tuple[tuple[list, ...], tuple[list, ...]]

# A half below 2^129 has a width-w NAF of at most 130 digits, cut into blocks
# of at most 33 bits: a walk has 33 steps and at most 32 doublings.
_DIGITS = 130
_STEPS = 33


def point_add(p1: Point, p2: Point) -> Point:
    """p1 + p2 in affine coordinates, one inversion; the tests' reference."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2 and (y1 + y2) % P == 0:
        return None
    if p1 == p2:
        lam = (3 * x1 * x1) * pow(2 * y1, -1, P) % P
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, P) % P
    x3 = (lam * lam - x1 - x2) % P
    return (x3, (lam * (x1 - x3) - y1) % P)


def point_mul(p: Point, k: int) -> Point:
    """k*p for any k (reduced mod N); counts one point-mul unit."""
    count_point_mul()
    return _to_affine([_walk(0, p, k % N, _g_tables() if p == G else None)])[0]


def base_muls(scalars: list[int]) -> list[Point]:
    """k*G for each k (reduced mod N), one walk each, made affine with one
    shared inversion; counts one point-mul unit per scalar."""
    count_point_mul(len(scalars))
    return _to_affine([_walk(k % N, None, 0, None) for k in scalars])


def point_mul_add(a: int, q: Point, b: int, q_tables: Optional[_Tables] = None) -> Point:
    """a*G + b*q for any a and b (reduced mod N) in one walk; counts two
    point-mul units. `q_tables`, if given, is `point_tables(q, width)`, built
    once for a q that is used many times."""
    count_point_mul(2)
    return _to_affine([_walk(a % N, q, b % N, q_tables)])[0]


def point_tables(q: tuple[int, int], width: int, blocks: int = 4) -> _Tables:
    """The signed tables of the odd multiples below 2^(width-1) of q, 2^s*q,
    ..., 2^(s*(blocks-1))*q, for blocks of s = ceil(130 / blocks) bits, and
    of their LAMBDA images, for a width-`width` walk: one doubling chain and
    two batched inversions. A block must fit the walk's 33 steps, so
    `blocks` is at least 4."""
    size = -(-_DIGITS // blocks) if blocks > 0 else 0
    if not 0 < size <= _STEPS:
        raise ValueError(f"{blocks} blocks do not cover {_DIGITS} digits in {_STEPS} steps")
    chain = [(q[0], q[1], 1)]
    for _ in range(size * (blocks - 1) + 1):
        chain.append(_double(chain[-1]))
    # Each block's base 2^(s*b)*q and its double, affine.
    ends = _to_affine([chain[size * b + i] for b in range(blocks) for i in (0, 1)])
    count = 1 << (width - 2)
    odd = []
    for base, twice in zip(ends[::2], ends[1::2]):
        acc = (base[0], base[1], 1)
        odd.append(acc)
        for _ in range(count - 1):
            acc = _add_affine(acc, twice)
            odd.append(acc)
    odd = _to_affine(odd)
    tables = [_signed_tables(odd[i : i + count]) for i in range(0, len(odd), count)]
    return tuple(t for t, _ in tables), tuple(e for _, e in tables)


def _walk(a: int, q: Point, b: int, q_tables: Optional[_Tables]) -> _Jacobian:
    """a*G + b*q for 0 <= a, b < N. Each scalar splits into GLV halves; the
    halves of a walk over G's tables and LAMBDA*G's, those of b over q's and
    LAMBDA*q's, each at its tables' width and block size s. A half's digit
    at bit p is added at step p % s from the table of block p // s, so all
    halves share one run of doublings, one fewer than the largest s. The
    result is Jacobian, with z == 0 at infinity."""
    halves = []
    if a:
        halves += zip(split_scalar(a), _g_tables())
    if b and q is not None:
        halves += zip(split_scalar(b), q_tables or point_tables(q, 5))
    # steps[i] lists the affine points added after the doubling at step i.
    # Steps above the largest block size stay empty and cost no doubling.
    steps: list[list[tuple[int, int]]] = [[] for _ in range(_STEPS)]
    for k, blocks in halves:
        # A width-w table has 2^w slots; n blocks hold ceil(130 / n) bits each.
        width = len(blocks[0]).bit_length() - 1
        size = -(-_DIGITS // len(blocks))
        sign = -1 if k < 0 else 1
        for p, digit in _wnaf(abs(k), width):
            steps[p % size].append(blocks[p // size][sign * digit])
    # The Jacobian accumulator (x, y, z); z == 0 is the point at infinity.
    x = y = 1
    z = 0
    for adds in reversed(steps):
        if z:
            # Doubling; y^2 = x^3 + 7 has no point of order 2, so y is never 0.
            yy = y * y % P
            z = 2 * y * z % P
            s = 4 * x * yy % P
            m = 3 * x * x % P
            x = (m * m - 2 * s) % P
            y = (m * (s - x) - 8 * yy * yy) % P
        for x2, y2 in adds:
            if not z:
                x, y, z = x2, y2, 1
                continue
            # Mixed addition of the affine (x2, y2).
            zz = z * z % P
            h = (x2 * zz - x) % P
            r = (y2 * zz * z - y) % P
            if h == 0:
                if r == 0:
                    x, y, z = _double((x, y, z))
                else:
                    z = 0
                continue
            hh = h * h % P
            hhh = h * hh % P
            v = x * hh % P
            z = z * h % P
            x = (r * r - hhh - 2 * v) % P
            y = (r * (v - x) - y * hhh) % P
    return x, y, z


def split_scalar(k: int) -> tuple[int, int]:
    """(k1, k2) with k1 + k2*LAMBDA = k (mod N), each below 2^129 in absolute
    value for 0 <= k < N: k rounded onto the lattice basis, and the remainder."""
    c1 = (B2 * k + N // 2) // N
    c2 = (-B1 * k + N // 2) // N
    return k - c1 * A1 - c2 * A2, -c1 * B1 - c2 * B2


def _wnaf(k: int, width: int) -> Iterator[tuple[int, int]]:
    """The nonzero digits of the width-w NAF of k >= 0 as (bit, digit) pairs,
    least significant first: each digit is odd, below 2^(w-1) in absolute
    value, and followed by at least w-1 zero digits."""
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    i = 0
    while k:
        zeros = (k & -k).bit_length() - 1
        k >>= zeros
        i += zeros
        digit = (k & mask) - (mask + 1) if k & half else k & mask
        yield i, digit
        # k - digit is a multiple of 2^w: the next w-1 digits are 0.
        k = (k - digit) >> width
        i += width


def _signed_tables(odd: list[tuple[int, int]]) -> tuple[list, list]:
    """For odd = [1Q, 3Q, ..., (2n-1)Q], the tables of Q and LAMBDA*Q that a
    signed digit d indexes directly: index d holds d*Q and index -d, counted
    from the end, holds -d*Q. d*Q and -d*Q share their x and their LAMBDA
    image's x, so each is computed once."""
    table: list[Optional[tuple[int, int]]] = [None] * (4 * len(odd))
    endo = table.copy()
    for i, (x, y) in enumerate(odd):
        minus_y = P - y
        beta_x = BETA * x % P
        table[2 * i + 1] = (x, y)
        table[-2 * i - 1] = (x, minus_y)
        endo[2 * i + 1] = (beta_x, y)
        endo[-2 * i - 1] = (beta_x, minus_y)
    return table, endo


def _double(j: _Jacobian) -> _Jacobian:
    """2*j; y^2 = x^3 + 7 has no point of order 2, so Y is never 0."""
    x, y, z = j
    yy = y * y % P
    s = 4 * x * yy % P
    m = 3 * x * x % P
    x3 = (m * m - 2 * s) % P
    return (x3, (m * (s - x3) - 8 * yy * yy) % P, 2 * y * z % P)


def _add_affine(j: _Jacobian, q: tuple[int, int]) -> _Jacobian:
    """j + q for a Jacobian j and an affine q, neither equal to the other nor
    to its negation; the table builder adds 2B to B, 3B, ..., below 2^7*B."""
    x1, y1, z1 = j
    zz = z1 * z1 % P
    h = (q[0] * zz - x1) % P
    r = (q[1] * zz * z1 - y1) % P
    hh = h * h % P
    hhh = h * hh % P
    v = x1 * hh % P
    x3 = (r * r - hhh - 2 * v) % P
    return (x3, (r * (v - x3) - y1 * hhh) % P, z1 * h % P)


def _to_affine(points: list[_Jacobian]) -> list[Point]:
    """Affine forms of Jacobian points with one inversion (Montgomery's
    trick); a point with z == 0 is the point at infinity, None."""
    prefix = []
    acc = 1
    for _, _, z in points:
        if z:
            acc = acc * z % P
        prefix.append(acc)
    inv = pow(acc, -1, P)
    out: list[Point] = [None] * len(points)
    for i in range(len(points) - 1, -1, -1):
        x, y, z = points[i]
        if not z:
            continue
        z_inv = inv * prefix[i - 1] % P if i else inv
        inv = inv * z % P
        zz = z_inv * z_inv % P
        out[i] = (x * zz % P, y * zz * z_inv % P)
    return out


@cache
def _g_tables() -> _Tables:
    """G's tables for a width-8 walk: ten blocks of 13 bits, 64 odd multiples
    each, so k*G runs 12 doublings."""
    return point_tables(G, 8, blocks=10)


def point_encode(p: Point) -> bytes:
    """Uncompressed 64-byte x||y encoding; infinity is not encodable."""
    if p is None:
        raise ValueError("cannot encode the point at infinity")
    x, y = p
    return x.to_bytes(32, "big") + y.to_bytes(32, "big")


def point_decode(data: bytes) -> Point:
    if len(data) != 64:
        raise ValueError(f"point encoding must be 64 bytes, got {len(data)}")
    x = int.from_bytes(data[:32], "big")
    y = int.from_bytes(data[32:], "big")
    if x >= P or y >= P:
        raise ValueError("point coordinate out of field range")
    if (y * y - (x * x * x + 7)) % P != 0:
        raise ValueError("point is not on the curve")
    return (x, y)
