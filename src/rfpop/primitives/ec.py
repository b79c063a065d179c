"""Minimal secp256k1 group arithmetic for the K-time signature scheme.

Points cross the module boundary in affine coordinates, with None as the point
at infinity. Inside `point_mul` the doublings and additions run in Jacobian
coordinates, adding each precomputed affine multiple with a mixed addition,
and the result is brought back to affine with a single inversion. A base of
`G` walks a table of 64 rows of 15 multiples (row i holds d*16^i*G for
d = 1..15), built on first use rather than at import; any other base uses a
left-to-right 4-bit window over its own 15 multiples. None of this is
constant-time: the walks branch on the scalar's digits, so it models cost, not
a side-channel-safe signer. Each scalar-by-point multiplication counts as one
point-multiplication unit for cost accounting. The Jacobian formulas are the
standard ones for a = 0 (Hankerson, Menezes and Vanstone, Guide to Elliptic
Curve Cryptography, 2004, section 3.2.2).
"""

from __future__ import annotations

from functools import cache
from typing import Optional

from rfpop.primitives.counters import count_point_mul

P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
G = (
    0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798,
    0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8,
)

Point = Optional[tuple[int, int]]
_Jacobian = tuple[int, int, int]  # (X, Y, Z) stands for (X/Z^2, Y/Z^3)


def point_add(p1: Point, p2: Point) -> Point:
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
    k %= N
    if p is None or k == 0:
        return None
    acc: Optional[_Jacobian] = None
    if p == G:
        for row in _g_table():
            digit = k & 15
            if digit:
                acc = _add_affine(acc, row[digit - 1])
            k >>= 4
    else:
        multiples = _multiples(p, 15)
        for shift in range((k.bit_length() - 1) // 4 * 4, -1, -4):
            if acc is not None:
                acc = _double(_double(_double(_double(acc))))
            digit = (k >> shift) & 15
            if digit:
                acc = _add_affine(acc, multiples[digit - 1])
    return None if acc is None else _to_affine([acc])[0]


def _double(j: _Jacobian) -> _Jacobian:
    """2*j; y^2 = x^3 + 7 has no point of order 2, so Y is never 0."""
    x, y, z = j
    yy = y * y % P
    s = 4 * x * yy % P
    m = 3 * x * x % P
    x3 = (m * m - 2 * s) % P
    return (x3, (m * (s - x3) - 8 * yy * yy) % P, 2 * y * z % P)


def _add_affine(j: Optional[_Jacobian], q: tuple[int, int]) -> Optional[_Jacobian]:
    """j + q for a Jacobian j (None for infinity) and an affine q."""
    if j is None:
        return (q[0], q[1], 1)
    x1, y1, z1 = j
    zz = z1 * z1 % P
    h = (q[0] * zz - x1) % P
    r = (q[1] * zz * z1 - y1) % P
    if h == 0:
        return _double(j) if r == 0 else None
    hh = h * h % P
    hhh = h * hh % P
    v = x1 * hh % P
    x3 = (r * r - hhh - 2 * v) % P
    return (x3, (r * (v - x3) - y1 * hhh) % P, z1 * h % P)


def _to_affine(points: list[_Jacobian]) -> list[tuple[int, int]]:
    """Affine forms of Jacobian points with one inversion (Montgomery's trick)."""
    prefix = []
    acc = 1
    for _, _, z in points:
        acc = acc * z % P
        prefix.append(acc)
    inv = pow(acc, -1, P)
    out = [None] * len(points)
    for i in range(len(points) - 1, -1, -1):
        x, y, z = points[i]
        z_inv = inv * prefix[i - 1] % P if i else inv
        inv = inv * z % P
        zz = z_inv * z_inv % P
        out[i] = (x * zz % P, y * zz * z_inv % P)
    return out


def _multiples(p: tuple[int, int], count: int) -> list[tuple[int, int]]:
    """[1*p, 2*p, ..., count*p] in affine coordinates."""
    acc = None
    jacobian = []
    for _ in range(count):
        acc = _add_affine(acc, p)
        jacobian.append(acc)
    return _to_affine(jacobian)


@cache
def _g_table() -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row i holds d*16^i*G for d = 1..15; one row per 4-bit digit of k < N."""
    rows = []
    base = G
    for _ in range(64):
        row = _multiples(base, 16)
        rows.append(tuple(row[:15]))
        base = row[15]
    return tuple(rows)


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
