"""secp256k1 scalar multiplication against a reference double-and-add."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from cryptography.hazmat.primitives.asymmetric import ec as openssl_ec
from hypothesis import given, settings
from hypothesis import strategies as st

from rfpop.primitives import ec
from rfpop.primitives.counters import OpCounters, counting
from rfpop.primitives.rng import Rng
from rfpop.primitives.sig import KTimeSigner, _ktime_secret_scalar

SRC = Path(__file__).resolve().parent.parent / "src"
SECP256K1 = openssl_ec.SECP256K1()


def reference_mul(p, k):
    """Affine double-and-add, one inversion per step."""
    k %= ec.N
    result = None
    addend = p
    while k:
        if k & 1:
            result = ec.point_add(result, addend)
        addend = ec.point_add(addend, addend)
        k >>= 1
    return result


# A K-time verifying key's Y: a base other than G that the scheme really uses.
Y_SEED = Rng("test-ec").take_bytes(32)
Y = ec.point_decode(KTimeSigner(Y_SEED, 2).verify_key().data[:64])
Y_SCALAR = _ktime_secret_scalar(Y_SEED)


def random_scalars(seed, count):
    rnd = random.Random(seed)
    return [rnd.randrange(1, ec.N) for _ in range(count)]


def scalar_with_signs(neg1, neg2):
    """The first seeded scalar whose halves k1, k2 have the given signs."""
    rnd = random.Random(f"ec-signs-{neg1}-{neg2}")
    while True:
        k = rnd.randrange(1, ec.N)
        k1, k2 = ec.split_scalar(k)
        if (k1 < 0, k2 < 0) == (neg1, neg2):
            return k


SIGNED_SCALARS = [scalar_with_signs(a, b) for a in (False, True) for b in (False, True)]


def scalar_of_halves(k1, k2):
    """The scalar that `split_scalar` splits into exactly (k1, k2)."""
    k = (k1 + k2 * ec.LAMBDA) % ec.N
    assert ec.split_scalar(k) == (k1, k2)
    return k


def longest_halves(s1, s2):
    """Halves at a corner of the split's rounding cell, just inside it: the
    longest `split_scalar` returns (128 bits; a NAF digit can reach bit 128)."""
    e = Fraction(4999, 10000)
    return round(e * (s1 * ec.A1 + s2 * ec.A2)), round(e * (s1 * ec.B1 + s2 * ec.B2))


# 2^128 - 127*2^120: its width-8 NAF digits are -127 at bit 120 and 1 at bit
# 128, the last bit of G's last block (block 9, step 11).
TOP = (1 << 128) - (127 << 120)
# Halves whose width-8 NAF digits sit on either side of each edge of G's
# 13-bit blocks (bits 13b-1 and 13b for b = 1..9): one digit in each half,
# with both signs, then all nine edges at once; and halves with a width-8
# digit at bit 128.
COMB_EDGE_HALVES = [
    *(((-1) ** b << (13 * b - 1), 1 << (13 * b)) for b in range(1, 10)),
    (-sum(1 << (13 * b) for b in range(1, 10)), sum(1 << (13 * b - 1) for b in range(1, 10))),
    (TOP, 1 << 126),
    (-TOP, -(1 << 126)),
    (1 << 126, TOP),
]
# Halves whose NAF digits sit on either side of each edge of the 33-bit
# blocks of other bases (bits 32/33, 65/66, 98/99), with both signs, the
# halves across G's block edges, and the longest halves of each sign pattern.
EDGE_HALVES = [
    (1 << 32, 1 << 33),
    ((1 << 32) + (1 << 33), (1 << 33) - 1),
    (1 << 65, -(1 << 66)),
    (-((1 << 66) - 1), (1 << 65) + (1 << 66)),
    (1 << 98, 1 << 99),
    (-(1 << 99), -((1 << 98) + (1 << 99))),
    ((1 << 99) - 1, -((1 << 66) - 1)),
    (-((1 << 33) + (1 << 66) + (1 << 99)), (1 << 32) + (1 << 65) + (1 << 98)),
    *COMB_EDGE_HALVES,
    *(longest_halves(s1, s2) for s1 in (1, -1) for s2 in (1, -1)),
]
EDGE_SCALARS = [scalar_of_halves(k1, k2) for k1, k2 in EDGE_HALVES]
COMB_EDGE_SCALARS = [scalar_of_halves(k1, k2) for k1, k2 in COMB_EDGE_HALVES]


@pytest.mark.parametrize("base", [ec.G, Y], ids=["G", "Y"])
def test_matches_reference_on_random_scalars(base):
    for k in random_scalars(f"ec-{base == ec.G}", 6):
        assert ec.point_mul(base, k) == reference_mul(base, k)


@pytest.mark.parametrize("base", [ec.G, Y], ids=["G", "Y"])
def test_small_and_boundary_scalars(base):
    # wNAF digit boundaries, the halves' 2^128 boundary, the bases of G's
    # blocks, k = LAMBDA (k1 = 0), a scalar for each sign pattern of the
    # halves, and halves across each block edge and at their longest.
    for k in (1, 2, 3, 15, 16, 17, 31, 32, 33, 255, 256, (1 << 128) - 1, (1 << 128) + 1,
              1 << 33, 1 << 66, 1 << 99, 1 << 252, 15 << 252, ec.LAMBDA, ec.N - 2, ec.N - 1,
              *SIGNED_SCALARS, *EDGE_SCALARS):
        assert ec.point_mul(base, k) == reference_mul(base, k)


@pytest.mark.parametrize("base", [ec.G, Y], ids=["G", "Y"])
def test_scalars_reduce_mod_n(base):
    assert ec.point_mul(base, 0) is None
    assert ec.point_mul(base, ec.N) is None
    assert ec.point_mul(base, ec.N + 1) == base
    x, y = base
    assert ec.point_mul(base, ec.N - 1) == (x, ec.P - y)


def test_infinity_times_anything_is_infinity():
    assert ec.point_mul(None, 5) is None


def test_multiplication_distributes_over_point_add():
    a, b = random_scalars("ec-sum", 2)
    assert ec.point_add(ec.point_mul(ec.G, a), ec.point_mul(ec.G, b)) == ec.point_mul(ec.G, a + b)
    assert ec.point_add(ec.point_mul(Y, a), ec.point_mul(Y, b)) == ec.point_mul(Y, a + b)


@pytest.mark.parametrize("base,k", [(ec.G, 7), (Y, 7), (ec.G, 0), (None, 3),
                                    pytest.param(Y, SIGNED_SCALARS[3], id="Y-negative-halves")])
def test_each_call_counts_one_point_mul(base, k):
    with counting(OpCounters()) as counters:
        ec.point_mul(base, k)
    assert counters.point_muls == 1


def test_importing_the_cli_leaves_the_g_table_unbuilt():
    """The tables cost milliseconds; `rfpop` start-up must not pay them."""
    code = (
        "import rfpop.app.cli\n"
        "from rfpop.primitives import ec\n"
        "print(ec._g_tables.cache_info().currsize)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "0"


def reference_mul_add(a, q, b):
    return ec.point_add(reference_mul(ec.G, a), reference_mul(q, b))


def negate(point):
    return (point[0], ec.P - point[1])


def test_mul_add_matches_reference_on_random_scalars():
    scalars = random_scalars("ec-mul-add", 8)
    tables = ec.point_tables(Y, 5)
    for a, b in zip(scalars[::2], scalars[1::2]):
        assert ec.point_mul_add(a, Y, b) == reference_mul_add(a, Y, b)
        assert ec.point_mul_add(a, Y, b, tables) == reference_mul_add(a, Y, b)


def test_mul_add_sign_patterns_of_each_split():
    for a in SIGNED_SCALARS:
        for b in SIGNED_SCALARS:
            assert ec.point_mul_add(a, Y, b) == reference_mul_add(a, Y, b)


@pytest.mark.parametrize("a,b", [(0, 0), (0, SIGNED_SCALARS[1]), (SIGNED_SCALARS[2], 0)])
def test_mul_add_zero_scalars(a, b):
    assert ec.point_mul_add(a, Y, b) == reference_mul_add(a, Y, b)
    assert ec.point_mul_add(a, None, b) == reference_mul(ec.G, a)


def test_mul_add_reduces_scalars_mod_n():
    a, b = random_scalars("ec-mul-add-big", 2)
    expected = reference_mul_add(a, Y, b)
    assert ec.point_mul_add(a + ec.N, Y, b + 2 * ec.N) == expected
    assert ec.point_mul_add(ec.N, Y, ec.N) is None


def test_mul_add_reaches_infinity():
    for a in random_scalars("ec-mul-add-inf", 3) + [1, 15, ec.LAMBDA]:
        assert ec.point_mul_add(a, ec.G, ec.N - a) is None


@pytest.mark.parametrize("q", [ec.G, negate(ec.G)], ids=["G", "minus-G"])
def test_mul_add_with_q_at_plus_or_minus_g(q):
    # With q = G an addition can meet the accumulator itself (the doubling
    # branch); with q = -G it can meet its negation (the infinity branch).
    for a, b in [(1, 1), (3, 3), (127, 15), (2, 1), *zip(SIGNED_SCALARS, SIGNED_SCALARS)]:
        assert ec.point_mul_add(a, q, b) == reference_mul_add(a, q, b)


@pytest.mark.parametrize("a,q,b", [(7, Y, 9), (0, Y, 0), (5, None, 3), (3, ec.G, ec.N - 3)])
def test_each_mul_add_counts_two_point_muls(a, q, b):
    with counting(OpCounters()) as counters:
        ec.point_mul_add(a, q, b)
    assert counters.point_muls == 2


def test_longest_halves_reach_the_last_block():
    tops = [max(p for p, _ in ec._wnaf(abs(h), w)) for k1, k2 in EDGE_HALVES[-4:]
            for h in (k1, k2) for w in (5, 8)]
    assert max(tops) == 128  # block 3, step 29 of a 33-bit comb
    assert max(p for p, _ in ec._wnaf(TOP, 8)) == 128  # block 9, step 11 of G's


def test_g_tables_are_ten_blocks_of_13_bits():
    tables, images = ec._g_tables()
    assert len(tables) == len(images) == 10
    for b, (table, image) in enumerate(zip(tables, images)):
        base = reference_mul(ec.G, 2 ** (13 * b))
        assert len(table) == len(image) == 256
        assert table[1] == base and table[-1] == negate(base)
        assert image[1] == (ec.BETA * base[0] % ec.P, base[1])


def test_comb_block_edges_match_reference_and_openssl():
    for k in COMB_EDGE_SCALARS:
        assert ec.point_mul(ec.G, k) == reference_mul(ec.G, k) == openssl_base_mul(k)
        expected = openssl_base_mul(k + k * Y_SCALAR)
        assert ec.point_mul_add(k, Y, k) == reference_mul_add(k, Y, k) == expected


@pytest.mark.parametrize("blocks", [3, 2, 1, 0, -4])
def test_point_tables_refuses_blocks_that_miss_the_walk(blocks):
    """Fewer than 4 blocks are longer than the walk's 33 steps, and 0 or
    fewer blocks cover none of the 130 digits."""
    with pytest.raises(ValueError):
        ec.point_tables(Y, 5, blocks)


def test_block_edge_halves_in_both_scalars_of_mul_add():
    tables = ec.point_tables(Y, 5)
    for a, b in zip(EDGE_SCALARS, EDGE_SCALARS[1:] + EDGE_SCALARS[:1]):
        expected = reference_mul_add(a, Y, b)
        assert ec.point_mul_add(a, Y, b) == expected
        assert ec.point_mul_add(a, Y, b, tables) == expected


def test_products_with_and_without_cached_tables():
    """G's cached width-8 tables, G's width-5 tables built on the call, and
    tables a caller built once at widths 4 and 6, with 4, 6 and 11 blocks,
    all give the reference."""
    g6 = ec.point_tables(ec.G, 6)
    g6_11 = ec.point_tables(ec.G, 6, blocks=11)
    y4 = ec.point_tables(Y, 4)
    y4_6 = ec.point_tables(Y, 4, blocks=6)
    for k in random_scalars("ec-cached", 3) + EDGE_SCALARS[:4] + COMB_EDGE_SCALARS[-3:]:
        expected = reference_mul(ec.G, k)
        assert ec.point_mul(ec.G, k) == expected
        assert ec.point_mul_add(0, ec.G, k) == expected
        assert ec.point_mul_add(0, ec.G, k, g6) == expected
        assert ec.point_mul_add(0, ec.G, k, g6_11) == expected
        assert ec.point_mul_add(k, Y, k, y4) == reference_mul_add(k, Y, k)
        assert ec.point_mul_add(k, Y, k, y4_6) == reference_mul_add(k, Y, k)


def test_base_muls_match_the_reference_and_count_each_product():
    scalars = [*random_scalars("ec-base-muls", 3), 0, ec.N, 1, *COMB_EDGE_SCALARS[:2]]
    with counting(OpCounters()) as counters:
        products = ec.base_muls(scalars)
    assert counters.point_muls == len(scalars)
    assert products == [reference_mul(ec.G, k) for k in scalars]
    assert products[3] is None and products[4] is None
    assert ec.base_muls([]) == []


def test_verify_key_builds_y_tables_once_over_2k_verifies(monkeypatch):
    k = 3
    signer = KTimeSigner(Rng("test-ec-tables").take_bytes(32), k)
    vk = signer.verify_key()
    y = ec.point_decode(vk.data[:64])
    ec._g_tables()
    built = []

    def counted(q, width):
        built.append((q, width))
        return point_tables(q, width)

    point_tables = ec.point_tables
    monkeypatch.setattr(ec, "point_tables", counted)
    for index in range(1, k + 1):
        sig = signer.sign_at(index, b"m%d" % index)
        assert vk.verify(b"m%d" % index, sig)
        assert not vk.verify(b"other", sig)
    assert built == [(y, 5)]


def test_endomorphism_constants():
    assert ec.BETA != 1 and pow(ec.BETA, 3, ec.P) == 1
    assert ec.LAMBDA != 1 and pow(ec.LAMBDA, 3, ec.N) == 1
    assert ec.point_mul(ec.G, ec.LAMBDA) == (ec.BETA * ec.G[0] % ec.P, ec.G[1])
    for a, b in ((ec.A1, ec.B1), (ec.A2, ec.B2)):
        assert (a + b * ec.LAMBDA) % ec.N == 0


def test_split_recombines_into_short_halves():
    for k in random_scalars("ec-split", 200) + [0, 1, ec.N - 1, ec.LAMBDA]:
        k1, k2 = ec.split_scalar(k)
        assert (k1 + k2 * ec.LAMBDA - k) % ec.N == 0
        assert abs(k1) < 1 << 129 and abs(k2) < 1 << 129


def test_wnaf_digits_rebuild_the_scalar():
    for k in random_scalars("ec-wnaf", 50) + [1, 15, 16, 17, 31, 32, 33, (1 << 128) - 1]:
        digits = list(ec._wnaf(k, 5))
        assert sum(d << i for i, d in digits) == k
        nonzero = [i for i, _ in digits]
        assert all(d % 2 and abs(d) < 16 for _, d in digits)
        assert all(b - a >= 5 for a, b in zip(nonzero, nonzero[1:]))
        assert nonzero[-1] <= k.bit_length()


def test_width_8_wnaf_digits_rebuild_the_scalar():
    for k in random_scalars("ec-wnaf8", 50) + [1, 127, 128, 129, 255, 256, (1 << 128) - 1]:
        digits = list(ec._wnaf(k, 8))
        assert sum(d << i for i, d in digits) == k
        nonzero = [i for i, _ in digits]
        assert all(d % 2 and abs(d) < 128 for _, d in digits)
        assert all(b - a >= 8 for a, b in zip(nonzero, nonzero[1:]))
        assert nonzero[-1] <= k.bit_length()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(1, ec.N - 1), st.integers(0, 2 * ec.N))
def test_random_bases_and_scalars_match_reference(base_scalar, k):
    base = ec.point_mul(ec.G, base_scalar)
    assert ec.point_mul(base, k) == reference_mul(base, k)


# -- differential against OpenSSL (through the `cryptography` package) ------

# 46 scalars; each gives four comparisons with OpenSSL.
ORACLE_SCALARS = (random_scalars("ec-openssl", 12)
                  + [1, ec.N - 1, 1 << 33, 1 << 66, 1 << 99, *SIGNED_SCALARS, *EDGE_SCALARS])


def openssl_base_mul(k):
    """k*G from OpenSSL, as an affine pair; None at infinity."""
    k %= ec.N
    if k == 0:
        return None
    numbers = openssl_ec.derive_private_key(k, SECP256K1).public_key().public_numbers()
    return numbers.x, numbers.y


def openssl_x_of_mul(k, q):
    """x(k*q), by ECDH of the private scalar k with the public point q."""
    public = openssl_ec.EllipticCurvePublicNumbers(*q, SECP256K1).public_key()
    secret = openssl_ec.derive_private_key(k, SECP256K1).exchange(openssl_ec.ECDH(), public)
    return int.from_bytes(secret, "big")


def test_products_match_openssl():
    """k*G, x(k*Q) for Q a K-time key's Y and a random point, and
    a*G + b*Q on the random point's tables, against OpenSSL."""
    q_scalar = random_scalars("ec-openssl-q", 1)[0]
    q = openssl_base_mul(q_scalar)
    q_tables = ec.point_tables(q, 5)
    for i, a in enumerate(ORACLE_SCALARS):
        assert ec.point_mul(ec.G, a) == openssl_base_mul(a)
        for base in (Y, q):
            assert ec.point_mul(base, a)[0] == openssl_x_of_mul(a, base)
        b = ORACLE_SCALARS[(i + 7) % len(ORACLE_SCALARS)]
        assert ec.point_mul_add(a, q, b, q_tables) == openssl_base_mul(a + b * q_scalar)
    # a*G + b*Q is infinity when a = -b*q.
    assert ec.point_mul_add(ec.N - q_scalar, q, 1, q_tables) is None
