"""secp256k1 scalar multiplication against a reference double-and-add."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from rfpop.primitives import ec
from rfpop.primitives.counters import OpCounters, counting
from rfpop.primitives.rng import Rng
from rfpop.primitives.sig import KTimeSigner

SRC = Path(__file__).resolve().parent.parent / "src"


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
Y = ec.point_decode(KTimeSigner(Rng("test-ec").take_bytes(32), 2).verify_key().data[:64])


def random_scalars(seed, count):
    rnd = random.Random(seed)
    return [rnd.randrange(1, ec.N) for _ in range(count)]


@pytest.mark.parametrize("base", [ec.G, Y], ids=["G", "Y"])
def test_matches_reference_on_random_scalars(base):
    for k in random_scalars(f"ec-{base == ec.G}", 6):
        assert ec.point_mul(base, k) == reference_mul(base, k)


@pytest.mark.parametrize("base", [ec.G, Y], ids=["G", "Y"])
def test_small_and_boundary_scalars(base):
    for k in (1, 2, 15, 16, 17, 255, 256, 1 << 252, 15 << 252):
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


@pytest.mark.parametrize("base,k", [(ec.G, 7), (Y, 7), (ec.G, 0), (None, 3)])
def test_each_call_counts_one_point_mul(base, k):
    with counting(OpCounters()) as counters:
        ec.point_mul(base, k)
    assert counters.point_muls == 1


def test_importing_the_cli_leaves_the_g_table_unbuilt():
    """The table costs tens of milliseconds; `rfpop` start-up must not pay it."""
    code = (
        "import rfpop.app.cli\n"
        "from rfpop.primitives import ec\n"
        "print(ec._g_table.cache_info().currsize)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "0"
