import ast
import json
import math
import random
import re
import subprocess
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from primeflow.rotation import (
    ConstructionError,
    RotationNumber,
    _MR_BOUND,
    _is_prime,
    _midpoints,
    _orbit_fill,
    _orbit_loop,
    construct_alpha,
    frac,
    from_partial_quotients,
)


GOLDEN = from_partial_quotients([1] * 12)
PELL = from_partial_quotients([2] * 12)


def test_fibonacci_denominators():
    alpha = from_partial_quotients([1, 1, 1, 1, 1])
    assert alpha.denominators == (1, 2, 3, 5, 8)
    assert abs(alpha.float_value - 0.61803) < 1e-4


def test_pell_denominators():
    alpha = from_partial_quotients([2, 2, 2, 2])
    assert alpha.denominators == (2, 5, 12, 29)
    for n in range(1, 4):
        assert abs(alpha.residual(n)) <= Fraction(1, alpha.q(n + 1))


def test_single_quotient():
    alpha = from_partial_quotients([7])
    assert alpha.denominators == (7,)
    assert 1 / 8 < alpha.float_value < 1 / 7


def test_rejects_bad_quotients():
    with pytest.raises(ValueError):
        from_partial_quotients([])
    with pytest.raises(ValueError, match="^partial quotient must be >= 1, got 0$"):
        from_partial_quotients([1, 0, 2])
    with pytest.raises(ValueError, match="^partial quotient must be >= 1, got -3$"):
        from_partial_quotients([-3])


def test_bracketing_invariant():
    for alpha in (GOLDEN, PELL, from_partial_quotients([1, 3, 2, 7, 1, 1, 5])):
        for n in range(1, alpha.depth):
            d = abs(alpha.residual(n))
            assert Fraction(1, alpha.q(n + 1) + alpha.q(n)) < d <= Fraction(1, alpha.q(n + 1))


@pytest.mark.parametrize("a", [2.5, np.float64(3.9), "2", 2.0, np.int64(2),
                               math.inf, math.nan])
def test_partial_quotients_are_integers(a):
    # an integral float is taken as its integer; anything else, nan and inf
    # included, is named instead of truncated by (or failing in) int()
    shown = a.item() if isinstance(a, np.generic) else a
    if a == 2:
        assert RotationNumber([1, a]).quotients == (1, 2)
        assert all(type(k) is int for k in RotationNumber([1, a]).quotients)
    else:
        with pytest.raises(ValueError, match="^partial quotient must be an "
                           f"integer, got {re.escape(repr(shown))}$"):
            RotationNumber([1, a])


@pytest.mark.parametrize("flag", [1.5, 2.9, -1, 3, 4, 7, math.nan, math.inf,
                                  "1"])
def test_bad_flags_rejected(flag):
    # a flag names a level n in [0, depth), so that q_{n+1} is among the
    # quotients; nothing is truncated by int()
    msg = (f"flags must be integers in [0, depth = 3), got {flag}"
           if isinstance(flag, int) else
           f"flag must be an integer, got {flag!r}")
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        RotationNumber([1, 2, 3], flags=[1, flag])
    assert RotationNumber([1, 2, 3], flags=[2.0, 0, np.int64(1)]).flags == (
        0, 1, 2)


@pytest.mark.parametrize("n", [-1, -2, 6])
def test_index_outside_depth_rejected(n):
    alpha = from_partial_quotients([1, 2, 3, 4, 5])
    for accessor in (alpha.q, alpha.residual):
        with pytest.raises(ValueError, match=f"n = {n} outside \\[0, depth = 5\\]"):
            accessor(n)
    assert (alpha.q(0), alpha.q(5)) == (1, alpha.denominators[-1])


def test_residual_alternation():
    alpha = from_partial_quotients([1, 2, 3, 4, 5])
    signs = [alpha.residual(n) > 0 for n in range(alpha.depth + 1)]
    for a, b in zip(signs, signs[1:]):
        assert a != b
    mags = [abs(alpha.residual(n)) for n in range(alpha.depth + 1)]
    for a, b in zip(mags, mags[1:]):
        assert b < a


def test_orbit_min_distance_examples():
    assert GOLDEN.orbit_min_distance(0.0, 5) == 0.0
    # min(|0.5|, |0.5 + alpha|) with alpha ~ 0.61803
    d = GOLDEN.orbit_min_distance(0.5, 1)
    assert abs(d - 0.1180) < 1e-3
    assert GOLDEN.orbit_min_distance(0.25, 0) == 0.25


def test_orbit_min_distance_matches_enumeration():
    a = GOLDEN.float_value
    for x in (0.3, 0.71, 0.123):
        expected = min(
            min((x + i * a) % 1, 1 - (x + i * a) % 1) for i in range(25)
        )
        assert abs(GOLDEN.orbit_min_distance(x, 24) - expected) < 1e-9


def test_multiple_mod_one():
    # signed_frac is i * alpha mod 1, shifted into [-1/2, 1/2)
    assert GOLDEN.signed_frac(0) == 0.0
    assert abs(GOLDEN.signed_frac(1) - (GOLDEN.float_value - 1.0)) < 1e-15
    v = GOLDEN.signed_frac(5)
    assert abs(v - 0.09017) < 1e-4
    assert abs(v) <= 1 / 8
    for i in range(200):
        r = (i * GOLDEN.value) % 1
        assert GOLDEN.signed_frac(i) == float(r if r < Fraction(1, 2) else r - 1)


def test_multiple_mod_one_additivity():
    deep = from_partial_quotients([1] * 30)
    rng = random.Random(3)
    for _ in range(1000):
        i = rng.randrange(10 ** 6)
        j = rng.randrange(10 ** 6)
        diff = (deep.signed_frac(i + j) - deep.signed_frac(i)
                - deep.signed_frac(j))
        assert abs(diff - round(diff)) < 1e-11


# pnt_reparam's alpha: q_3 = 83523 and q_3 alpha - p_3 = -2.05e-20
REPARAM_ALPHA = construct_alpha("scaled_D", growth=lambda q: q ** 4.0, depth=4,
                                seed=2)


@pytest.mark.parametrize("call, name", [
    (lambda a: a.signed_frac(float(a.q(3))), "i"),  # read 5.15e-12
    (lambda a: a.signed_frac("3"), "i"),
    (lambda a: a.q(1.0), "n"),
    (lambda a: a.residual(np.float64(2.0)), "n"),
    (lambda a: a.orbit(10.0), "n"),
    (lambda a: a.orbit(None), "n"),
], ids=["signed_frac", "signed_frac-str", "q", "residual", "orbit",
        "orbit-none"])
def test_indices_must_be_integers(call, name):
    # an integral float index no longer reduces i P mod Q in float, nor fails
    # in list or slice indexing: it raises, naming the argument
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        call(REPARAM_ALPHA)


def test_numpy_integer_indices_give_the_int_answers():
    # np.int64(q_3) * P used to overflow a C long in signed_frac
    a, q3 = REPARAM_ALPHA, REPARAM_ALPHA.q(3)
    assert q3 == 83523
    assert a.signed_frac(np.int64(q3)) == a.signed_frac(q3)
    assert abs(a.signed_frac(q3) + 2.0548e-20) < 1e-24
    assert a.signed_frac(np.int32(-7)) == a.signed_frac(-7)
    assert type(a.q(np.int64(2))) is int and a.q(np.int64(2)) == a.q(2)
    assert a.residual(np.int64(2)) == a.residual(2)
    assert np.array_equal(a.orbit(np.int64(10), True), a.orbit(10, True))


def test_scaled_d_growth():
    alpha = construct_alpha("scaled_D", growth=lambda q: q * q, depth=4, seed=1)
    qs = [alpha.q(n) for n in range(alpha.depth + 1)]
    for n in alpha.flags:
        assert alpha.q(n + 1) >= alpha.q(n) ** 2
    assert len(qs) == 5


def test_scaled_d_depth_one():
    alpha = construct_alpha("scaled_D", depth=1, seed=3)
    assert alpha.quotients == (3,)
    assert alpha.flags == ()


def test_scaled_c_a_small():
    alpha = construct_alpha("scaled_C_A", growth=lambda q: q * q, depth=3, seed=2)
    # q_2 is an odd prime in [2, 4] -> 3; q_3 is a prime in [4.5, 9] with
    # q_3 = q_1 = 2 (mod 3) -> 5
    assert alpha.q(2) == 3
    assert alpha.q(3) == 5
    assert alpha.q(3) % alpha.q(2) == alpha.q(1) % alpha.q(2)


def test_scaled_c_a_properties():
    import sympy

    alpha = construct_alpha("scaled_C_A", growth=lambda q: q ** 4, depth=4, seed=2)
    for n in range(1, alpha.depth + 1):
        assert sympy.isprime(alpha.q(n))
    for n in range(2, alpha.depth):
        assert alpha.q(n + 1) % alpha.q(n) == alpha.q(n - 1) % alpha.q(n)


def test_scaled_c_a_rejects_composite_seed():
    with pytest.raises(ConstructionError):
        construct_alpha("scaled_C_A", depth=2, seed=4)


def test_construct_alpha_rejects_unknown_mode_and_empty_window():
    with pytest.raises(ValueError, match="^unknown mode 'bogus'$"):
        construct_alpha("bogus")
    # growth(2) = 2 leaves the window [1, 2], where no prime is 1 mod 2
    with pytest.raises(ConstructionError, match="^no prime congruent"):
        construct_alpha("scaled_C_A", growth=lambda q: q, depth=3, seed=2)


def test_sympy_is_never_imported():
    # a fresh interpreter: neither the CLI's import graph nor a scaled_C_A
    # construction (primality by Miller-Rabin) brings sympy in
    script = """
import json, sys
import primeflow.cli
from primeflow.rotation import ConstructionError, construct_alpha
alpha = construct_alpha("scaled_C_A", growth=lambda q: q ** 4.0, depth=4,
                        seed=2)
try:
    construct_alpha("scaled_C_A", depth=2, seed=4)
    rejected = False
except ConstructionError:
    rejected = True
print(json.dumps(["sympy" in sys.modules, list(alpha.quotients), rejected]))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, check=True)
    imported, quotients, rejected = json.loads(proc.stdout)
    assert (imported, rejected) == (False, True)
    # katok_wm's default alpha: scaled_C_A, exponent 4, depth 4, seed 2
    assert quotients == [2, 5, 685, 214074801606]


def test_miller_rabin_matches_sympy():
    import sympy

    rng = random.Random(5)
    ns = list(range(3000)) + [rng.randrange(10 ** 15, 10 ** 24)
                              for _ in range(2000)]
    assert [_is_prime(n) for n in ns] == [sympy.isprime(n) for n in ns]
    # strong pseudoprimes to the bases 2..7, 2..23 and 2..37
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(n)
    assert _is_prime(_MR_BOUND - 2) == sympy.isprime(_MR_BOUND - 2)
    with pytest.raises(ConstructionError):
        _is_prime(_MR_BOUND)


def test_json_roundtrip():
    alpha = construct_alpha("scaled_D", depth=4, seed=2)
    again = RotationNumber.from_json(alpha.to_json())
    assert again.quotients == alpha.quotients
    assert again.flags == alpha.flags
    assert again.value == alpha.value


# Bit lengths of the exact denominator Q, one band per division path of
# RotationNumber.orbit: float64 (Q <= 2^53), long double (Q < 2^62), and the
# bigint loop beyond.
Q_BANDS = ((2, 53), (54, 62), (63, 90))


@st.composite
def alphas_in_band(draw, lo_bits, hi_bits):
    head = draw(st.lists(st.integers(1, 9), max_size=4))
    # Q is affine in the last partial quotient: Q(a) = a * step + base
    q1 = RotationNumber(head + [1]).value.denominator
    q2 = RotationNumber(head + [2]).value.denominator
    step, base = q2 - q1, 2 * q1 - q2
    a_lo = max(1, -(-(2 ** (lo_bits - 1) - base) // step))
    a_hi = (2 ** hi_bits - 1 - base) // step
    assume(a_lo <= a_hi)
    return RotationNumber(head + [draw(st.integers(a_lo, a_hi))])


@pytest.mark.parametrize("bits", Q_BANDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_orbit_matches_bigint_loop(bits, data):
    alpha = data.draw(alphas_in_band(*bits))
    P, Q = alpha.value.numerator, alpha.value.denominator
    assert bits[0] <= Q.bit_length() <= bits[1]
    for _ in range(4):
        backward = data.draw(st.booleans())
        # prefixes of any length read or grow the cache, which _orbit_fill
        # extends from its end; far ranges check that fill on its own
        if data.draw(st.booleans()):
            n = data.draw(st.integers(0, 70000))
            got, want = alpha.orbit(n, backward), _orbit_loop(P, Q, 0, n, backward)
        else:
            lo = data.draw(st.integers(0, 10 ** 15))
            end = lo + data.draw(st.integers(0, 5000))
            got = _orbit_fill(P, Q, lo, np.empty(end - lo), backward)
            want = _orbit_loop(P, Q, lo, end, backward)
        assert np.array_equal(got, want)


def test_orbit_long_double_midpoints():
    # Pell quotients: Q has 54 bits, so plain float64 division of the
    # residues is wrong on most of the q_15 orbit and the long-double
    # quotient lands on a binary64 midpoint a few hundred times
    alpha = from_partial_quotients([2] * 16)
    P, Q = alpha.value.numerator, alpha.value.denominator
    assert Q.bit_length() == 54
    n = alpha.q(15)
    for backward in (False, True):
        assert np.array_equal(alpha.orbit(n, backward),
                              _orbit_loop(P, Q, 0, n, backward))


def _old_midpoint_screen(ld, d):
    """The midpoints of the long-double quotients ld found by comparing ld
    with the long-double mean of d and its neighbour on ld's side."""
    other = np.nextafter(d, np.where(ld > d, np.inf, -np.inf))
    return np.flatnonzero(
        (ld != d) & ((d.astype(np.longdouble) + other) / 2 == ld))


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                    reason="no 64-bit long double significand")
def test_orbit_midpoints_match_the_neighbour_mean_screen():
    # on the Pell q_15 orbit the float64 screen 4 |ld - d| in {spacing(d), 2
    # spacing(d)} also passes about as many quarter points as midpoints; the
    # exact gap test keeps just the midpoints the neighbour-mean screen found
    alpha = from_partial_quotients([2] * 16)
    P, Q = alpha.value.numerator, alpha.value.denominator
    n = alpha.q(15)
    r = np.array([i * P % Q for i in range(n)], dtype=np.int64)
    counts = []
    for res in (r, (Q - r) * (r != 0)):  # forward, backward
        ld = res.astype(np.longdouble) / np.array(Q).astype(np.longdouble)
        d = ld.astype(np.float64)
        got = _midpoints(ld, d)
        assert np.array_equal(got, _old_midpoint_screen(ld, d))
        e = 4.0 * np.abs(ld - d).astype(np.float64)
        screened = (e == np.spacing(d)) | (e == 2.0 * np.spacing(d))
        counts.append((got.size, int(screened.sum())))
    assert counts == [(220, 673), (237, 688)]


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                    reason="no 64-bit long double significand")
def test_orbit_midpoint_just_below_a_power_of_two():
    # r / Q a little below 1/2 - 2^-55, the midpoint of 1/2 - 2^-54 and 1/2,
    # and near enough that the long-double quotient is that midpoint: then
    # d = 1/2 by ties to even, the gap below d is spacing(d) / 2, and the
    # entry is redone to the correctly rounded 1/2 - 2^-54
    m = Fraction(1, 2) - Fraction(1, 2 ** 55)
    rng = random.Random(5)
    for _ in range(2000):  # about one Q in 32 qualifies
        Q = rng.randrange(2 ** 61, 2 ** 62)
        r = math.floor(m * Q)
        ld = (np.array([r]).astype(np.longdouble)
              / np.array([Q]).astype(np.longdouble))
        if ld[0] == np.longdouble(0.5) - np.longdouble(2.0 ** -55):
            break
    else:
        pytest.fail("no quotient on the midpoint")
    d = ld.astype(np.float64)
    assert d[0] == 0.5 and Fraction(r, Q) < m
    assert list(_midpoints(ld, d)) == [0]
    want = np.nextafter(0.5, 0.0)
    assert r / Q == want
    assert _orbit_fill(r, Q, 1, np.empty(1), False)[0] == want
    assert _orbit_loop(r, Q, 1, 2)[0] == want


@pytest.mark.parametrize("alpha", [GOLDEN, PELL], ids=["golden", "pell"])
def test_sorted_orbit_is_the_sorted_orbit(alpha):
    # one memo entry: every call with another (n, backward) sorts anew, and
    # the same one in a row is the same read-only array
    calls = [(10, False), (10, True), (10, False), (300, False), (7, False),
             (300, True), (0, False), (alpha.q(11), True), (300, True)]
    for n, backward in calls:
        got = alpha.sorted_orbit(n, backward)
        assert np.array_equal(got, np.sort(alpha.orbit(n, backward)))
        assert got is alpha.sorted_orbit(np.int64(n), backward)
        assert not got.flags.writeable
    with pytest.raises(ValueError, match="^n must be >= 0, got -1$"):
        alpha.sorted_orbit(-1)


def test_orbit_rejects_bad_range():
    with pytest.raises(ValueError, match="^n must be >= 0, got -1$"):
        GOLDEN.orbit(-1)
    assert GOLDEN.orbit(0).size == 0
    with pytest.raises(ValueError, match="^n must be >= 0, got -1$"):
        GOLDEN.orbit_min_distance(0.3, -1)
    # range() would raise a raw TypeError
    with pytest.raises(ValueError, match=r"^n must be an integer, got 2\.5$"):
        GOLDEN.orbit_min_distance(0.3, 2.5)


def test_orbit_cache_concurrent_growth():
    # more threads than cores grow one cache with frequent thread switches
    alpha = from_partial_quotients([2] * 16)
    P, Q = alpha.value.numerator, alpha.value.denominator
    want = _orbit_loop(P, Q, 0, 40000)
    sizes = [5000 * (k + 1) for k in range(8)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(alpha.orbit, sizes, timeout=60))
            # and the sorted-orbit memo, replaced at nearly every call
            ranked = list(pool.map(alpha.sorted_orbit, sizes + sizes[::-1],
                                   timeout=60))
    finally:
        sys.setswitchinterval(old)
    for n, arr in zip(sizes, got):
        assert np.array_equal(arr, want[:n])
    for n, arr in zip(sizes + sizes[::-1], ranked):
        assert np.array_equal(arr, np.sort(want[:n]))
    assert np.array_equal(alpha.orbit(40000), want)


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


@settings(max_examples=200, deadline=None)
@given(x=arrays(np.float64, st.integers(0, 40),
                elements=st.floats(allow_nan=True, allow_infinity=True)))
@example(x=np.array([0.0]))
@example(x=np.array([-0.0]))
@example(x=np.array([-1e-20]))  # both round up to 1.0
@example(x=np.array([-(2.0 ** -54)]))
@example(x=np.array([5e-324]))
@example(x=np.array([-5e-324]))
@example(x=np.array([2.0 ** 53]))
@example(x=np.array([-(2.0 ** 53)]))
@example(x=np.array([1e308]))
@example(x=np.array([-1e308]))
@example(x=np.array([-3.0]))
@example(x=np.array([np.nan]))
@example(x=np.array([np.inf]))
@example(x=np.array([-np.inf]))
def test_frac_matches_float_mod(x):
    with np.errstate(invalid="ignore"):
        assert _same_bits(frac(x), x % 1.0)
        assert _same_bits(frac(x.reshape(-1, 1)), x.reshape(-1, 1) % 1.0)


@pytest.mark.parametrize("x", [0.25, -0.0, -1e-20, -3.5, 2.0 ** 53])
def test_frac_of_a_scalar(x):
    for arg in (x, np.asarray(x), np.float64(x)):
        got = frac(arg)
        assert np.ndim(got) == 0
        assert _same_bits(float(got), x % 1.0)


# The only float reductions `% 1.0` left in the package: each works on a
# Python scalar, where it costs no more than frac.  Counted per function.
_SCALAR_MOD_SITES = Counter({
    ("experiments.py", "_exp_interval_factorization"): 1,  # config defaults
    ("experiments.py", "_exp_phase_contrast"): 2,
    ("primes.py", "diophantine_gamma2_check"): 1,
    ("primes.py", "CircleInterval.__post_init__"): 1,
    ("roofs.py", "small_derivative_set"): 1,  # one arc start per offset
})


class _ModOneSites(ast.NodeVisitor):
    """Counts the `... % 1.0` of one module per enclosing (class.)function."""

    def __init__(self, module):
        self.module, self.scope, self.found = module, [], Counter()

    def visit_scope(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = visit_scope

    def visit_BinOp(self, node):
        right = node.right
        if (isinstance(node.op, ast.Mod) and isinstance(right, ast.Constant)
                and isinstance(right.value, float) and right.value == 1.0):
            self.found[self.module, ".".join(self.scope)] += 1
        self.generic_visit(node)


def test_array_reductions_use_frac():
    paths = sorted((Path(__file__).parents[1] / "src" / "primeflow").glob("*.py"))
    assert paths
    found = Counter()
    for path in paths:
        visit = _ModOneSites(path.name)
        visit.visit(ast.parse(path.read_text()))
        found += visit.found
    assert found - _SCALAR_MOD_SITES == Counter()
