import bisect
import marshal
import math
import os
import random
import threading
from types import SimpleNamespace

import pytest

from conftest import exact_count, random_curves
from twistcheck import frobenius
from twistcheck.arith import kronecker, prime_divisors, quad_field_data, sieve_primes
from twistcheck.curves import CurveModel, base_curve, minimal_model, quadratic_twist
from twistcheck.frobenius import (
    BSGS_MIN_P,
    _add,
    _mul,
    _solutions,
    _trace_bsgs,
    _two_torsion_order,
    an_coefficients,
    ap,
    count_points,
)
from twistcheck.local_invariants import ADDITIVE, GOOD, NONSPLIT, SPLIT, NotMinimalAtP, conductor


def naive_count(E: CurveModel, p: int) -> int:
    """Independent O(p^2) oracle on the original long equation."""
    a1, a2, a3, a4, a6 = E.ainvs
    n = 1
    for x in range(p):
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y - (x**3 + a2 * x * x + a4 * x + a6)) % p == 0:
                n += 1
    return n


def euler_product_coefficients(E: CurveModel, n_max: int) -> list[int]:
    """Independent oracle: invert each local factor as a power series and
    multiply the resulting Dirichlet series, never using the a_{p^k} recursion."""
    coeffs = [0] * (n_max + 1)
    coeffs[1] = 1
    disc = E.discriminant
    for p in sieve_primes(n_max):
        a_p = ap(E, p)
        # local factor 1 - a_p T (+ p T^2 at good p); series-invert it
        depth = 1
        while p ** (depth + 1) <= n_max:
            depth += 1
        inv = [1] + [0] * depth
        for k in range(1, depth + 1):
            val = a_p * inv[k - 1]
            if disc % p != 0 and k >= 2:
                val -= p * inv[k - 2]
            inv[k] = val
        new = [0] * (n_max + 1)
        for m in range(1, n_max + 1):
            if coeffs[m] == 0:
                continue
            q = 1
            for k in range(depth + 1):
                if m * q > n_max:
                    break
                new[m * q] += coeffs[m] * inv[k]
                q *= p
        coeffs = new
    return coeffs


class TestAp:
    def test_matches_naive_oracle(self):
        for E in random_curves(10, seed=42):
            disc = E.discriminant
            for p in sieve_primes(100):
                if disc % p == 0:
                    continue
                assert ap(E, p) == p + 1 - naive_count(E, p), (E, p)

    def test_frozen_small_traces(self, x15, x21):
        assert ap(x15, 2) == -1  # counted by hand over F_2
        assert ap(x21, 2) == -1
        assert ap(x15, 11) == -4
        assert ap(x15, 13) == -2

    def test_multiplicative_signs(self, x15):
        kinds = {ld.p: ld.kind for ld in conductor(x15).local_data}
        assert ap(x15, 3) == -1 and kinds[3].endswith("multiplicative")
        assert ap(x15, 5) == 1

    def test_bad_primes_match_naive_count(self):
        # the singular point counts once: split, nonsplit and additive
        # reduction give a_p = 1, -1 and 0
        kinds = set()
        for E in random_curves(60, seed=7, coeff_bound=40):
            M = minimal_model(E)
            for ld in conductor(M).local_data:
                if ld.p <= 200:
                    assert ap(M, ld.p) == ld.p + 1 - naive_count(M, ld.p), (M, ld.p)
                    kinds.add(ld.kind)
        assert kinds == {SPLIT, NONSPLIT, ADDITIVE}

    def test_additive_is_zero(self, x15):
        Y = quadratic_twist(x15, 7)
        (kind,) = [ld.kind for ld in conductor(Y).local_data if ld.p == 7]
        assert ap(Y, 7) == 0 and kind == ADDITIVE

    def test_full_two_torsion_forces_4_divides_count(self, x15):
        for p in sieve_primes(300):
            if p == 2 or 15 % p == 0:
                continue
            assert count_points(x15, p) % 4 == 0

    def test_hasse_bound_sample(self, x15, x21):
        for E in (x15, x21):
            disc = E.discriminant
            for p in sieve_primes(2000):
                if disc % p == 0:
                    continue
                a = ap(E, p)
                assert a * a <= 4 * p

    def test_rejects_nonminimal(self):
        E = CurveModel.from_ainvs((0, 0, 0, 0, 16))
        with pytest.raises(NotMinimalAtP):
            ap(E, 2)

    def test_twist_compatibility(self, x15):
        for d in (5, 7, 11):
            Y = quadratic_twist(x15, d)
            D = quad_field_data(d).D
            for p in sieve_primes(200):
                if (2 * 15 * d) % p == 0:
                    continue
                assert ap(Y, p) == kronecker(D, p) * ap(x15, p), (d, p)


def bsgs_primes(E: CurveModel, limit: int) -> list[int]:
    """Good primes of E from BSGS_MIN_P to limit."""
    disc = E.discriminant
    return [p for p in sieve_primes(limit) if p >= BSGS_MIN_P and disc % p]


class TestBsgs:
    """count_points from BSGS_MIN_P up against the exact O(p) reference."""

    def test_threshold_is_above_mestre_bound(self):
        assert BSGS_MIN_P > 229

    def test_base_curves_every_good_prime(self, x15, x21):
        for E in (x15, x21):
            for p in bsgs_primes(E, 20000):
                assert count_points(E, p) == exact_count(E, p), (E, p)

    def test_random_curves_and_twists_on_a_stride(self, x15, x21):
        curves = [minimal_model(E) for E in random_curves(8, seed=5)]
        curves += [minimal_model(E) for E in random_curves(4, seed=6, coeff_bound=300)]
        curves += [quadratic_twist(x15, d) for d in (-1, 629)] + [quadratic_twist(x21, d) for d in (-3, 1093)]
        for E in curves:
            for p in bsgs_primes(E, 20000)[::40]:
                assert count_points(E, p) == exact_count(E, p), (E, p)

    def test_primes_just_above_the_threshold(self):
        curves = [minimal_model(E) for E in random_curves(12, seed=8)]
        for E in curves:
            c4, c6 = E.c4, E.c6
            for p in bsgs_primes(E, 2 * BSGS_MIN_P)[:6]:
                n = exact_count(E, p)
                assert count_points(E, p) == n, (E, p)
                # E's own model, not its class, over the whole Hasse interval
                assert p + 1 - _trace_bsgs(-27 * c4 % p, -54 * c6 % p, p, 1, 0) == n, (E, p)

    def test_supersingular_primes_of_15a1(self, x15):
        for p in (983, 1303, 4799, 6263, 17231):
            assert exact_count(x15, p) == p + 1
            assert ap(x15, p) == 0

    def test_full_rational_two_torsion(self):
        E = CurveModel.from_ainvs((0, 0, 0, -1, 0))  # y^2 = x^3 - x, supersingular at p = 3 mod 4
        for p in bsgs_primes(E, 6000)[::5]:
            n = count_points(E, p)
            assert n == exact_count(E, p), p
            assert n % 4 == 0 if p % 4 == 3 else n % 8 == 0

    def test_prime_near_a_million(self, x15):
        E = quadratic_twist(x15, 4999)
        p = 999983
        assert E.discriminant % p
        assert count_points(E, p) == exact_count(E, p)

    def test_twist_compatibility_above_1e5(self, x15):
        big = sieve_primes(600000)
        primes = [*big[bisect.bisect(big, 10**5) :][:6], *big[-4:], 109943, 232751]
        for d in (-1, 2, -7, 4999):
            Y = quadratic_twist(x15, d)
            for p in primes:  # chi_D(p) = (d/p) at odd p not dividing d
                assert ap(Y, p) == kronecker(d, p) * ap(x15, p), (d, p)

    def test_solutions_against_brute_force(self):
        # both branches: R of small order (k0, k0 + o, ...) and of large order
        rng = random.Random(11)
        p = 1009
        for _ in range(60):
            a, x = rng.randrange(p), rng.randrange(p)
            f = (x**3 + a * x + 7) % p
            if f == 0:
                continue
            P = (x * f % p, f * f % p)  # on y^2 = x^3 + a f^2 x + 7 f^3
            af = a * f * f % p
            R = _mul(rng.choice((1, 2, 3, 4, 6, 8, 12, 24)), P, af, p)
            count = rng.randrange(1, 130)
            Q = _mul(rng.randrange(count), R, af, p) if rng.random() < 0.8 else _add(R, P, af, p)
            want = [k for k in range(count) if _mul(k, R, af, p) == Q]
            assert list(_solutions(Q, R, count, af, p)) == want


def multiples(P, a: int, p: int) -> list:
    """[0 P, 1 P, ..., (o - 1) P] by repeated _add, o the order of P."""
    out = [None, P]
    while out[-1] is not None:
        out.append(_add(out[-1], P, a, p))
    return out[:-1]


def random_point(rng: random.Random, p: int, y=None):
    """(a, P): P = (x, y) on y^2 = x^3 + a x + b for the b that puts it there,
    the curve nonsingular (the group law never reads b)."""
    while True:
        a, x = rng.randrange(p), rng.randrange(p)
        y = rng.randrange(1, p) if y is None else y
        b = (y * y - x**3 - a * x) % p
        if (4 * a**3 + 27 * b * b) % p:
            return a, (x, y)


class TestJacobianMul:
    """_mul in Jacobian coordinates against repeated affine _add."""

    @pytest.mark.parametrize("p", [233, 1009, 33863])
    def test_against_repeated_addition(self, p):
        rng = random.Random(p)
        for _ in range(3):
            a, P = random_point(rng, p)
            mult = multiples(P, a, p)
            o = len(mult)
            ks = [0, 1, -1, 2, -2, 3, -7, o, -o, 2 * o, o - 1, o + 1, -o - 1, p + 1, -(p + 1)]
            ks += [rng.randrange(-3 * o, 3 * o) for _ in range(30)]
            for k in ks:
                assert _mul(k, P, a, p) == mult[k % o], (p, a, P, k)

    @pytest.mark.parametrize("p", [233, 1009, 33863])
    def test_point_of_order_two(self, p):
        rng = random.Random(p + 2)
        for _ in range(5):
            a, P = random_point(rng, p, y=0)
            assert multiples(P, a, p) == [None, P]
            for k in [*range(-9, 10), 2 * p, 2 * p + 1, -(p + 2)]:
                assert _mul(k, P, a, p) == (P if k % 2 else None), (p, a, P, k)

    @pytest.mark.parametrize("p", [233, 1009, 33863])
    def test_sum_so_far_equal_to_plus_or_minus_p(self, p, monkeypatch):
        # For P of odd order q, the binary digits of q + 2 end in (q + 1) / 2
        # then 1, so the last mixed addition adds P to (q + 1) P = P: the
        # doubling branch.  Those of q end in (q - 1) / 2 then 1, so it adds
        # P to (q - 1) P = -P.
        rng = random.Random(p + 3)
        doubled = []
        monkeypatch.setattr(frobenius, "_add", lambda P, Q, a, p: doubled.append(P == Q) or _add(P, Q, a, p))
        orders = set()
        while len(orders) < 3:
            a, P = random_point(rng, p)
            mult = multiples(P, a, p)
            o = len(mult)
            for q in (q for q in sieve_primes(50)[1:] if o % q == 0):
                Pq = mult[o // q]  # of order q
                doubled.clear()
                assert _mul(q + 2, Pq, a, p) == mult[2 * o // q], (p, a, Pq, q)
                assert doubled == [True]
                assert _mul(q, Pq, a, p) is None and _mul(-q, Pq, a, p) is None
                for k in range(-3 * q, 3 * q + 1):
                    assert _mul(k, Pq, a, p) == mult[o // q * k % o], (p, a, Pq, k)
                orders.add(q)


def two_torsion_curves() -> dict[int, list[CurveModel]]:
    """Seeded curves by the number of integer roots of X^3 - 27 c4 X - 54 c6:
    y^2 = (x - e1)(x - e2)(x - e3), (x - e)(x^2 + u x + v) with u^2 - 4 v not
    a square, and random models with no rational 2-torsion."""
    rng = random.Random(31)
    by_roots: dict[int, list[CurveModel]] = {0: [], 1: [], 3: []}
    while len(by_roots[3]) < 4:
        e1, e2, e3 = rng.sample(range(-30, 31), 3)
        by_roots[3].append(CurveModel.from_ainvs((0, -(e1 + e2 + e3), 0, e1 * e2 + e1 * e3 + e2 * e3, -e1 * e2 * e3)))
    while len(by_roots[1]) < 4:
        e, u, v = rng.randint(-30, 30), rng.randint(-9, 9), rng.randint(-30, 30)
        if u * u - 4 * v < 0 or math.isqrt(u * u - 4 * v) ** 2 != u * u - 4 * v:
            E = CurveModel.from_ainvs((0, u - e, 0, v - e * u, -e * v))
            by_roots[1] += [E] if E.discriminant else []
    by_roots[0] = [E for E in random_curves(30, seed=32) if _two_torsion_order(E.c4, E.c6) == 1][:4]
    return by_roots


class TestTwoTorsionCongruence:
    """BSGS starts from t = p + 1 (mod m), m = #E(Q)[2]: sound and wired in."""

    @pytest.mark.parametrize("roots", [0, 1, 3])
    def test_count_points_on_seeded_curves(self, roots):
        curves = two_torsion_curves()[roots]
        assert len(curves) == 4
        for E in curves:
            m = _two_torsion_order(E.c4, E.c6)
            assert m == 1 + roots
            for p in bsgs_primes(E, 20000)[::60]:
                n = exact_count(E, p)
                assert count_points(E, p) == n and n % m == 0, (E, p)

    def test_count_points_on_family_twists(self, x15, x21):
        for E in (x15, x21):
            for d in (-7, -1, 2, 629, 1093, 4999):
                Y = quadratic_twist(E, d)
                assert _two_torsion_order(Y.c4, Y.c6) == 4
                for p in bsgs_primes(Y, 20000)[::80]:
                    assert count_points(Y, p) == exact_count(Y, p), (d, p)

    def test_first_progression_holds_a_quarter_of_the_hasse_interval(self, x21, monkeypatch):
        counts = []
        monkeypatch.setattr(frobenius, "_solutions", lambda Q, R, count, a, p: counts.append(count) or _solutions(Q, R, count, a, p))
        Y = quadratic_twist(x21, 1093)
        for p in bsgs_primes(Y, 20000)[::150]:
            counts.clear()
            assert count_points(Y, p) == exact_count(Y, p), p
            assert counts and counts[0] <= math.isqrt(4 * p) // 2 + 1, (p, counts)


def good_primes(E: CurveModel, primes) -> list[int]:
    disc = E.discriminant
    return [p for p in primes if disc % p]


# Both regimes of the trace: every odd prime below 600, then a stride to 2 * 10^4.
SHARED_PRIMES = [*sieve_primes(600)[1:], *sieve_primes(20000)[109::50]]


class TestSharedTrace:
    """Quadratic twists of one curve share one trace per prime up to the
    quadratic character; count_points counts each curve on its own, checked
    against the exact O(p) reference and against that relation."""

    def check(self, *curves) -> None:
        for E in curves:
            for p in good_primes(E, SHARED_PRIMES):
                assert count_points(E, p) == exact_count(E, p), (E, p)

    def test_base_curves(self, x15, x21):
        for E in (x15, x21):
            self.check(E)

    @pytest.mark.parametrize("d", [-7, -3, -1, 2, 5, 629, 1093, 4999])
    def test_twist_before_and_after_its_base(self, x15, x21, d):
        for E in (x15, x21):
            Y = quadratic_twist(E, d)
            self.check(Y, E)
            for p in good_primes(Y, good_primes(E, SHARED_PRIMES)):  # odd and prime to d
                assert p + 1 - count_points(Y, p) == kronecker(d, p) * (p + 1 - count_points(E, p)), (d, p)

    def test_random_models(self):
        for E in random_curves(6, seed=21) + random_curves(6, seed=22, coeff_bound=300):
            self.check(minimal_model(E))

    def test_j_0_and_1728_are_counted_directly(self):
        for ainvs in ((0, 0, 1, 0, 0), (0, 0, 0, -1, 0)):  # c4 = 0, c6 = 0
            self.check(CurveModel.from_ainvs(ainvs))

    def test_primes_dividing_c4_c6_and_3(self):
        above = 0
        for E in random_curves(40, seed=23, coeff_bound=300):
            M = minimal_model(E)
            c4, c6 = M.c4, M.c6
            for p in good_primes(M, [3, *(q for q in prime_divisors(c4 * c6 or 1) if 3 < q < 20000)]):
                assert count_points(M, p) == exact_count(M, p), (M, p)
                above += p >= BSGS_MIN_P
        assert above


class TestAnCoefficients:
    def test_normalization(self, x15):
        a = an_coefficients(x15, 10)
        assert a[1] == 1

    def test_good_square_recursion(self, x15):
        a = an_coefficients(x15, 4)
        assert a[4] == a[2] * a[2] - 2  # 2 is a good prime of 15A1

    def test_matches_euler_product_oracle(self, x15, x21):
        # twists by d sharing a prime with the level, and random models, bring
        # additive and multiplicative primes p with p^2 <= n_max
        n_max = 600
        twists = [quadratic_twist(x15, d) for d in (2, 3, 5)] + [quadratic_twist(x21, d) for d in (3, 7)]
        bad_square_traces = set()
        for E in (x15, x21, *twists, *random_curves(8, seed=7, coeff_bound=40)):
            M = minimal_model(E)
            got = an_coefficients(M, n_max)
            want = euler_product_coefficients(M, n_max)
            assert got[1:] == want[1:], M
            bad_square_traces |= {ap(M, ld.p) for ld in conductor(M).local_data if ld.p**2 <= n_max}
        assert bad_square_traces == {-1, 0, 1}

    def test_multiplicativity_spot(self, x15):
        a = an_coefficients(x15, 500)
        assert a[6] == a[2] * a[3]
        assert a[35] == a[5] * a[7]
        assert a[450] == a[2] * a[9] * a[25]

    # The split into shares, forced on small n_max: every share holds at least
    # MIN_SHARE = 10 primes, and k is the patched CPU count.
    N_SPLIT = 600

    @staticmethod
    def split_into(monkeypatch, k: int) -> list[int]:
        """Make an_coefficients split into k shares; the returned list gets
        one entry per fork of the calling process."""
        forks = []
        fork = os.fork
        monkeypatch.setattr(frobenius, "MIN_SHARE", 10)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        return forks

    @pytest.mark.parametrize("k", [1, 2])
    def test_bad_traces_agree_with_ap(self, monkeypatch, k):
        # the series reads bad primes from conductor(M), ap from tate_local;
        # each model here has a bad prime in (7, N_SPLIT]
        curves = [minimal_model(E) for E in random_curves(40, seed=29, coeff_bound=200)]
        curves = [M for M in curves if any(7 < p <= self.N_SPLIT for p in prime_divisors(M.discriminant))][:8]
        assert len(curves) == 8
        if k > 1:
            forks = self.split_into(monkeypatch, k)
        for M in curves:
            a = an_coefficients(M, self.N_SPLIT)
            for p in sieve_primes(self.N_SPLIT):
                assert a[p] == ap(M, p), (M, p)
        assert k == 1 or len(forks) == len(curves)

    @pytest.mark.parametrize("k", [2, 3])
    def test_every_split_gives_the_one_process_list(self, x15, x21, monkeypatch, k):
        curves = [x15, x21, *(quadratic_twist(x15, d) for d in (-7, 629, 1093))]
        curves += [quadratic_twist(x21, d) for d in (-7, 629, 1093)]
        curves += [minimal_model(E) for E in random_curves(6, seed=41, coeff_bound=40)]
        want = [an_coefficients(E, self.N_SPLIT) for E in curves]
        forks = self.split_into(monkeypatch, k)
        for E, a in zip(curves, want):
            forks.clear()
            assert an_coefficients(E, self.N_SPLIT) == a, E
            assert len(forks) == k - 1
        bad = {ld.p for E in curves[-6:] for ld in conductor(minimal_model(E)).local_data}
        assert any(7 < p <= self.N_SPLIT for p in bad)  # the random models bring other bad primes

    def test_a_failing_share_raises_as_in_one_process(self, x15, monkeypatch):
        def fail_at_13(E, p):
            if p == 13:  # primes[5]: share 1 of 2
                raise ArithmeticError(f"no count at p = {p}")
            return count_points(E, p)

        monkeypatch.setattr(frobenius, "count_points", fail_at_13)
        with pytest.raises(ArithmeticError) as one:
            an_coefficients(x15, self.N_SPLIT)
        forks = self.split_into(monkeypatch, 2)
        with pytest.raises(ArithmeticError) as split:
            an_coefficients(x15, self.N_SPLIT)
        assert forks == [1]
        assert type(split.value) is type(one.value) is ArithmeticError
        assert str(split.value) == str(one.value) == "no count at p = 13"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_short_result_is_counted_again(self, x15, monkeypatch):
        want = an_coefficients(x15, self.N_SPLIT)
        forks = self.split_into(monkeypatch, 3)
        short = SimpleNamespace(dumps=lambda traces: marshal.dumps(traces[:-1]), loads=marshal.loads)
        monkeypatch.setattr(frobenius, "marshal", short)
        assert an_coefficients(x15, self.N_SPLIT) == want
        assert forks == [1, 1]

    def test_a_failed_fork_leaves_its_shares_here(self, x15, monkeypatch):
        want = an_coefficients(x15, self.N_SPLIT)
        fds = len(os.listdir("/dev/fd"))
        forks = self.split_into(monkeypatch, 3)
        fork = os.fork

        def fork_once():
            if forks:
                raise BlockingIOError("fork: resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", fork_once)
        assert an_coefficients(x15, self.N_SPLIT) == want
        assert forks == [1]
        assert len(os.listdir("/dev/fd")) == fds

    def test_no_fork_on_one_cpu_without_fork_or_beside_a_thread(self, x15, monkeypatch):
        want = an_coefficients(x15, self.N_SPLIT)

        def no_fork():
            raise AssertionError("an_coefficients forked")

        self.split_into(monkeypatch, 1)
        monkeypatch.setattr(os, "fork", no_fork)
        assert an_coefficients(x15, self.N_SPLIT) == want
        self.split_into(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", no_fork)
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            assert an_coefficients(x15, self.N_SPLIT) == want
        finally:
            done.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        monkeypatch.delattr(os, "fork")
        assert an_coefficients(x15, self.N_SPLIT) == want
