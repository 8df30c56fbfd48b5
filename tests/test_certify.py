import json

import pytest

from twistcheck.arith import is_squarefree, sieve_primes
from twistcheck.certify import (
    APPLIES,
    DOES_NOT_APPLY,
    UNDETERMINED_VERDICT,
    admissible_primes,
    certificate_json_dict,
    check_theorem,
    deep_certificate,
    reproduce_table,
    table_row_json_dict,
)
from twistcheck.curves import Family
from twistcheck.tabledata import TABLE1, TABLE2


class TestCheckTheorem:
    def test_applies(self):
        cert = check_theorem("15", 2, 7)
        assert cert.verdict == APPLIES
        assert [c.name for c in cert.conditions] == [
            "d_squarefree_gt_1",
            "d_not_5",
            "coprimality_branch",
            "p_prime_outside_base",
            "l_ratio_p_unit",
        ]

    def test_d5_excluded_for_level_15(self):
        cert = check_theorem("15", 5, 11)
        assert cert.verdict == DOES_NOT_APPLY
        assert [c.name for c in cert.conditions if not c.passed] == ["d_not_5"]

    def test_d5_fine_for_level_21(self):
        assert check_theorem("21", 5, 11).verdict == APPLIES

    def test_structural_failures_are_data(self):
        assert check_theorem("15", 12, 7).verdict == DOES_NOT_APPLY  # not squarefree
        assert check_theorem("15", 2, 8).verdict == DOES_NOT_APPLY  # p not prime
        assert check_theorem("21", 14, 11).verdict == DOES_NOT_APPLY  # 7 | d
        assert check_theorem("15", 15, 7).verdict == DOES_NOT_APPLY  # both gcd branches fail
        # p = 1, 0 and -7 stop at a structural condition, before any valuation
        outside = "p_prime_outside_base"
        for p, failing in ((1, outside), (0, "coprimality_branch"), (-7, outside)):
            cert = check_theorem("15", 2, p)
            assert cert.verdict == DOES_NOT_APPLY
            assert [c.name for c in cert.conditions if not c.passed] == [failing], p

    def test_nonunit_ratio_fails(self):
        # d = 3 twist of 15A1 has vanishing L-value: the unit condition is the
        # sole failure for any structurally admissible p
        cert = check_theorem("15", 3, 7)
        assert cert.verdict == DOES_NOT_APPLY
        assert [c.name for c in cert.conditions if not c.passed] == ["l_ratio_p_unit"]
        # p dividing d fails the coprimality branch, not the unit condition
        cert = check_theorem("15", 19, 19)
        assert cert.verdict == DOES_NOT_APPLY
        assert [c.name for c in cert.conditions if not c.passed] == ["coprimality_branch"]

    def test_equivalent_formulation_agrees_level_15(self):
        for d in (2, 3, 6, 17, 21, 35):
            for p in (7, 11, 13, 17):
                cert = check_theorem("15", d, p)
                if "equiv_formulation" in cert.extras:
                    assert cert.extras["equiv_formulation"]["agrees"], (d, p)

    def test_printed_variant_discrepancy_recorded(self):
        # level-21 variant as printed excludes p = 5 spuriously
        cert = check_theorem("21", 3, 5)
        assert cert.verdict == APPLIES
        assert cert.extras["equiv_formulation"]["agrees"] is True
        assert cert.extras["printed_variant"]["verdict"] is False
        assert cert.extras["printed_variant"]["agrees"] is False


class TestDeepCertificate:
    def test_15_2_7(self):
        cert = deep_certificate("15", 2, 7)
        assert cert.verdict == APPLIES
        assert cert.path == "supersingular"  # a_7 of the twist vanishes
        names = [c.name for c in cert.conditions]
        assert names == [
            "good_reduction_at_p",
            "supersingular_trace_zero",
            "mod_p_image_surjective",
            "l_ratio_p_unit",
            "tamagawa_prime_to_p",
        ]
        assert all(c.passed for c in cert.conditions)
        assert all(c.evidence is not None for c in cert.conditions)

    def test_ordinary_path(self):
        cert = deep_certificate("15", 2, 11)
        assert cert.verdict == APPLIES
        assert cert.path == "ordinary"
        names = [c.name for c in cert.conditions]
        assert "reduction_count_prime_to_p" in names and "torsion_prime_to_p" in names
        torsion = next(c for c in cert.conditions if c.name == "torsion_prime_to_p")
        assert torsion.evidence["order"] in (4, 8, 16)  # 2-group: odd p passes for free

    def test_shallow_failure_short_circuits(self):
        cert = deep_certificate("15", 5, 11)
        assert cert.verdict == DOES_NOT_APPLY
        assert cert.path == "n/a"

    def test_undetermined_propagates(self, monkeypatch):
        from twistcheck import certify
        from twistcheck.torsion_galois import GaloisImageVerdict

        def fake_image(E, l):
            return GaloisImageVerdict(l, "Undetermined", ())

        monkeypatch.setattr(certify, "mod_l_image", fake_image)
        cert = certify.deep_certificate("15", 2, 7)
        assert cert.verdict == UNDETERMINED_VERDICT

    @pytest.mark.parametrize("fam", ["15", "21"])
    def test_agrees_with_check_theorem(self, fam):
        for d in range(-3, 61):
            for p in range(-2, 61):
                shallow, deep = check_theorem(fam, d, p), deep_certificate(fam, d, p)
                if shallow.verdict == APPLIES:
                    assert deep.extras == shallow.extras, (d, p)
                else:
                    assert deep == shallow, (d, p)

    def test_squarefree_checked_once_per_twist(self, monkeypatch):
        from twistcheck import certify, curves

        calls = {"certify": 0, "curves": 0}
        for name, module in (("certify", certify), ("curves", curves)):

            def counted(n, name=name, original=module.is_squarefree):
                calls[name] += 1
                return original(n)

            monkeypatch.setattr(module, "is_squarefree", counted)
        certify._d_conditions.cache_clear()
        certify._twist.cache_clear()
        certs = [deep_certificate("15", 2, p) for p in sieve_primes(100)]
        assert sum(c.verdict == APPLIES for c in certs) > 0  # the twist was built
        assert calls == {"certify": 1, "curves": 1}

    def test_sweep_nonzero_rows(self):
        for fam, rows in (("15", TABLE1), ("21", TABLE2)):
            for row in rows:
                if row.lratio == 0:
                    continue
                excluded, _ = admissible_primes(fam, row.d)
                for p in sieve_primes(100):
                    if p < 11 or p in excluded:
                        continue
                    cert = deep_certificate(fam, row.d, p)
                    assert cert.verdict == APPLIES, (fam, row.d, p)


class TestAdmissiblePrimes:
    @pytest.mark.parametrize(
        "fam,d,expect",
        [
            ("15", 17, {2, 3, 5, 17}),
            ("21", 22, {2, 3, 7, 11}),
            ("15", 35, {2, 3, 5, 7}),
        ],
    )
    def test_excluded_sets(self, fam, d, expect):
        excluded, desc = admissible_primes(fam, d)
        assert set(excluded) == expect
        assert desc.startswith("p not in")

    def test_vanishing_rows_have_none(self):
        excluded, desc = admissible_primes("15", 3)
        assert excluded == frozenset() and desc == "none"

    def test_invalid_d_rejected(self):
        with pytest.raises(ValueError):
            admissible_primes("15", 5)
        with pytest.raises(ValueError):
            admissible_primes("21", 21)
        with pytest.raises(ValueError):
            admissible_primes("15", 12)

    def test_matches_both_tables(self):
        for fam, rows in (("15", TABLE1), ("21", TABLE2)):
            for row in rows:
                if row.lratio == 0:
                    assert row.excluded is None
                    continue
                excluded, _ = admissible_primes(fam, row.d)
                assert tuple(sorted(excluded)) == row.excluded, (fam, row.d)

    @pytest.mark.parametrize("fam", [Family.X15, Family.X21])
    def test_characterizes_check_theorem(self, fam):
        # the theorem applies at p <= 100 exactly outside the excluded set,
        # never when the ratio vanishes, and never for a d that admissible
        # primes refuses, which is exactly a d failing a condition on d alone
        q = fam.odd_level_primes[1]
        for d in range(2, 201):
            d_ok = (
                is_squarefree(d)
                and (d != 5 if fam is Family.X15 else d % 7 != 0)
                and (d % 3 != 0 or d % q != 0)
            )
            if not d_ok:
                with pytest.raises(ValueError, match=f"d = {d} "):
                    admissible_primes(fam, d)
                assert all(check_theorem(fam, d, p).verdict != APPLIES for p in sieve_primes(100)), d
                continue
            excluded, desc = admissible_primes(fam, d)
            for p in sieve_primes(100):
                applies = desc != "none" and p not in excluded
                assert (check_theorem(fam, d, p).verdict == APPLIES) == applies, (d, p)


class TestReproduceTable:
    def test_table_1_all_rows_match(self):
        report = reproduce_table(1)
        assert len(report.rows) == 23
        assert report.all_match

    def test_table_2_all_rows_match_with_erratum(self):
        report = reproduce_table(2)
        assert len(report.rows) == 22
        assert report.all_match
        row41 = next(r for r in report.rows if r.row.d == 41)
        assert row41.row.erratum is not None
        assert row41.computed_factors == ((3, 1), (7, 1), (41, 2))

    def test_deterministic_output(self):
        a = [json.dumps(table_row_json_dict(1, r)) for r in reproduce_table(1).rows]
        b = [json.dumps(table_row_json_dict(1, r)) for r in reproduce_table(1).rows]
        assert a == b

    def test_certificate_json_shape(self):
        cert = check_theorem("21", 5, 11)
        obj = certificate_json_dict(cert)
        assert list(obj) == ["family", "d", "p", "verdict", "path", "conditions", "extras"]
        assert obj["family"] == "X21"
        json.dumps(obj)  # must be serializable
