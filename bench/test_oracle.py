"""Each checker in oracle.py accepts a right result and rejects a corrupted one.

    python3 -m pytest bench/test_oracle.py     (or: python3 bench/test_oracle.py)
"""

import oracle

BASE15_LOCAL = [(3, "I4", 1, 2, 4), (5, "I4", 1, 4, 4)]  # 15A1: N = 15, c = 2 * 4


def test_table_transcription_is_self_consistent():
    for which, table in oracle.TABLES.items():
        fam = oracle.TABLE_FAMILY[which]
        for d, (label, ratio, excluded) in table.items():
            conductor = oracle.label_conductor(label)
            assert oracle.twist_conductor(fam, d) == oracle.factor(conductor), (which, d)
            if ratio:
                primes = set(oracle.BASE_PRIMES[fam]) | set(oracle.factor(d)) | set(oracle.factor(ratio))
                assert set(excluded) == primes, (which, d)
            if oracle.twist_root_number(fam, d) == -1:
                assert ratio == 0, (which, d)


def _published_rows(which):
    rows = []
    for d, (label, ratio, excluded) in oracle.TABLES[which].items():
        factors = tuple(sorted(oracle.factor(oracle.label_conductor(label)).items()))
        rows.append((d, factors, ratio, excluded))
    return rows


def test_check_table():
    assert oracle.check_table(1, _published_rows(1)) == []
    assert oracle.check_table(2, _published_rows(2)) == []
    rows = _published_rows(2)
    i = next(i for i, r in enumerate(rows) if r[0] == 41)
    printed = ((2, 4), (3, 1), (7, 1), (43, 2))  # the erratum as printed
    assert oracle.check_table(2, rows[:i] + [(41, printed) + rows[i][2:]] + rows[i + 1 :])
    bad_ratio = [(d, f, r + 1, e) for d, f, r, e in _published_rows(1)]
    assert oracle.check_table(1, bad_ratio)
    bad_excluded = [(d, f, r, (2, 3) if e else e) for d, f, r, e in _published_rows(1)]
    assert oracle.check_table(1, bad_excluded)
    assert oracle.check_table(1, _published_rows(1)[1:])  # a row missing


def test_check_twist_conductor():
    assert oracle.check_twist_conductor(15, 2, ((2, 6), (3, 1), (5, 1))) == []
    assert oracle.check_twist_conductor(15, 2, ((2, 4), (3, 1), (5, 1)))
    assert oracle.check_twist_conductor(21, 3, ((2, 4), (3, 1), (7, 1)))


def test_check_root_number():
    assert oracle.check_root_number(15, 7, -1, 0) == []
    assert oracle.check_root_number(15, 2, 1, 2) == []
    assert oracle.check_root_number(15, 2, -1, 0)  # chi_D(-N) = +1
    assert oracle.check_root_number(15, 3, -1, 4)  # sign -1 with a nonzero value
    assert oracle.check_root_number(15, 2, 1, -2)  # negative central value


def test_check_ogg_saito():
    assert oracle.check_ogg_saito(BASE15_LOCAL) == []
    assert oracle.check_ogg_saito([(2, "I0*", 4, 2, 8), (3, "I3*", 2, 4, 9)]) == []
    assert oracle.check_ogg_saito([(3, "I4", 1, 2, 5)])
    assert oracle.check_ogg_saito([(2, "III", 5, 2, 5)])


def test_check_local_data():
    a = oracle.BASE_AINVS[15]
    assert oracle.check_local_data(a, a, BASE15_LOCAL, 15, 8) == []
    assert oracle.check_local_data(a, a, BASE15_LOCAL, 45, 8)  # N
    assert oracle.check_local_data(a, a, BASE15_LOCAL, 15, 4)  # Tamagawa product
    assert oracle.check_local_data(a, a, BASE15_LOCAL[:1], 3, 2)  # a prime missing
    assert oracle.check_local_data(a, a, [(3, "I4", 1, 3, 4), (5, "I4", 1, 4, 4)], 15, 12)
    assert oracle.check_local_data(a, a, [(3, "I4", 1, 2, 3), (5, "I4", 1, 4, 4)], 15, 8)
    twist = oracle.twist_short_model(15, -1)  # same c4 and disc, c6 negated
    assert oracle.check_local_data(a, twist, BASE15_LOCAL, 15, 8)


def test_check_torsion():
    a = oracle.BASE_AINVS[15]  # torsion Z/2 x Z/4
    assert oracle.check_torsion(a, 8) == []
    assert oracle.check_torsion(a, 3)
    assert oracle.check_torsion(a, 11)


def _deep_conditions(fam, d, p):
    count = oracle.naive_count(oracle.twist_short_model(fam, d), p)
    a_p = p + 1 - count
    ratio = str(oracle.TABLES[1 if fam == 15 else 2][d][1])
    return a_p, count, [
        ("good_reduction_at_p", {"N": 0}, True),
        ("ordinary_at_p" if a_p % p else "supersingular_trace_zero", {"a_p": a_p}, True),
        ("l_ratio_p_unit", {"ratio": ratio}, True),
        ("reduction_count_prime_to_p", {"count": count}, count % p != 0),
        ("torsion_prime_to_p", {"order": 4}, True),  # E_2 has torsion Z/2 x Z/2
    ]


def test_check_deep_certificate():
    for p in (7, 11):  # supersingular and ordinary at these primes
        a_p, count, conds = _deep_conditions(15, 2, p)
        path = "ordinary" if a_p % p else "supersingular"
        other = "supersingular" if path == "ordinary" else "ordinary"
        assert oracle.check_deep_certificate(15, 2, p, "Applies", path, conds) == []
        assert oracle.check_deep_certificate(15, 2, p, "Applies", other, conds)
        assert oracle.check_deep_certificate(15, 2, p, "DoesNotApply", "n/a", conds[:1])
        fields = ((1, "a_p", a_p + 1), (3, "count", count + 1), (2, "ratio", "3"), (4, "order", 3))
        for i, field, wrong in fields:
            bad = list(conds)
            bad[i] = (bad[i][0], {field: wrong}, bad[i][2])
            assert oracle.check_deep_certificate(15, 2, p, "Applies", path, bad), field
    assert oracle.check_deep_certificate(15, 2, 5, "Applies", path, conds)  # 5 is excluded
    assert oracle.check_deep_certificate(15, 3, 7, "Applies", "n/a", [])  # vanishing row


def test_check_factorize_fault():
    a = (0, 0, 0, -2955086, -798438074)
    cofactor = oracle.trial_division_cofactor(oracle.invariants(a)[6])
    msg = f"ValueError: cofactor {cofactor} out of reach for trial division"
    assert oracle.check_factorize_fault(a, msg) == []
    assert oracle.check_factorize_fault(a, msg.replace(str(cofactor), str(cofactor + 2)))
    assert oracle.check_factorize_fault(a, "RuntimeError: torsion closure exceeded the rational bound")
    assert oracle.check_factorize_fault(oracle.BASE_AINVS[15], msg)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name}: ok")
