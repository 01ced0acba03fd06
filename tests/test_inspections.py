import csv
import io
import itertools
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from ordstat import (
    DomainError,
    InspectionPmf,
    SystemConfig,
    exhaustive_inspection_pmf,
    expected_inspections,
    inspection_pmf,
    lambda_coeff,
)
from ordstat.cli import main

TABLE_LEFT = {
    3: Fraction(1, 55),
    4: Fraction(8, 165),
    5: Fraction(14, 165),
    6: Fraction(4, 33),
    7: Fraction(5, 33),
    8: Fraction(28, 165),
    9: Fraction(28, 165),
    10: Fraction(8, 55),
    11: Fraction(1, 11),
}

TABLE_RIGHT = {
    2: Fraction(5, 22),
    3: Fraction(3, 11),
    4: Fraction(5, 22),
    5: Fraction(5, 33),
    6: Fraction(25, 308),
    7: Fraction(5, 154),
    8: Fraction(1, 132),
}


def enumerate_all_below(n, r, j):
    """Exact P{j given components all rank strictly below r} by brute force."""
    hits = 0
    for ranks in itertools.permutations(range(1, n + 1)):
        if all(ranks[i] < r for i in range(j)):
            hits += 1
    return Fraction(hits, factorial(n))


def test_reference_pmf_detect_three_of_twelve():
    pmf = inspection_pmf(SystemConfig(12, 5), 3)
    assert pmf.as_dict() == TABLE_LEFT


def test_reference_pmf_detect_two_of_twelve():
    pmf = inspection_pmf(SystemConfig(12, 7), 2)
    assert pmf.as_dict() == TABLE_RIGHT


def test_reference_expected_values():
    assert expected_inspections(inspection_pmf(SystemConfig(12, 5), 3)) == Fraction(39, 5)
    mean = expected_inspections(inspection_pmf(SystemConfig(12, 7), 2))
    assert mean == Fraction(26, 7)
    assert abs(float(mean) - 3.7143) < 5e-5


def test_lambda_reference_values():
    assert lambda_coeff(SystemConfig(12, 5), 3) == Fraction(1, 55)
    assert lambda_coeff(SystemConfig(2, 2), 1) == Fraction(1, 2)


@pytest.mark.parametrize("n,r,j", [(6, 4, 2), (5, 3, 1), (6, 5, 3)])
def test_lambda_matches_rank_enumeration(n, r, j):
    assert lambda_coeff(SystemConfig(n, r), j) == enumerate_all_below(n, r, j)


def test_lambda_in_unit_interval():
    cfg = SystemConfig(9, 6)
    for j in range(1, cfg.r):
        value = lambda_coeff(cfg, j)
        assert 0 < value <= 1


@pytest.mark.parametrize("j", [0, -1, 4, 9])
def test_lambda_rejects_out_of_range(j):
    with pytest.raises(DomainError):
        lambda_coeff(SystemConfig(9, 4), j)


def test_pmf_rejects_bad_detection_targets():
    cfg = SystemConfig(8, 3)
    for k in [0, 3, 5, -1]:
        with pytest.raises(DomainError):
            inspection_pmf(cfg, k)


def test_pmf_normalization_and_nonnegativity_sweep():
    for n in range(2, 26):
        for r in range(2, n + 1):
            cfg = SystemConfig(n, r)
            for k in range(1, r):
                pmf = inspection_pmf(cfg, k)
                assert sum(pmf.probs) == 1
                assert all(p >= 0 for p in pmf.probs)
                assert pmf.support == tuple(range(k, n - r + k + 2))


def test_expected_value_is_negative_hypergeometric_mean():
    for n in range(2, 30):
        for r in range(2, n + 1):
            cfg = SystemConfig(n, r)
            for k in range(1, r):
                assert expected_inspections(inspection_pmf(cfg, k)) == Fraction(k * (n + 1), r)


def test_expected_value_within_support_bounds():
    for n, r, k in [(6, 4, 2), (10, 2, 1), (12, 12, 5), (25, 13, 7)]:
        pmf = inspection_pmf(SystemConfig(n, r), k)
        mean = expected_inspections(pmf)
        assert k <= mean <= n - r + k + 1


def test_system_with_r_equal_n_has_two_point_support():
    # with r = n every component but the sample maximum counts as failed
    n = 4
    pmf = inspection_pmf(SystemConfig(n, n), n - 1)
    assert pmf.support == (n - 1, n)
    assert pmf.prob(n - 1) == Fraction(1, n)
    assert pmf.prob(n) == Fraction(n - 1, n)


def test_pmf_prob_off_support_is_zero():
    pmf = inspection_pmf(SystemConfig(12, 5), 3)
    assert pmf.prob(2) == 0
    assert pmf.prob(12) == 0
    assert pmf.prob(-1) == 0  # a non-integer such as 2.5 raises, see test_arguments


def test_pmf_prob_takes_an_integer_value_as_the_int():
    pmf = inspection_pmf(SystemConfig(12, 5), 3)
    for m in pmf.support:
        for value in (float(m), np.float64(m), np.int64(m)):
            got = pmf.prob(value)
            assert type(got) is Fraction and got == pmf.prob(m)


def test_pmf_validation_rejects_inconsistent_inputs():
    cfg = SystemConfig(6, 4)
    good = inspection_pmf(cfg, 2)
    with pytest.raises(DomainError):
        InspectionPmf(cfg, 2, good.support, good.probs[:-1])
    with pytest.raises(DomainError):
        InspectionPmf(cfg, 2, (3, 4, 5), good.probs)
    broken = (Fraction(1, 2),) * len(good.support)
    with pytest.raises(DomainError):
        InspectionPmf(cfg, 2, good.support, broken)


def test_pmf_stores_list_arguments_as_tuples():
    cfg = SystemConfig(6, 4)
    good = inspection_pmf(cfg, 2)
    pmf = InspectionPmf(cfg, 2, list(good.support), list(good.probs))
    assert type(pmf.support) is type(pmf.probs) is tuple
    assert pmf == good and hash(pmf) == hash(good)
    assert InspectionPmf(cfg, 2, [2, 3, 4, 5], good.probs).support == (2, 3, 4, 5)
    with pytest.raises(DomainError, match=r"support must be m = 2\.\.5, got \(3, 4, 5\)"):
        InspectionPmf(cfg, 2, [3, 4, 5], good.probs)
    with pytest.raises(DomainError, match="must be sequences"):
        InspectionPmf(cfg, 2, 5, good.probs)


@pytest.mark.parametrize("n,r,k", [(12, 5, 3), (12, 7, 2), (6, 6, 5), (150, 40, 20)])
def test_library_pmf_equals_the_pmf_built_from_its_fractions(n, r, k):
    cfg = SystemConfig(n, r)
    built = [inspection_pmf(cfg, k)] + ([exhaustive_inspection_pmf(cfg, k)] if n <= 20 else [])
    for pmf in built:
        public = InspectionPmf(cfg, k, pmf.support, pmf.probs)
        assert public == pmf and hash(public) == hash(pmf) and repr(public) == repr(pmf)
        assert expected_inspections(public) == expected_inspections(pmf) == Fraction(k * (n + 1), r)


# integer weights over C(6, 3) = 20 on the support 2..5 of (n, r, k) = (6, 4, 2),
# whose law is (4, 6, 6, 4)
@pytest.mark.parametrize("nums,message", [
    ((8, -2, 8, 6), "probabilities must be nonnegative"),
    ((4, 6, 6, 5), "probabilities must sum to exactly 1"),
    ((4, 6, 6, 3), "probabilities must sum to exactly 1"),
    ((4, 6, 10), "one probability per support point required"),
])
def test_bad_weights_raise_the_same_error_through_both_constructors(nums, message):
    cfg = SystemConfig(6, 4)
    support = tuple(cfg.detection_support(2))
    with pytest.raises(DomainError) as public:
        InspectionPmf(cfg, 2, support, [Fraction(num, 20) for num in nums])
    with pytest.raises(DomainError) as private:
        InspectionPmf._from_weights(cfg, 2, support, nums, 20)
    assert str(public.value) == str(private.value) == message


def test_csv_emission_format(capsys):
    pmf = inspection_pmf(SystemConfig(12, 5), 3)
    assert main(["inspections", "--n", "12", "--r", "5", "--k", "3"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["m", "prob_numerator", "prob_denominator", "prob_decimal"]
    assert rows[1] == ["3", "1", "55", "0.018182"]
    assert rows[-1] == ["11", "1", "11", "0.090909"]
    emitted = {int(m): Fraction(int(num), int(den)) for m, num, den, _ in rows[1:]}
    assert emitted == pmf.as_dict()
    for _, num, den, dec in rows[1:]:
        assert dec == f"{int(num) / int(den):.6f}"


def naive_mean(pmf):
    """The mean as a Fraction sum, one term at a time."""
    return sum((m * p for m, p in zip(pmf.support, pmf.probs)), start=Fraction(0))


def test_expected_value_is_the_naive_sum_for_every_small_system():
    triples = 0
    for n in range(2, 40):
        for r in range(2, n + 1):
            cfg = SystemConfig(n, r)
            for k in range(1, r):
                pmf = inspection_pmf(cfg, k)
                mean = expected_inspections(pmf)
                assert mean == naive_mean(pmf) == Fraction(k * (n + 1), r)
                triples += 1
    assert triples == 9880


def test_expected_value_over_unequal_denominators():
    cfg = SystemConfig(6, 4)
    support = tuple(cfg.detection_support(2))
    # denominators 6, 10, 15 and 3, none of them their lcm 30
    probs = (Fraction(1, 6), Fraction(1, 10), Fraction(1, 15), Fraction(2, 3))
    pmf = InspectionPmf(cfg, 2, support, probs)
    assert expected_inspections(pmf) == naive_mean(pmf) == Fraction(127, 30)


@pytest.mark.parametrize("sign", [1, -1])
def test_pmf_rejects_a_sum_off_one_by_a_tiny_amount(sign):
    cfg = SystemConfig(6, 4)
    good = inspection_pmf(cfg, 2)
    probs = (good.probs[0] + sign * Fraction(1, 10**40),) + good.probs[1:]
    with pytest.raises(DomainError, match="sum to exactly 1"):
        InspectionPmf(cfg, 2, good.support, probs)


def test_pmf_rejects_float_probabilities():
    cfg = SystemConfig(3, 3)
    with pytest.raises(DomainError, match="exact rationals"):
        InspectionPmf(cfg, 1, (1, 2), (0.5, 0.5))


def test_pmf_rejects_a_negative_probability():
    cfg = SystemConfig(3, 3)
    with pytest.raises(DomainError, match="must be nonnegative"):
        InspectionPmf(cfg, 1, (1, 2), (Fraction(3, 2), Fraction(-1, 2)))  # sums to 1
