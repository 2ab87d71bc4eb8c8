from __future__ import annotations

import itertools
import random
from fractions import Fraction as Q

import pytest

from conftest import random_ttg
from ocfgames import corpus, fuzzy
from ocfgames.model import GameError

ZERO = Q(0)


def mirror():
    return corpus.two_mirror_game()  # weights (10, 10), tasks (20, 20), (7, 9)


def test_fractional_value_steps():
    g = mirror()
    assert fuzzy.fuzzy_value(g, (ZERO, ZERO)) == 0
    assert fuzzy.fuzzy_value(g, (Q(1, 4), Q(1, 4))) == 0
    assert fuzzy.fuzzy_value(g, (Q(1, 2), Q(1, 2))) == 9
    assert fuzzy.fuzzy_value(g, (Q(7, 10), Q(7, 10))) == 18
    assert fuzzy.fuzzy_value(g, (Q(1), Q(1))) == 20


def test_fractional_value_rejects_out_of_range_rates():
    g = mirror()
    with pytest.raises(GameError):
        fuzzy.fuzzy_value(g, (Q(3, 2), ZERO))
    with pytest.raises(GameError):
        fuzzy.fuzzy_value(g, (Q(-1, 2), ZERO))


def test_fractional_withdrawal_beats_the_even_split():
    g = mirror()
    report = fuzzy.aubin_core_check(g, (Q(10), Q(10)))
    assert not report.holds
    assert report.witness == (Q(7, 10), Q(7, 10))
    assert report.witness_value == 18


def test_every_efficient_split_fails_the_fractional_check():
    g = mirror()
    for a in range(21):
        p = (Q(a), Q(20 - a))
        assert not fuzzy.aubin_core_check(g, p).holds


def test_full_forfeit_check_accepts_the_even_split():
    g = mirror()
    assert fuzzy.f_core_check(g, (Q(10), Q(10))).holds


def test_full_forfeit_check_rejects_underpaying_a_strong_agent():
    g = corpus.two_company_game()
    report = fuzzy.f_core_check(g, (Q(16), Q(14)))
    assert not report.holds
    assert report.witness == (ZERO, Q(1))
    assert report.witness_value == 15


def test_checks_demand_an_efficient_payoff_vector():
    g = mirror()
    with pytest.raises(GameError):
        fuzzy.aubin_core_check(g, (Q(5), Q(5)))
    with pytest.raises(GameError):
        fuzzy.f_core_check(g, (Q(5), Q(5)))


def test_fractional_stability_implies_crisp_stability():
    """Withdrawing a crisp subset is a special fractional withdrawal."""
    rng = random.Random(61)
    seen_stable = 0
    for _ in range(60):
        g = random_ttg(rng, max_n=3, max_total=6)
        total = fuzzy.fuzzy_value(g, (Q(1),) * g.n)
        if total == 0:
            continue
        shares = [Q(rng.randint(0, 3)) for _ in range(g.n)]
        if sum(shares) == 0:
            shares[0] = Q(1)
        p = [total * x / sum(shares) for x in shares]
        aubin = fuzzy.aubin_core_check(g, p)
        crisp = fuzzy.f_core_check(g, p)
        if aubin.holds:
            seen_stable += 1
            assert crisp.holds
    assert seen_stable >= 3


def test_witness_actually_earns_its_claimed_value():
    rng = random.Random(67)
    for _ in range(40):
        g = random_ttg(rng, max_n=3, max_total=6)
        total = fuzzy.fuzzy_value(g, (Q(1),) * g.n)
        if total == 0:
            continue
        p = [total if j == 0 else ZERO for j in range(g.n)]
        report = fuzzy.aubin_core_check(g, p)
        if report.holds:
            continue
        assert fuzzy.fuzzy_value(g, report.witness) == report.witness_value
        paid = sum(
            (r * pj for r, pj in zip(report.witness, p)), ZERO
        )
        assert report.witness_value > paid


def test_report_keeps_no_instance_dict():
    report = fuzzy.f_core_check(mirror(), (Q(10), Q(10)))
    assert not hasattr(report, "__dict__")
    assert report == fuzzy.FuzzyCheckReport(holds=True)
    assert repr(report) == \
        "FuzzyCheckReport(holds=True, witness=None, witness_value=None)"
