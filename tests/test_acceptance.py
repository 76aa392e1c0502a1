"""Acceptance suite: one test per criterion, each at its stated tolerance.

Prints one PASS/FAIL line per criterion; the underlying computations live in
bcjacobi.verify so `bcjacobi verify` and this module certify the same thing.
"""

import time
from dataclasses import replace

import numpy as np

from bcjacobi import verify


def _run(check):
    res = check()
    print(f"\nACCEPTANCE {res.name}: {'PASS' if res.passed else 'FAIL'} ({res.detail})")
    assert res.passed, f"{res.name}: {res.detail}"


def test_criterion_01_free_identity():
    # response (1, 0, ..., 0) and C^N = I to 1e-12 for N <= 50, under 1 s
    res = verify.check_free_identity()
    print(f"\nACCEPTANCE {res.name}: {'PASS' if res.passed else 'FAIL'} ({res.detail})")
    assert res.passed and res.elapsed < 1.0


def test_criterion_02_discrete_roundtrip():
    # 100 random well-conditioned specs, coefficients to 1e-8, under 10 s
    res = verify.check_discrete_roundtrip()
    print(f"\nACCEPTANCE {res.name}: {'PASS' if res.passed else 'FAIL'} ({res.detail})")
    assert res.passed


def test_discrete_roundtrip_fails_on_one_nan_error(monkeypatch):
    # a NaN coefficient error on one admitted draw fails the check: the running
    # worst propagates it, where Python's max kept the last finite value
    roundtrip, admitted = verify.roundtrip_report, []

    def one_nan(spec, T):
        rep = roundtrip(spec, T)
        if rep.min_scaled_pivot < 1e-4:
            return rep
        admitted.append(T)
        return replace(rep, coeff_error=np.nan) if len(admitted) == 3 else rep

    monkeypatch.setattr(verify, "roundtrip_report", one_nan)
    res = verify.check_discrete_roundtrip()
    assert len(admitted) == 100 and not res.passed and np.isnan(res.metrics["worst"]["value"])


def test_criterion_03_gram_identities():
    _run(verify.check_gram_identities)


def test_criterion_04_spectral_representations():
    _run(verify.check_spectral_representations)


def test_criterion_05_moment_bridge():
    _run(verify.check_moment_bridge)


def test_criterion_06_complex_counterexample():
    _run(verify.check_complex_counterexample)


def test_criterion_07_toda():
    # closed form 1e-10, oracle 1e-6, conservation 1e-8, under 30 s
    res = verify.check_toda()
    print(f"\nACCEPTANCE {res.name}: {'PASS' if res.passed else 'FAIL'} ({res.detail})")
    assert res.passed and res.elapsed < 30.0


def test_criterion_07_toda_integrates_once(monkeypatch):
    # one QR-flow call per (block, time): the four random blocks at four times each
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return oracle(*args, **kwargs)

    oracle = verify.toda_qr_flow
    monkeypatch.setattr(verify, "toda_qr_flow", counting)
    res = verify.check_toda()
    assert [(s.n, t) for s, t in calls] == [(n, t) for n in (2, 4, 6, 8) for t in (-2.0, -0.6, 0.5, 2.0)]
    assert res.passed and res.detail == (
        "closed form 2.22e-16, oracle 1.44e-15, moment route 3.69e-09, "
        "eigenvalues 8.88e-16, trace 1.44e-15, recursion 9.14e-09"
    )


def test_criterion_08_weyl():
    _run(verify.check_weyl)


def test_criterion_09_debranges():
    _run(verify.check_debranges)


def test_criterion_10_continuous_time():
    _run(verify.check_continuous_time)


def test_criterion_11_string_trends():
    # monotone pairing improvement over N in {25, 50, 100, 200}, under 60 s
    res = verify.check_string_trends()
    print(f"\nACCEPTANCE {res.name}: {'PASS' if res.passed else 'FAIL'} ({res.detail})")
    assert res.passed and res.elapsed < 60.0


def test_criterion_12_graph_wave():
    _run(verify.check_graph_wave)


def test_figure_rule_at_its_edges():
    # a figure passes iff low <= value <= bound: the bound itself passes, the
    # next float past it fails, and NaN fails whatever its bounds
    def passes(value, bound, low=None):
        return verify._result("edge", time.perf_counter(), f=verify._bounded(value, bound, low)).passed

    assert passes(1e-12, 1e-12) and not passes(np.nextafter(1e-12, 1.0), 1e-12)
    assert passes(0.0, 0.0) and not passes(5e-324, 0.0)
    assert not passes(np.nan, 1e-12) and not passes(np.nan, np.inf, low=-np.inf)
    assert passes(3.5, 4.5, low=3.5) and not passes(np.nextafter(3.5, 0.0), 4.5, low=3.5)
    assert passes(4.5, 4.5, low=3.5) and not passes(np.nextafter(4.5, 5.0), 4.5, low=3.5)
    # one figure out of bounds fails the check; detail and metrics read off the same figures
    res = verify._result("edge", time.perf_counter(), exact_zero=verify._bounded(0, 0), over=verify._bounded(2, 1))
    assert not res.passed and res.detail == "exact zero 0.00e+00, over 2.00e+00"
    assert res.metrics == {
        "exact_zero": {"value": 0.0, "bound": 0.0, "margin": None},
        "over": {"value": 2.0, "bound": 1.0, "margin": 0.5},
    }
