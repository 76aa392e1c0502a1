"""Acceptance suite: one test per criterion, each at its stated tolerance.

Prints one PASS/FAIL line per criterion; the underlying computations live in
bcjacobi.verify so `bcjacobi verify` and this module certify the same thing.
"""

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
