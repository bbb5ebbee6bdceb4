"""Radius-formula tests: recursion, closed form, corollaries, conversions."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from sepball import ballbounds, certify, nmr


def test_bipartite_base_case():
    assert ballbounds.recursion_radius((2, 2)) == 1.0
    assert ballbounds.recursion_radius((3, 5)) == 1.0


def test_tripartite_qubits():
    assert ballbounds.recursion_radius((2, 2, 2)) == pytest.approx(
        math.sqrt(4.0 / 5.0), abs=1e-15
    )


def test_four_qubits():
    # [DERIVED] third recursion step: a^2 = (4/5)*4 / (2*(1-1/10)+1) = 4/7
    assert ballbounds.recursion_radius((2, 2, 2, 2)) == pytest.approx(
        math.sqrt(4.0 / 7.0), abs=1e-14
    )


def test_recursion_order_sensitivity():
    # the fold is defined left to right; permuted dims may differ
    # [DERIVED] (2,3,4): 4/(2*(5/6)*3+1) = 2/3; (4,3,2): 2/(2*(11/12)+1) = 12/17
    a = ballbounds.recursion_radius((2, 3, 4))
    b = ballbounds.recursion_radius((4, 3, 2))
    assert a == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-14)
    assert b == pytest.approx(math.sqrt(12.0 / 17.0), abs=1e-14)
    assert a != b


def test_closed_form_matches_recursion_grid():
    for d0 in range(2, 7):
        for m in range(2, 13):
            rec = ballbounds.recursion_radius((d0,) * m)
            cf = ballbounds.closed_form_radius(d0, m)
            assert abs(rec - cf) <= 1e-12 * cf


def test_closed_form_three_qutrits():
    # [DERIVED] sqrt(27 / (5 * 8 + 1)) = sqrt(27/41)
    assert ballbounds.closed_form_radius(3, 3) == pytest.approx(
        math.sqrt(27.0 / 41.0), abs=1e-14
    )


def test_log_closed_form_large_m():
    # qubits: r_m = sqrt(2^m / (3^(m-1) + 1)); check the log form at m = 200
    m = 200
    want = 0.5 * (m * math.log(2.0) - math.log(3.0) * (m - 1))
    got = ballbounds.log_closed_form_radius(2, m)
    assert got == pytest.approx(want, abs=1e-12)


def test_qubit_asymptotic_exponent():
    g = ballbounds.qubit_asymptotic_exponent()
    assert g == pytest.approx(0.29248125, abs=1e-8)
    # rescaled radius increases monotonically toward sqrt(3)
    vals = [
        math.exp(ballbounds.log_closed_form_radius(2, m) + g * m * math.log(2.0))
        for m in (5, 10, 20, 40)
    ]
    assert all(x < y for x, y in zip(vals, vals[1:]))
    assert abs(vals[-1] - math.sqrt(3.0)) < 1e-12


def test_closed_form_exponent_by_local_dimension():
    # r_m ~ C·2^(-γ(d0)·m) with γ(d0) = ½·log2((2d0 - 1)/d0): the qubit γ at
    # d0 = 2, rising toward the earlier exponent ½ as d0 grows
    m = 400

    def exponent(d0):
        step = ballbounds.log_closed_form_radius(d0, m + 1) - ballbounds.log_closed_form_radius(d0, m)
        return -step / math.log(2.0)

    gammas = [exponent(d0) for d0 in range(2, 9)]
    for d0, g in zip(range(2, 9), gammas):
        assert abs(g - 0.5 * math.log2((2 * d0 - 1) / d0)) < 1e-9
    assert gammas[0] == pytest.approx(ballbounds.qubit_asymptotic_exponent(), abs=1e-12)
    assert all(x < y < 0.5 for x, y in zip(gammas, gammas[1:]))
    assert 0.5 - 1e-3 < exponent(1000) < 0.5


def test_weak_radius_below_recursion():
    for d0 in (2, 3, 4):
        for m in (3, 5, 8):
            assert ballbounds.weak_radius(d0, m) <= ballbounds.closed_form_radius(
                d0, m
            ) + 1e-15


def test_gb03_baseline():
    assert ballbounds.gb03_baseline(2) == 1.0
    assert ballbounds.gb03_baseline(4) == 0.5
    # the newer bound beats the baseline strictly for m >= 3 qubits
    for m in range(3, 12):
        assert ballbounds.closed_form_radius(2, m) > ballbounds.gb03_baseline(m)


def test_gb03_baseline_is_correctly_rounded():
    # 2^(1 - m/2) is irrational at odd m, where the log domain missed it by
    # up to 2 ulps: the value must lie nearer to it than either neighbour,
    # which the exact squares of the midpoints to the neighbours decide
    for m in range(2, 80):
        v = Fraction(ballbounds.gb03_baseline(m))
        low = (Fraction(math.nextafter(float(v), 0.0)) + v) / 2
        high = (Fraction(math.nextafter(float(v), math.inf)) + v) / 2
        assert low**2 < Fraction(2) ** (2 - m) < high**2, m
    # so the abstract's 2·2^(-3m/2) over d = 2^m holds exactly at odd m too
    for m in range(3, 41, 2):
        assert ballbounds.gb03_baseline(m) / 2**m == 2.0 * 2.0 ** (-1.5 * m), m
    with pytest.raises(ValueError):
        ballbounds.gb03_baseline(1)


def test_normalized_radius():
    # a = 1, d = 4: 1/sqrt(4*3) = 1/(2 sqrt 3)
    assert ballbounds.normalized_radius(1.0, 4) == pytest.approx(
        1.0 / (2.0 * math.sqrt(3.0)), abs=1e-15
    )
    with pytest.raises(ValueError):
        ballbounds.normalized_radius(2.0, 4)


def test_qubit_normalized_identity():
    for m in range(2, 13):
        lhs = ballbounds.qubit_normalized_radius(m)
        rhs = ballbounds.closed_form_radius(2, m) / 2**m
        assert abs(lhs - rhs) <= 1e-12 * rhs


def test_log_normalized_radius_consistency():
    for a, d in [(1.0, 4), (0.8, 8), (0.5, 100)]:
        want = math.log(ballbounds.normalized_radius(a, d))
        got = ballbounds.log_normalized_radius(math.log(a), math.log(d))
        assert got == pytest.approx(want, abs=1e-12)


def test_gamma_lambda_bounds():
    # [DERIVED] gamma_bound(2, 4, 1) = sqrt((2*(3/4)+1)/2) = sqrt(5)/2
    assert ballbounds.gamma_bound(2, 4, 1.0) == pytest.approx(
        math.sqrt(5.0) / 2.0, abs=1e-15
    )
    # lambda at a=1, d2=4: sqrt(2*(3/4)) = sqrt(3/2)
    assert ballbounds.lambda_bound(1.0, 4) == pytest.approx(
        math.sqrt(1.5), abs=1e-15
    )
    # lambda' at a=1, d2=4: sqrt(2 - 1/4)
    assert ballbounds.lambdaprime_bound(1.0, 4) == pytest.approx(
        math.sqrt(7.0) / 2.0, abs=1e-15
    )
    # premise a > 1/d2 enforced
    with pytest.raises(ValueError):
        ballbounds.gamma_bound(2, 4, 0.25)


def test_radius_report_methods():
    rep = ballbounds.radius_report((2, 2, 2), "recursion")
    assert rep.unnormalized_radius == pytest.approx(math.sqrt(0.8), abs=1e-14)
    assert rep.normalized_radius == pytest.approx(
        ballbounds.normalized_radius(math.sqrt(0.8), 8), abs=1e-15
    )
    with pytest.raises(ValueError):
        ballbounds.radius_report((2, 3), "closed_form")
    with pytest.raises(ValueError):
        ballbounds.radius_report((2, 2), "no_such_method")


@pytest.mark.parametrize(
    "dims, methods",
    [
        ((2,) * 5, ["recursion", "closed_form", "weak_corollary", "gb03"]),
        ((3,) * 4, ["recursion", "closed_form", "weak_corollary", "gb03"]),
        ((2,) * 600, ["recursion", "closed_form", "weak_corollary", "gb03"]),
        ((2, 3, 2), ["recursion", "gb03"]),
        ((2, 3) * 50, ["recursion", "gb03"]),
    ],
)
def test_radius_report_reads_log_radius(dims, methods):
    log_d = math.fsum(math.log(d) for d in dims)
    for method in methods:
        rep = ballbounds.radius_report(dims, method)
        log_a = ballbounds.log_radius(dims, method)
        assert rep.unnormalized_radius == pytest.approx(math.exp(log_a), rel=1e-13, abs=0)
        assert rep.normalized_radius == pytest.approx(
            math.exp(ballbounds.log_normalized_radius(log_a, log_d)), rel=1e-13, abs=0
        )
        assert rep.normalized_radius > 0.0
        # the pseudopure bound comes from the same composition
        log_pseudopure = ballbounds.log_bounds(dims, method)[2]
        assert certify.pseudopure_bound(dims, baseline=method) == math.exp(log_pseudopure)


def test_log_radius_matches_references():
    # the closed form against the fold for equal dims, the fold itself for mixed
    for dims in [(2, 2), (3, 5), (2, 3, 4), (4, 3, 2), (2, 3) * 50, (2,) * 40]:
        want = ballbounds.recursion_radius(dims)
        assert math.exp(ballbounds.log_radius(dims)) == pytest.approx(want, rel=1e-12)
    assert ballbounds.radius_report((2, 2)).unnormalized_radius == 1.0
    # powers of two stay exact (28 and 30 qubits print halfway cases)
    for m in (2, 4, 28, 30):
        assert ballbounds.gb03_baseline(m) == 0.5 ** (m / 2.0 - 1.0)
    assert ballbounds.gb03_baseline(31) == 0.5**14.5
    with pytest.raises(ValueError):
        ballbounds.log_radius((2, 3), "weak_corollary")
    with pytest.raises(ValueError):
        ballbounds.log_radius((3,))
    with pytest.raises(ValueError):
        ballbounds.log_radius((2, 2), "gb03_baseline")


def _decimal_log_recursion(dims):
    """Natural log of the recursion's radius, folded in 60-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 60
        a, prod = Decimal(1), Decimal(dims[0] * dims[1])
        for dn in dims[2:]:
            a *= (Decimal(dn) / (2 * (1 - a * a / prod) * (dn - 1) + 1)).sqrt()
            prod *= dn
        return a.ln()


@pytest.mark.parametrize("m", [5, 400, 3000, 3400, 6000])
def test_log_radius_of_unequal_dims_below_the_double_range(m):
    # the (2, 3, ...) radius goes subnormal near 3100 parties; folded in
    # linear doubles it stalls at 1e-323, log -743.75, from there on
    dims = (2, 3) * (m // 2) + (2,) * (m % 2)
    want = _decimal_log_recursion(dims)
    got = ballbounds.log_radius(dims)
    assert abs(Decimal(got) - want) <= Decimal(4e-16) * abs(want)
    if m >= 3400:
        assert ballbounds.radius_report(dims).unnormalized_radius == 0.0


def test_radius_report_gb03_row_is_the_closed_form():
    # exp of the rounded log (m/2 - 1)·ln ½ misses 2^(1 - m/2) at odd m
    for m in range(2, 3001):
        rep = ballbounds.radius_report((2,) * m, "gb03")
        assert rep.unnormalized_radius == ballbounds.gb03_baseline(m), m


@pytest.mark.parametrize("d0", [2, 3, 5])
def test_every_home_of_a_bound_gives_the_same_double(d0):
    eta = nmr.ETA_DEFAULT
    for m in range(2, 801):
        dims = (d0,) * m
        closed = ballbounds.radius_report(dims, "closed_form").unnormalized_radius
        assert closed == ballbounds.closed_form_radius(d0, m), m
        weak = ballbounds.radius_report(dims, "weak_corollary").unnormalized_radius
        assert weak == ballbounds.weak_radius(d0, m), m
        if d0 == 2:
            thermal = nmr.measured_and_bound(eta, m, "thermal", "recursion")[1]
            assert ballbounds.radius_report(dims).normalized_radius == thermal, m
            pseudopure = nmr.measured_and_bound(eta, m, "pseudopure", "recursion")[1]
            assert certify.pseudopure_bound(dims) == pseudopure, m


def _within_one_ulp_of_exp(value, log_value):
    with localcontext() as ctx:
        ctx.prec = 40
        return abs(Decimal(value) - Decimal(log_value).exp()) <= Decimal(math.ulp(value))


@pytest.mark.parametrize(
    "d0, methods",
    [(2, ["recursion", "closed_form", "weak_corollary", "gb03"]), (3, ["weak_corollary"])],
)
def test_radius_report_leaves_the_log_domain_correctly_rounded(d0, methods):
    # up to m = 780 every radius is a normal double, so 1 ulp is relative
    for m in range(2, 781):
        dims = (d0,) * m
        for method in methods:
            rep = ballbounds.radius_report(dims, method)
            log_a, log_normalized, _ = ballbounds.log_bounds(dims, method)
            assert _within_one_ulp_of_exp(rep.normalized_radius, log_normalized), (m, method)
            if method != "gb03":
                assert _within_one_ulp_of_exp(rep.unnormalized_radius, log_a), (m, method)
