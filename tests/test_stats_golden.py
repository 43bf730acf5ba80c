"""Golden values for the numpy two-sample KS test and SAX breakpoints.

The KS rows were recorded from ``scipy.stats.ks_2samp`` (scipy 1.17.1,
default two-sided ``auto`` mode) and the breakpoints from
``scipy.stats.norm.ppf``, before both were replaced by numpy/stdlib
code.  Each row's samples are rebuilt from ``random.Random(seed)``
(whose ``random()`` stream is stable across Python versions), so the
table holds only the recipe and the recorded (D, p).
"""

import math
import random
from fractions import Fraction

import pytest

from repro.analysis.stats import (
    _kolmogorov_sf,
    _ks_sf,
    ks_critical_d,
    ks_statistic,
)
from repro.discovery.sax import gaussian_breakpoints

TOL = 1e-12

#: (seed, n, m, shift, scale, round_ndigits, D, p): ``a`` is n uniforms,
#: ``b`` is m uniforms scaled then shifted; ``round_ndigits`` makes ties.
KS_GOLDEN = [
    (1, 6, 6, 0.0, 1.0, None, 0.3333333333333333, 0.9307359307359307),
    (2, 6, 9, 0.3, 1.0, None, 0.3333333333333333, 0.7794205794205795),
    (3, 13, 29, 0.1, 1.5, None, 0.5278514588859416, 0.008031166978925136),
    (4, 20, 20, 0.2, 1.0, None, 0.5, 0.012298612583953778),
    (5, 40, 55, 0.0, 1.0, None, 0.18181818181818182, 0.3763794394514963),
    (6, 60, 60, 0.15, 1.0, None, 0.21666666666666667, 0.11976314781726739),
    (7, 100, 37, 0.25, 1.0, None, 0.28, 0.02233425507590055),
    (8, 100, 100, 0.0, 1.0, None, 0.13, 0.36818778606286096),
    (9, 25, 40, 0.1, 1.0, 1, 0.165, 0.7327259709388657),
    (10, 60, 60, 0.0, 1.2, 1, 0.15, 0.51301231282104),
    (11, 77, 91, 0.2, 1.0, 1, 0.25674325674325676, 0.006456472161159089),
    (12, 300, 450, 0.05, 1.0, None, 0.10444444444444445, 0.03744185163467334),
    (13, 100, 100, 0.7, 1.0, None, 0.71, 1.5875242925891747e-24),
    (14, 100, 80, 0.8, 1.0, None, 0.8625, 1.1259300503171325e-34),
    (15, 50, 50, 0.0, 1.0, 1, 0.14, 0.7166468440414822),
    (16, 9, 6, 0.0, 1.0, None, 0.4444444444444444, 0.40839160839160843),
    (172, 30, 45, 0.0, 1.0, None, 0.08888888888888889, 0.997434204353392),
    (223, 80, 80, 0.0, 1.0, None, 0.0375, 0.9999999989294469),
    (400, 90, 70, 0.4, 1.0, None, 0.5126984126984127, 5.674074489122038e-10),
]

#: norm.ppf(k / a) for every reduced fraction k / a in (1/2, 1), a <= 26;
#: the lower half follows by symmetry.
PPF_GOLDEN = {
    (13, 25): 0.05015358346473367,
    (12, 23): 0.05451891484810106,
    (11, 21): 0.05971709978532289,
    (10, 19): 0.0660118123758406,
    (9, 17): 0.07379127380827269,
    (8, 15): 0.08365173390712909,
    (7, 13): 0.09655861528963908,
    (13, 24): 0.10463345561407526,
    (6, 11): 0.11418529432142824,
    (11, 20): 0.12566134685507416,
    (5, 9): 0.13971029888186212,
    (14, 25): 0.1509692154967774,
    (9, 16): 0.1573106846101707,
    (13, 23): 0.16421077707933085,
    (4, 7): 0.18001236979270496,
    (15, 26): 0.1940281424239262,
    (11, 19): 0.199201324789267,
    (7, 12): 0.21042839424792484,
    (10, 17): 0.2230078309403668,
    (13, 22): 0.2298841175792322,
    (3, 5): 0.2533471031357997,
    (14, 23): 0.27592106310796005,
    (11, 18): 0.28221614706250825,
    (8, 13): 0.29338123212119344,
    (13, 21): 0.30298044805620655,
    (5, 8): 0.31863936396437514,
    (12, 19): 0.33603814037182306,
    (7, 11): 0.3487556955170447,
    (16, 25): 0.3584587932511938,
    (9, 14): 0.3661063568005698,
    (11, 17): 0.37739194382855396,
    (13, 20): 0.38532046640756773,
    (15, 23): 0.39119625818947174,
    (17, 26): 0.3957252958144873,
    (2, 3): 0.43072729929545744,
    (17, 25): 0.4676987991145084,
    (15, 22): 0.4727891209922672,
    (13, 19): 0.4795056533309502,
    (11, 16): 0.4887764111146695,
    (9, 13): 0.5024022233733555,
    (16, 23): 0.5119362138713294,
    (7, 10): 0.5244005127080407,
    (12, 17): 0.541395085129088,
    (17, 24): 0.5485222826980981,
    (5, 7): 0.5659488219328631,
    (18, 25): 0.5828415072712162,
    (13, 18): 0.5894557978497783,
    (8, 11): 0.6045853465832371,
    (19, 26): 0.6151411045959733,
    (11, 15): 0.6229257232100877,
    (14, 19): 0.633640000779701,
    (17, 23): 0.6406668899191048,
    (3, 4): 0.6744897501960817,
    (19, 25): 0.7063025628400874,
    (16, 21): 0.7124430323894889,
    (13, 17): 0.7215222839823432,
    (10, 13): 0.7363159173761297,
    (17, 22): 0.7478585947633022,
    (7, 9): 0.7647096737863871,
    (18, 23): 0.7810338115227088,
    (11, 14): 0.7916386077433746,
    (15, 19): 0.8045963803603002,
    (19, 24): 0.8122178014999129,
    (4, 5): 0.8416212335729143,
    (21, 26): 0.8694237732888861,
    (17, 21): 0.8761428492468408,
    (13, 16): 0.887146559018876,
    (9, 11): 0.9084578685373853,
    (14, 17): 0.9288994916472707,
    (19, 23): 0.9388143168769032,
    (5, 6): 0.967421566101701,
    (21, 25): 0.994457883209753,
    (16, 19): 1.0031479676625337,
    (11, 13): 1.0200762327862014,
    (17, 20): 1.0364333894937898,
    (6, 7): 1.0675705238781412,
    (19, 22): 1.0968035620935135,
    (13, 15): 1.1107716166367854,
    (20, 23): 1.1243382315686385,
    (7, 8): 1.1503493803760079,
    (22, 25): 1.1749867920660904,
    (15, 17): 1.1868314327558185,
    (23, 26): 1.1983797023069247,
    (8, 9): 1.2206403488473496,
    (17, 19): 1.2521195202652196,
    (9, 10): 1.2815515655446004,
    (19, 21): 1.309171716785777,
    (10, 11): 1.3351777361189363,
    (21, 23): 1.3597373839386055,
    (11, 12): 1.382994127100638,
    (23, 25): 1.4050715603096329,
    (12, 13): 1.4260768722728474,
    (13, 14): 1.465233792685523,
    (14, 15): 1.501085946044025,
    (15, 16): 1.5341205443525463,
    (16, 17): 1.5647264713617985,
    (17, 18): 1.59321881802305,
    (18, 19): 1.6198562586382697,
    (19, 20): 1.6448536269514722,
    (20, 21): 1.668391193947079,
    (21, 22): 1.6906216295848986,
    (22, 23): 1.7116753065097288,
    (23, 24): 1.7316643961222453,
    (24, 25): 1.7506860712521692,
    (25, 26): 1.7688250385187065,
}

#: scipy.stats.kstwobign.sf(x): the Kolmogorov limit law.
KOLMOGOROV_GOLDEN = [
    (0.2, 0.999999999999495),
    (0.5, 0.9639452436648751),
    (0.8, 0.5441424115741981),
    (0.99, 0.2808738392255489),
    (1.0, 0.26999967167735456),
    (1.01, 0.25943416909359746),
    (1.2, 0.11224966667072497),
    (1.5, 0.022217962616525127),
    (2.0, 0.0006709252557796953),
    (3.0, 3.045995948942526e-08),
]


def _samples(seed, n, m, shift, scale, ndigits):
    rng = random.Random(seed)
    a = [rng.random() for _ in range(n)]
    b = [shift + scale * rng.random() for _ in range(m)]
    if ndigits is not None:
        a = [round(x, ndigits) for x in a]
        b = [round(x, ndigits) for x in b]
    return a, b


@pytest.mark.parametrize(
    "row", KS_GOLDEN, ids=lambda r: f"seed{r[0]}-{r[1]}x{r[2]}"
)
def test_ks_statistic_reproduces_recorded_values(row):
    *recipe, d_expected, p_expected = row
    d, p = ks_statistic(*_samples(*recipe))
    assert abs(d - d_expected) <= TOL
    assert abs(p - p_expected) <= TOL


def test_golden_table_covers_its_regimes():
    sizes = [(r[1], r[2]) for r in KS_GOLDEN]
    assert any(n == m for n, m in sizes) and any(n != m for n, m in sizes)
    assert any(r[5] is not None for r in KS_GOLDEN)  # heavy ties
    assert min(min(s) for s in sizes) == 6
    assert max(max(s) for s in sizes) >= 300
    assert max(r[7] for r in KS_GOLDEN) > 0.999
    assert min(r[7] for r in KS_GOLDEN) < 1e-8


@pytest.mark.parametrize("alphabet", range(2, 27))
def test_gaussian_breakpoints_reproduce_norm_ppf(alphabet):
    expected = []
    for k in range(1, alphabet):
        f = Fraction(k, alphabet)
        if f == Fraction(1, 2):
            expected.append(0.0)
        elif f > Fraction(1, 2):
            expected.append(PPF_GOLDEN[(f.numerator, f.denominator)])
        else:
            g = 1 - f
            expected.append(-PPF_GOLDEN[(g.numerator, g.denominator)])
    got = gaussian_breakpoints(alphabet)
    assert len(got) == alphabet - 1
    assert max(abs(x - y) for x, y in zip(got, expected)) <= TOL


@pytest.mark.parametrize("x, expected", KOLMOGOROV_GOLDEN)
def test_kolmogorov_series_matches_limit_law(x, expected):
    assert abs(_kolmogorov_sf(x) - expected) <= TOL


def test_large_samples_use_the_asymptotic_series():
    rng = random.Random(5)
    a = [rng.random() for _ in range(10_001)]
    b = [rng.random() + 0.01 for _ in range(12_000)]
    d, p = ks_statistic(a, b)
    assert p == _kolmogorov_sf(math.sqrt(10_001 * 12_000 / 22_001) * d)


class TestCriticalD:
    def test_small_equal_samples(self):
        # n = m = 6: p(D = 5/6) = 0.026 <= 0.05 < p(D = 4/6) = 0.143.
        assert ks_critical_d(6, 6, 0.05) == pytest.approx(5 / 6, abs=1e-15)

    def test_sixty_per_side(self):
        assert ks_critical_d(60, 60, 0.05) == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("n, m, alpha", [(60, 90, 0.05), (13, 29, 0.01)])
    def test_is_the_least_rejecting_lattice_point(self, n, m, alpha):
        d = ks_critical_d(n, m, alpha)
        lcm = n * m // math.gcd(n, m)
        h = round(d * lcm)
        assert _ks_sf(n, m, h) <= alpha < _ks_sf(n, m, h - 1)

    def test_too_few_values_raises(self):
        with pytest.raises(ValueError):
            ks_critical_d(2, 2, 0.05)

    def test_bad_alpha_raises(self):
        with pytest.raises(ValueError):
            ks_critical_d(10, 10, 1.5)
