import warnings

import numpy as np
import pytest

from syncprobe.bath import (
    DegenerateSpectrumError,
    OutOfDomainError,
    PowerLawCutoff,
    Tabulated,
    bose_occupation,
    evaluate_J,
    lindblad_rates,
    model_from_config,
    model_to_config,
)
from syncprobe.spin_model import QubitPairParams, diagonalize

# Frozen reference values, computed independently with plain math:
#   J(1) for gamma0=0.01, s=1, omega_c=20  ->  2*0.01*400/401
J_OHMIC_CUT_1 = 0.0199501246882793
J_OHMIC_CUT_5 = 0.09411764705882353
J_NC_S2_17 = 1.7339999999999998        # 2*0.3*1.7^2, no cutoff
N_1_1 = 0.5819767068693265             # 1/(e - 1)
N_2_HALF = 0.01865736036377405         # 1/(e^4 - 1)

# rates at (omega_q=1, omega_p=1.2, lam=0.2), Ohmic gamma0=0.01, omega_c=20
G1_DOWN_T0 = 0.03356805446390792
G2_DOWN_T0 = 0.08973815225281567
G1_DOWN_T1 = 0.04544922730386978
G1_UP_T1 = 0.011881172839961863
G2_DOWN_T1 = 0.151800550306294
G2_UP_T1 = 0.06206239805347831


def test_power_law_frozen_values():
    m = PowerLawCutoff(gamma0=0.01, s=1.0, omega_c=20.0)
    assert np.isclose(evaluate_J(m, 1.0), J_OHMIC_CUT_1, rtol=1e-13)
    assert np.isclose(evaluate_J(m, 5.0), J_OHMIC_CUT_5, rtol=1e-13)
    assert evaluate_J(m, 0.0) == 0.0

    nc = PowerLawCutoff(gamma0=0.3, s=2.0, omega_c=None)
    assert np.isclose(evaluate_J(nc, 1.7), J_NC_S2_17, rtol=1e-13)


def test_power_law_array_matches_scalar():
    m = PowerLawCutoff(gamma0=0.05, s=1.5, omega_c=8.0)
    ws = np.linspace(0.0, 12.0, 37)
    vec = evaluate_J(m, ws)
    assert vec.shape == ws.shape
    for w, v in zip(ws, vec):
        assert np.isclose(v, evaluate_J(m, float(w)), rtol=1e-14)


def test_no_cutoff_is_cutoff_limit():
    bare = PowerLawCutoff(gamma0=0.02, s=1.0, omega_c=None)
    huge = PowerLawCutoff(gamma0=0.02, s=1.0, omega_c=1e9)
    for w in (0.3, 1.0, 4.2):
        np.testing.assert_allclose(evaluate_J(bare, w), evaluate_J(huge, w),
                                   rtol=1e-10)


def test_overflowing_cutoff_means_no_cutoff():
    """An omega_c that is inf, or whose square overflows, is no cutoff: the
    model holds None, so J and the config form are those of None."""
    bare = PowerLawCutoff(gamma0=0.02, s=1.0, omega_c=None)
    for wc in (1e300, 2e154, float("inf")):
        model = PowerLawCutoff(gamma0=0.02, s=1.0, omega_c=wc)
        assert model == bare
        assert evaluate_J(model, 1.3) == evaluate_J(bare, 1.3)
    # just below the overflow, the cutoff stays
    assert PowerLawCutoff(gamma0=0.02, s=1.0, omega_c=1.3e154).omega_c == 1.3e154
    with pytest.raises(ValueError, match="omega_c"):
        PowerLawCutoff(gamma0=0.02, s=1.0, omega_c=-1e300)


def test_bose_occupation_values():
    assert bose_occupation(1.0, 0.0) == 0.0
    assert np.isclose(bose_occupation(1.0, 1.0), N_1_1, rtol=1e-13)
    assert np.isclose(bose_occupation(2.0, 0.5), N_2_HALF, rtol=1e-13)
    # classical limit n -> T/omega - 1/2
    assert np.isclose(bose_occupation(1.0, 1e6), 1e6 - 0.5, rtol=1e-10)


def test_occupation_far_below_the_gap_is_zero_without_warning():
    # omega/T past the exponent range: the occupation is exactly 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bose_occupation(np.float64(1.2), 1e-310) == 0.0
        assert bose_occupation(np.float64(1.2), 0.001) == 0.0


def test_bose_occupation_domain():
    with pytest.raises(ValueError):
        bose_occupation(0.0, 1.0)
    with pytest.raises(ValueError):
        bose_occupation(-1.0, 1.0)
    with pytest.raises(ValueError):
        bose_occupation(1.0, -0.5)


def test_rates_frozen_values():
    eig = diagonalize(QubitPairParams(omega_p=1.2, lam=0.2))
    m = PowerLawCutoff(gamma0=0.01, s=1.0, omega_c=20.0)

    r0 = lindblad_rates(eig, m, T=0.0)
    assert np.isclose(r0.g1_down, G1_DOWN_T0, rtol=1e-12)
    assert np.isclose(r0.g2_down, G2_DOWN_T0, rtol=1e-12)
    assert r0.g1_up == 0.0 and r0.g2_up == 0.0

    r1 = lindblad_rates(eig, m, T=1.0)
    assert np.isclose(r1.g1_down, G1_DOWN_T1, rtol=1e-12)
    assert np.isclose(r1.g1_up, G1_UP_T1, rtol=1e-12)
    assert np.isclose(r1.g2_down, G2_DOWN_T1, rtol=1e-12)
    assert np.isclose(r1.g2_up, G2_UP_T1, rtol=1e-12)
    assert np.isclose(r1.g1_total, G1_DOWN_T1 + G1_UP_T1, rtol=1e-13)


def test_detailed_balance():
    rng = np.random.default_rng(7)
    m = PowerLawCutoff(gamma0=0.04, s=1.0, omega_c=15.0)
    for _ in range(50):
        p = QubitPairParams(omega_p=float(rng.uniform(0.2, 2.5)),
                            lam=float(rng.uniform(0.01, 0.8)))
        eig = diagonalize(p)
        T = float(rng.uniform(0.1, 10.0))
        r = lindblad_rates(eig, m, T=T)
        np.testing.assert_allclose(r.g1_up / r.g1_down, np.exp(-eig.E1 / T),
                                   rtol=1e-12)
        np.testing.assert_allclose(r.g2_up / r.g2_down, np.exp(-eig.E2 / T),
                                   rtol=1e-12)


def test_trig_weights_sum_to_one():
    # cos^2 + sin^2 of the mixing angle: the two stripped weights add to 1
    rng = np.random.default_rng(11)
    m = PowerLawCutoff(gamma0=0.03, s=2.0, omega_c=None)
    for _ in range(30):
        p = QubitPairParams(omega_p=float(rng.uniform(0.3, 2.0)),
                            lam=float(rng.uniform(0.05, 0.6)))
        eig = diagonalize(p)
        T = float(rng.uniform(0.0, 4.0))
        r = lindblad_rates(eig, m, T=T, kappa=1.0)
        n1 = bose_occupation(eig.E1, T)
        n2 = bose_occupation(eig.E2, T)
        w1 = r.g1_down / (evaluate_J(m, eig.E1) * (1.0 + n1))
        w2 = r.g2_down / (evaluate_J(m, eig.E2) * (1.0 + n2))
        np.testing.assert_allclose(w1 + w2, 1.0, rtol=1e-12)


def test_kappa_scales_linearly():
    eig = diagonalize(QubitPairParams(omega_p=0.8, lam=0.2))
    m = PowerLawCutoff(gamma0=0.01, s=1.0, omega_c=20.0)
    r_def = lindblad_rates(eig, m, T=0.7)
    r_one = lindblad_rates(eig, m, T=0.7, kappa=1.0)
    for name in ("g1_down", "g1_up", "g2_down", "g2_up"):
        np.testing.assert_allclose(getattr(r_def, name),
                                   2.0 * np.pi * getattr(r_one, name),
                                   rtol=1e-13)


def test_degenerate_spectrum_raises():
    # physical params always give E2 > 0; a hand-built structure can not
    from syncprobe.spin_model import EigenStructure
    eig = EigenStructure(E1=1.0, E2=0.0, theta_plus=0.1, theta_minus=0.1,
                         Delta=1.0, delta=1.0)
    m = PowerLawCutoff(gamma0=0.01, s=1.0, omega_c=None)
    with pytest.raises(DegenerateSpectrumError):
        lindblad_rates(eig, m, T=0.0)


def test_tabulated_exact_on_power_law():
    w = np.geomspace(0.1, 10.0, 25)
    tab = Tabulated(omegas=w, js=0.7 * w ** 1.3)
    assert np.isclose(evaluate_J(tab, 0.37), 0.1922030527676314, rtol=1e-12)
    assert np.isclose(evaluate_J(tab, 1.0), 0.7, rtol=1e-12)
    assert np.isclose(evaluate_J(tab, 2.6181), 2.446133412900862, rtol=1e-12)
    # exact at the nodes themselves
    np.testing.assert_allclose(evaluate_J(tab, w), 0.7 * w ** 1.3, rtol=1e-12)


def test_tabulated_no_extrapolation():
    tab = Tabulated(omegas=np.array([0.5, 1.0, 2.0]),
                    js=np.array([0.1, 0.2, 0.4]))
    with pytest.raises(OutOfDomainError):
        evaluate_J(tab, 0.49)
    with pytest.raises(OutOfDomainError):
        evaluate_J(tab, 2.01)
    with pytest.raises(OutOfDomainError):
        evaluate_J(tab, np.array([1.0, 3.0]))


def test_tabulated_zero_node_falls_back_to_linear():
    tab = Tabulated(omegas=np.array([1.0, 2.0, 3.0]),
                    js=np.array([0.0, 0.4, 0.8]))
    assert evaluate_J(tab, 1.0) == 0.0
    assert np.isclose(evaluate_J(tab, 1.5), 0.2, rtol=1e-12)


def test_tabulated_validation():
    with pytest.raises(ValueError):
        Tabulated(omegas=np.array([1.0, 1.0, 2.0]),
                  js=np.array([0.1, 0.2, 0.3]))
    with pytest.raises(ValueError):
        Tabulated(omegas=np.array([-1.0, 1.0]), js=np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        Tabulated(omegas=np.array([1.0, 2.0]), js=np.array([0.1, -0.2]))
    with pytest.raises(ValueError):
        Tabulated(omegas=np.array([1.0]), js=np.array([0.1]))


def test_model_validation():
    with pytest.raises(ValueError):
        PowerLawCutoff(gamma0=-0.01, s=1.0)
    with pytest.raises(ValueError):
        PowerLawCutoff(gamma0=0.01, s=0.0)
    with pytest.raises(ValueError):
        PowerLawCutoff(gamma0=0.01, s=1.0, omega_c=-3.0)


@pytest.mark.parametrize("gamma0, s, field", [
    (np.nan, 1.0, "gamma0"), (np.inf, 1.0, "gamma0"),
    (0.01, np.nan, "s"), (0.01, np.inf, "s")])
def test_power_law_rejects_non_finite(gamma0, s, field):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        PowerLawCutoff(gamma0=gamma0, s=s, omega_c=20.0)


def test_infinite_cutoff_means_no_cutoff():
    inf = PowerLawCutoff(gamma0=0.02, s=1.5, omega_c=np.inf)
    bare = PowerLawCutoff(gamma0=0.02, s=1.5, omega_c=None)
    assert evaluate_J(inf, 1.7) == evaluate_J(bare, 1.7)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_tabulated_rejects_non_finite_j(bad):
    with pytest.raises(ValueError, match="J values must be finite"):
        Tabulated(omegas=np.array([0.5, 1.0, 2.0]),
                  js=np.array([0.1, bad, 0.3]))


def test_config_round_trip():
    for m in (PowerLawCutoff(gamma0=0.01, s=1.0, omega_c=20.0),
              PowerLawCutoff(gamma0=0.3, s=2.0, omega_c=None)):
        d = model_to_config(m)
        assert d["kind"] == "power-law"
        assert set(d) == {"kind", "gamma0", "s", "omega_c"}
        back = model_from_config(d)
        assert back == m

    w = np.array([0.5, 1.0, 2.0])
    tab = Tabulated(omegas=w, js=0.1 * w)
    d = model_to_config(tab)
    assert d["kind"] == "tabulated"
    assert set(d) == {"kind", "points"}
    back = model_from_config(d)
    np.testing.assert_array_equal(back.omegas, tab.omegas)
    np.testing.assert_array_equal(back.js, tab.js)


def test_config_rejects_bad_input():
    with pytest.raises(ValueError):
        model_from_config({"kind": "lorentzian", "gamma0": 0.1})
    with pytest.raises(ValueError):
        model_from_config({"kind": "power-law", "gamma0": 0.1, "s": 1.0,
                           "omega_c": None, "extra": 1})
    with pytest.raises(ValueError):
        model_from_config({"kind": "tabulated", "points": [[1.0, 0.1]]})
