"""One test per shipped guarantee, tolerances pinned.

Criterion 8 asks preset B to revive above 0.01 after sudden death, and
fails: the second-order generator peaks at 6.9e-3 there.  It no longer
asks for a flat pre-collapse plateau, because the curve starts as
C = 1 - 2 lam gamma t^2 + O(t^3) and, at lam = 10 gamma, leaves the band
|dC/dt| < 0.01 C(0) by gamma t ~ 2.5e-4.  Criterion 10 runs its
rotating-wave comparison at beta^2 = 0.4 instead of 0.25, because a
Psi-state revival under the rotating-wave approximation is impossible
outside the window (0.368, 0.5) that the test computes from the exact
amplitude.  README.md discusses both.
"""

import math

import numpy as np
import pytest
from conftest import DENSE_GAMMA_T, HERMITIAN_PROBES, concurrence_curve

from beyondrwa import kernels, oracle
from beyondrwa.cli import PRESETS, beta2_grid, check_rwa, main as cli_main
from beyondrwa.entanglement import (concurrence_general, concurrence_xstate,
                                    detect_esd)
from beyondrwa.lie_channel import apply_channel
from beyondrwa.two_qubit import (BellFamilyState, evolve_pair,
                                 explicit_elements, initial_state)


@pytest.fixture(scope="module")
def full_grid_stats(channel_bank):
    """One pass over the default sweep grid for every preset and family.

    Accumulates everything the grid-wide checks below share: worst trace
    and Hermiticity deviations, worst closed-form vs spin-flip concurrence
    gap (with a count of states the spin-flip route refuses), and the Phi
    concurrence surfaces.
    """
    betas = beta2_grid(51)
    stats = {"trace_dev": 0.0, "herm_dev": 0.0, "dual_dev": 0.0,
             "gated": 0, "total": 0, "surfaces": {}}
    for name, entry in channel_bank.items():
        for family in ("phi", "psi"):
            initials = np.array([initial_state(BellFamilyState(family, math.sqrt(b)))
                                 for b in betas])
            rho = evolve_pair(entry.series, initials)     # (time, beta2, 4, 4)
            stats["trace_dev"] = max(stats["trace_dev"], np.abs(
                np.trace(rho, axis1=-2, axis2=-1) - 1.0).max())
            stats["herm_dev"] = max(stats["herm_dev"], np.abs(
                rho - np.conj(np.swapaxes(rho, -1, -2))).max())
            closed = concurrence_xstate(rho).value
            general = concurrence_general(rho)   # NaN where it refuses
            kept = ~np.isnan(general)
            stats["total"] += kept.size
            stats["gated"] += int(kept.size - kept.sum())
            stats["dual_dev"] = max(stats["dual_dev"],
                                    np.abs(closed - general)[kept].max())
            if family == "phi":
                stats["surfaces"][name] = closed
    return stats


def test_criterion_01_channel_matches_direct_integration(channel_bank,
                                                        direct_bank):
    for name, entry in channel_bank.items():
        for rho0 in HERMITIAN_PROBES.values():
            dev = np.abs(apply_channel(entry.series, rho0)
                         - apply_channel(direct_bank[name], rho0)).max()
            assert dev < 1e-6, f"preset {name}: routes disagree by {dev:.3g}"


def test_criterion_02_trace_and_hermiticity(full_grid_stats):
    assert full_grid_stats["trace_dev"] < 1e-6
    assert full_grid_stats["herm_dev"] < 1e-6


def test_criterion_03_concurrence_dual_path(full_grid_stats):
    # the spin-flip route refuses states whose transient negativity exceeds
    # its eigenvalue tolerance; those are counted, not compared
    assert full_grid_stats["gated"] < full_grid_stats["total"] // 4
    assert full_grid_stats["dual_dev"] < 1e-10


def test_criterion_04_initial_concurrence_anchor():
    for family in ("phi", "psi"):
        for b2 in (1e-4, 0.1, 0.25, 0.5, 0.77, 1.0 - 1e-4):
            beta = math.sqrt(b2)
            expected = 2.0 * beta * math.sqrt(1.0 - b2)
            for phase in (0.0, 0.7, math.pi / 2, 2.1):
                rho0 = initial_state(BellFamilyState(family, beta, phase))
                assert abs(concurrence_xstate(rho0).value - expected) < 1e-12
                assert abs(concurrence_general(rho0) - expected) < 1e-12


def test_criterion_05_kernel_quadrature():
    for name in ("A", "B", "C"):
        p = PRESETS[name]
        for t in np.linspace(0.0, 20.0, 21):
            assert abs(kernels.alpha_tilde(t, p)
                       - oracle.alpha_tilde_quadrature(t, p)) < 1e-8
            assert abs(kernels.decay_exponent(t, p)
                       - oracle.decay_exponent_quadrature(t, p)) < 1e-8


def test_criterion_06_two_qubit_assembly_dual_path(channel_bank):
    cf = channel_bank["C"].series[::5]
    mask = np.ones((4, 4), dtype=bool)
    mask[1, 1] = False
    for family, b2, phase in (("phi", 0.3, 0.4), ("psi", 0.6, 1.1),
                              ("phi", 0.5, 0.0)):
        rho0 = initial_state(BellFamilyState(family, math.sqrt(b2), phase))
        diff = evolve_pair(cf, rho0) - explicit_elements(cf, rho0)
        assert np.abs(diff[:, mask]).max() < 1e-12
        expected_gap = (cf.l * cf.n - cf.l * cf.m) * rho0[1, 1]
        assert np.abs(diff[:, 1, 1] - expected_gap).max() < 1e-13


def test_criterion_07_preset_a_decays_without_revival(channel_bank):
    entry = channel_bank["A"]
    curve = concurrence_curve(entry.series, "phi", 0.5)
    assert curve[np.searchsorted(entry.times, 5.0)] < 0.1
    below = np.nonzero(curve < 1e-3)[0]
    assert below.size, "concurrence never dropped below 1e-3"
    tail_max = curve[below[0]:].max()
    assert tail_max < 0.05, f"revival of {tail_max:.3g} after first collapse"


def test_criterion_08_preset_b_plateau_then_revival(channel_bank):
    """Preset B collapses and then revives above 0.01.

    The name is kept from an earlier version that also asked for a
    plateau of 0.5/gamma with |dC/dt| < 0.01 C(0) before death.  That
    clause is dropped: the t^2 term of C(t) is second order in the
    coupling, so the exact dynamics and the second-order generator share
    C = 1 - 2 lam gamma t^2 + O(t^3), and dC/dt = -4 lam gamma t leaves
    the band by gamma t ~ 2.5e-4 at lam = 10 gamma.  No dynamics of this
    coupling has such a plateau.
    """
    entry = channel_bank["B"]
    report = detect_esd(entry.times,
                        concurrence_curve(entry.series, "phi", 0.5))
    assert report.max_revival > 0.01, (
        "expected a revival above 0.01 after sudden death; measured: death "
        f"at gamma t = {report.death_time}, largest post-death episode peak "
        f"{report.max_revival:.3g} over {report.episode_count} episode(s). "
        "The second-order generator keeps preset B's post-death episodes "
        "at the few-1e-3 level, and a finer time grid does not lift them "
        "to 0.01")


def test_criterion_09_preset_c_damped_revival_train(channel_bank):
    entry = channel_bank["C"]
    curve = concurrence_curve(entry.series, "phi", 0.5)
    report = detect_esd(entry.times, curve)
    assert report.death_time is not None
    assert report.episode_count >= 2
    peaks = [ep.peak for ep in report.episodes]
    assert all(a > b for a, b in zip(peaks, peaks[1:])), peaks


def _rwa_psi_revival_window():
    """beta^2 range where the rotating-wave Psi state dies and revives.

    Under the rotating-wave approximation the Psi concurrence is
    2 |q|^2 |eta| (beta - (1 - |q|^2) |eta|).  Death before q vanishes
    needs beta < |eta|, i.e. beta^2 < 0.5; a revival after the first zero
    of q needs |q|^2 > 1 - beta/|eta| at some later time, i.e.
    beta/|eta| > 1 - max |q|^2.  The maximum is taken on the dense grid;
    test_oracle.py pins the same value (RWA_POST_DEATH_PEAK, 0.23658) by a
    root find on the closed form, so this only reports where the window
    edge lies when beta^2 falls outside it.
    """
    p = PRESETS["RWA"]
    times = DENSE_GAMMA_T / p.gamma
    after = times[times > oracle.rwa_first_zero(p)]
    q2_max = oracle.rwa_channel(after, p).l.max()    # l = |q|^2
    ratio2 = (1.0 - q2_max) ** 2
    return ratio2 / (1.0 + ratio2), 0.5


RWA_REVIVAL_BETA2 = 0.4


def test_criterion_10_sudden_death_permanence_vs_rwa(channel_bank,
                                                     rwa_dense_curves):
    low, high = _rwa_psi_revival_window()
    assert low < RWA_REVIVAL_BETA2 < high, (
        f"beta^2 = {RWA_REVIVAL_BETA2} lies outside the rotating-wave Psi "
        f"revival window ({low:.4f}, {high:.4f}); no grid can show a revival")

    entry = channel_bank["A"]
    curve = concurrence_curve(entry.series, "psi", RWA_REVIVAL_BETA2)
    report = detect_esd(entry.times, curve)
    assert report.death_time is not None, "preset A Psi state never dies"
    post = curve[np.searchsorted(entry.times, report.death_time):]
    assert post.max() < 1e-4, (
        f"preset A revives to {post.max():.3g} after death at gamma t = "
        f"{report.death_time:.3g}")

    rwa_curve = rwa_dense_curves[("psi", RWA_REVIVAL_BETA2)]
    rwa_report = detect_esd(DENSE_GAMMA_T, rwa_curve)
    assert rwa_report.death_time is not None, "rotating-wave state never dies"
    after = rwa_curve[DENSE_GAMMA_T > rwa_report.death_time]
    assert rwa_report.revived, (
        f"rotating-wave Psi state at beta^2 = {RWA_REVIVAL_BETA2} never "
        f"revives: after death at gamma t = {rwa_report.death_time:.4f} its "
        f"largest concurrence is {after.max():.3g}, although beta^2 lies "
        f"inside the window ({low:.4f}, {high:.4f})")


def test_criterion_11_phi_surface_symmetric_in_beta2(full_grid_stats):
    for name, surface in full_grid_stats["surfaces"].items():
        dev = np.abs(surface - surface[:, ::-1]).max()
        assert dev < 1e-9, f"preset {name}: {dev:.3g}"


def test_criterion_12_rwa_amplitude_solves_memory_equation():
    # verify's rwa_residual check, with its bound
    [(_, res, bound)] = check_rwa()
    assert res < bound


def test_criterion_13_sweep_output_is_byte_deterministic(tmp_path):
    argv = ["sweep", "--preset", "B", "--t-steps", "41", "--tmax", "4",
            "--beta2-steps", "11"]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(argv + ["--out", str(first)]) == 0
    assert cli_main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
