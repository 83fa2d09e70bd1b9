"""Acceptance gate: exact limits, identities, oracle equivalence, derived-value
reproduction, regime behavior, harness fixtures and CLI end-to-end checks.

Each criterion prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure) and is enforced by plain asserts at its stated tolerance.
"""

import time

import numpy as np

from attoclock.atom import AtomModel, LaserField, catalog_lookup
from attoclock.barrier import (atomic_field_strength, exit_points_oracle,
                               signed_barrier_height, solve_geometry)
from attoclock.cli import main
from attoclock.clocks import compute_clocks
from attoclock.harness import (compare, emit_figure_data, figure_table,
                               fit_width_relation, load_measurements, run_sweep)
from attoclock.units import au_time_to_attoseconds
from helpers import rel_err

RNG_SEED = 20240614


def report(cid: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {cid}: {status}" + (f"  [{detail}]" if detail else ""))
    return ok


def random_atoms(rng, n):
    return [AtomModel(name=f"rand{i}", ip=ip, z_eff=z, source="rng")
            for i, (ip, z) in enumerate(zip(rng.uniform(0.3, 2.5, n),
                                            rng.uniform(0.6, 2.5, n)))]


def he_models():
    return catalog_lookup("He:clementi"), catalog_lookup("He:kullie")


def evaluate(atom, f):
    geom = solve_geometry(atom, LaserField.direct(f))
    return geom, compute_clocks(geom, atom)


def tau_d_as(row):
    return au_time_to_attoseconds(row.clocks.tau_d)


def oracle_grid(atom):
    """99 evenly spaced sub-atomic fractions plus the near-critical point."""
    fa = atomic_field_strength(atom)
    return [frac * fa for frac in np.linspace(0.01, 0.999, 99)] + [0.999999 * fa]


def test_criterion_1_critical_field_limits():
    start = time.perf_counter()
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    for atom in random_atoms(rng, 100):
        _, clocks = evaluate(atom, atomic_field_strength(atom))
        worst = max(worst,
                    rel_err(clocks.tau_sym, 1.0 / atom.ip),
                    rel_err(clocks.tau_d, 0.5 / atom.ip),
                    rel_err(clocks.tau_i, 0.5 / atom.ip))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-13 and elapsed < 1.0
    assert report("C1 critical-field limits", ok,
                  f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_decomposition_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(RNG_SEED + 1)
    worst_sum = worst_product = 0.0
    for atom in random_atoms(rng, 1000):
        f = rng.uniform(0.01, 0.999) * atomic_field_strength(atom)
        _, clocks = evaluate(atom, f)
        tau_sym = clocks.tau_sym
        worst_sum = max(worst_sum, rel_err(clocks.tau_i + clocks.tau_d, tau_sym))
        worst_product = max(worst_product, rel_err(
            tau_sym * (4.0 * atom.z_eff * f), atom.ip))
    elapsed = time.perf_counter() - start
    ok = worst_sum <= 1e-13 and worst_product <= 1e-13 and elapsed < 1.0
    assert report("C2 decomposition identity", ok,
                  f"sum {worst_sum:.2e}, product {worst_product:.2e}, {elapsed:.2f}s")


def test_criterion_3_geometry_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for atom in he_models():
        for f in oracle_grid(atom):
            field = LaserField.direct(f)
            geom = solve_geometry(atom, field)
            closed = (geom.x_entrance, geom.x_exit)
            bisected = exit_points_oracle(atom, field, tol=1e-12)
            worst = max(worst, abs(closed[0] - bisected[0]),
                        abs(closed[1] - bisected[1]))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    assert report("C3 closed form vs bisection oracle", ok,
                  f"max |diff| {worst:.2e} au, {elapsed:.2f}s")


def test_criterion_4_vieta_and_root_identities():
    worst_sum = worst_prod = worst_root = 0.0
    for atom in he_models():
        for f in oracle_grid(atom):
            field = LaserField.direct(f)
            geom = solve_geometry(atom, field)
            x_minus, x_plus = geom.x_entrance, geom.x_exit
            worst_sum = max(worst_sum,
                            rel_err(x_minus + x_plus, atom.ip / f),
                            rel_err(x_minus + x_plus, geom.x_classical))
            worst_prod = max(worst_prod, rel_err(x_minus * x_plus, atom.z_eff / f))
            worst_root = max(worst_root,
                             abs(signed_barrier_height(x_minus, atom, field)) / atom.ip,
                             abs(signed_barrier_height(x_plus, atom, field)) / atom.ip)
    ok = worst_sum <= 1e-12 and worst_prod <= 1e-12 and worst_root <= 1e-12
    assert report("C4 Vieta/root identities", ok,
                  f"sum {worst_sum:.2e}, prod {worst_prod:.2e}, root {worst_root:.2e}")


# Frozen 50-digit reference evaluation for He ip=0.90357, z_eff=1.6875, F=0.06.
DERIVED_F006 = {
    "delta_z_au": 0.64143491088340366,
    "x_minus_au": 2.1844590759716361,
    "x_plus_au": 12.875040924028364,
    "d_b_au": 10.690581848056728,
    "tau_d_as": 46.138125474491374,
    "tau_i_as": 7.8280797347195134,
    "tau_sym_as": 53.966205209210888,
}


def test_criterion_5_derived_value_reproduction():
    atom = catalog_lookup("He:clementi")
    geom = solve_geometry(atom, LaserField.direct(0.06))
    clocks = compute_clocks(geom, atom)
    got = {
        "delta_z_au": geom.delta_z,
        "x_minus_au": geom.x_entrance,
        "x_plus_au": geom.x_exit,
        "d_b_au": geom.barrier_width,
        "tau_d_as": au_time_to_attoseconds(clocks.tau_d),
        "tau_i_as": au_time_to_attoseconds(clocks.tau_i),
        "tau_sym_as": au_time_to_attoseconds(clocks.tau_sym),
    }
    worst = max(rel_err(got[key], expected) for key, expected in DERIVED_F006.items())
    ok = worst <= 1e-4
    assert report("C5 derived-value reproduction", ok, f"max rel err {worst:.2e}")


def test_criterion_6_expansion_property():
    worst_lo, worst_hi = 1.0, 1.0
    for atom in he_models():
        fa = atomic_field_strength(atom)
        for f in np.geomspace(1e-6 * fa, fa / 100, 40):
            _, clocks = evaluate(atom, float(f))
            ratio = clocks.tau_unsy * (2.0 * atom.z_eff * f / atom.ip)
            worst_lo, worst_hi = min(worst_lo, ratio), max(worst_hi, ratio)
        # the stated first-order operation stays exactly ip / (2F)
        for f in (fa / 100, fa / 2, 0.06):
            assert evaluate(atom, f)[1].tau_c == atom.ip / (2.0 * f)
    ok = 0.98 <= worst_lo and worst_hi <= 1.02
    assert report("C6 expansion property", ok,
                  f"ratio range [{worst_lo:.5f}, {worst_hi:.5f}]")


FIT_GRID = [0.04 + 0.01 * k for k in range(8)]    # F = 0.04 .. 0.11


def test_criterion_7a_width_linearity():
    worst = 1.0
    for atom in he_models():
        fit = fit_width_relation(run_sweep(atom, FIT_GRID))
        worst = min(worst, fit.r_squared)
    ok = worst >= 0.99
    assert report("C7a width-relation linearity", ok, f"min R^2 {worst:.6f}")


# Frozen from a 60-digit Decimal evaluation of README's closed forms over
# FIT_GRID: (slope as/au, intercept as) of the tau_d (as) vs d_B (au) line.
STATED_GRID_FIT = {
    "Clementi": (3.418092513189, 9.929726641655),
    "Kullie": (4.295570845879, 8.938444334856),
}


def chord_gaps(atom, eps):
    """Relative intercept gap below 1/(2 ip) and relative slope excess over
    the zero-width tangent 1/(8 z_eff) of the width fit over 8 evenly spaced
    fields on F_a (1 - eps) .. F_a (1 - eps/8)."""
    fa = atomic_field_strength(atom)
    fit = fit_width_relation(run_sweep(atom, [fa * (1.0 - eps * (8 - m) / 8)
                                              for m in range(8)]))
    target = au_time_to_attoseconds(0.5 / atom.ip)
    tangent = au_time_to_attoseconds(1.0 / (8.0 * atom.z_eff))
    return 1.0 - fit.intercept_as / target, fit.slope_as_per_au / tangent - 1.0


def test_criterion_7b_width_fit_intercept():
    # Criterion: the fig4 relation tau_d(d_B), fitted as a line, extrapolates
    # to the critical-field limit 1/(2 ip) at zero width (F = F_a).
    #
    # README's closed-form table gives exactly
    #   tau_d = (ip/F + d_B) / (8 z_eff) = x_exit / (4 z_eff),
    # and along the sub-atomic branch
    #   d tau_d / d d_B = (ip + delta_z)^2 / (8 z_eff (ip^2 + delta_z^2)),
    # which rises strictly from 1/(8 z_eff) at zero width to 1/(4 z_eff) at
    # weak field. The curve is strictly convex, so a line fitted over any
    # window of positive width extrapolates strictly below 1/(2 ip): over
    # F = 0.04 .. 0.11 by 26% (Clementi) and 33% (Kullie), and even the
    # tangent at F = 0.11 lands 8.3% and 20.6% low. The criterion therefore
    # holds only as a limit, checked on windows that shrink toward F_a. In
    # units of 1/(2 ip) and 1/(8 z_eff) the curve depends on F/F_a alone, so
    # both atoms give the same relative gaps.
    #
    # The slope is checked too: tau_i = (ip/F - d_B) / (8 z_eff), so
    # tau_d - tau_i = d_B / (4 z_eff) is linear in d_B and both fits share
    # one intercept on any grid. Only the slope tells them apart.
    epsilons = [0.4 / 2 ** j for j in range(8)]
    details = []
    ok = True
    for atom in he_models():
        gaps, slopes = zip(*(chord_gaps(atom, eps) for eps in epsilons))
        # Convexity: every chord lies below the limit, with a slope above the
        # zero-width tangent.
        ok = ok and all(g > 0.0 for g in gaps) and all(s > 0.0 for s in slopes)
        # The intercept gap is a eps + O(eps^2) and the slope excess is
        # b sqrt(eps) + O(eps^1.5), so halving eps halves the gap and divides
        # the excess by sqrt(2), up to O(eps) in each ratio.
        for j in range(1, len(epsilons)):
            ok = (ok and abs(gaps[j] / gaps[j - 1] - 0.5) <= epsilons[j - 1]
                  and abs(slopes[j] / slopes[j - 1] - 2 ** -0.5) <= epsilons[j - 1])
        # Richardson removes the leading term. On the narrowest window
        # O(eps^2) ~ 1e-5 remains for the gap and O(eps^1.5) ~ 2e-4 for the
        # slope; the bounds 1e-4 and eps allow coefficients of about 10 and 18.
        gap_limit = 2.0 * gaps[-1] - gaps[-2]
        slope_limit = (2 ** 0.5 * slopes[-1] - slopes[-2]) / (2 ** 0.5 - 1.0)
        ok = (ok and gaps[-1] <= 0.05 and abs(gap_limit) <= 1e-4
              and abs(slope_limit) <= epsilons[-1])
        # The stated grid keeps its chord fit, 26% / 33% below the limit.
        fit = fit_width_relation(run_sweep(atom, FIT_GRID))
        slope_ref, intercept_ref = STATED_GRID_FIT[atom.source]
        ok = (ok and rel_err(fit.slope_as_per_au, slope_ref) <= 1e-8
              and rel_err(fit.intercept_as, intercept_ref) <= 1e-8)
        details.append(f"{atom.source}: gap {gaps[-1]:.2e} -> {gap_limit:.1e}, "
                       f"slope excess {slopes[-1]:.2e} -> {slope_limit:.1e}, "
                       f"stated-grid intercept {fit.intercept_as:.3f} as")
    assert report("C7b width-fit intercept", ok, "; ".join(details))


def test_criterion_7c_photon_baseline():
    ok = True
    for atom in he_models():
        _, _, values = figure_table(run_sweep(atom, FIT_GRID), "fig4")
        ok = ok and len(values) == len(FIT_GRID)
        for _, tau_d, light in values:
            ok = ok and light < tau_d
    assert report("C7c photon baseline below crossing time", ok)


def test_criterion_8_superatomic_complex_decomposition():
    worst = worst_limit = 0.0
    for atom in he_models():
        fa = atomic_field_strength(atom)
        for gap in np.geomspace(1e-9, 1.0, 50):
            _, clocks = evaluate(atom, fa * (1.0 + float(gap)))
            tau_d_c, tau_i_c = clocks.complex_parts
            worst = max(worst,
                        rel_err(tau_d_c.real, tau_i_c.real),
                        rel_err(tau_d_c.imag, -tau_i_c.imag))
        tau_d_c, _ = evaluate(atom, fa * (1.0 + 1e-9))[1].complex_parts
        worst_limit = max(worst_limit, abs(tau_d_c.real - 0.5 / atom.ip))
    ok = worst <= 1e-13 and worst_limit <= 1e-6
    assert report("C8 super-atomic complex decomposition", ok,
                  f"conjugacy {worst:.2e}, limit gap {worst_limit:.2e} au")


def test_criterion_9_harness_fixtures(tmp_path):
    atom = catalog_lookup("He:clementi")
    grid = [0.03 + 0.01 * k for k in range(9)]
    rows = run_sweep(atom, grid)

    def write(path, offset, err):
        lines = ["field_au,time_as,err_as"]
        lines += [f"{row.f!r},{tau_d_as(row) + offset!r},{err!r}" for row in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    self_report = compare(atom, "tau_d",
                          load_measurements(write(tmp_path / "self.csv", 0.0, 0.0)))
    offset_report = compare(atom, "tau_d",
                            load_measurements(write(tmp_path / "off.csv", 1.0, 2.0)))
    identical = all(
        emit_figure_data(run_sweep(atom, grid), fig).encode()
        == emit_figure_data(run_sweep(atom, grid), fig).encode()
        for fig in ("fig2", "fig3", "fig4"))
    ok = (self_report.rms == 0.0 and self_report.fraction_within_bars == 1.0
          and abs(offset_report.rms - 1.0) <= 1e-9 and identical)
    assert report("C9 harness fixtures", ok,
                  f"self rms {self_report.rms!r}, offset rms {offset_report.rms!r}")


def test_criterion_10_cli_end_to_end(tmp_path, capsys):
    def run(*argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    def record(out):
        header, row = out.strip().splitlines()[:2]
        return dict(zip(header.split(","), row.split(",")))

    checks = []

    code, out = run("geometry", "--atom", "He:clementi", "--field", "0.06")
    checks.append(code == 0 and abs(float(record(out)["x_exit_au"]) - 12.8750) < 5e-4)

    code, out = run("times", "--atom", "He:clementi", "--field", "0.06")
    checks.append(code == 0 and abs(float(record(out)["tau_d_as"]) - 46.14) < 5e-3)

    code, out = run("sweep", "--atom", "He:clementi", "--grid", "0.03:0.11:0.01",
                    "--figure", "fig3")
    body = [l for l in out.strip().splitlines() if not l.startswith("#")]
    checks.append(code == 0 and len(body) == 10)

    fixture = tmp_path / "self.csv"
    rows = run_sweep(catalog_lookup("He:clementi"), [0.04, 0.06, 0.08])
    fixture.write_text(
        "field_au,time_as,err_as\n"
        + "".join(f"{r.f!r},{tau_d_as(r)!r},1.0\n" for r in rows),
        encoding="utf-8")
    code, out = run("compare", "--atom", "He:clementi", "--estimator", "tau_d",
                    str(fixture))
    checks.append(code == 0 and float(record(out)["rms_as"]) == 0.0)

    checks.append(run("geometry", "--atom", "He:clementi", "--field", "-1")[0] == 2)
    checks.append(run("sweep", "--atom", "He:clementi", "--grid", "0.15",
                      "--figure", "fig4")[0] == 3)
    checks.append(run("compare", "--atom", "He:clementi", "--estimator", "tau_d",
                      str(tmp_path / "missing.csv"))[0] == 2)

    ok = all(checks)
    assert report("C10 CLI end-to-end", ok, f"{sum(checks)}/{len(checks)} checks")
