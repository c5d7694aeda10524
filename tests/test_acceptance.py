"""Acceptance suite: nine end-to-end checks of the full model stack.

Every test prints one verdict line of the form

    [acceptance] C<n> PASS|FAIL: <measured figures>

(visible with pytest -s; captured output is replayed on failure).  The
statistical checks pool a fixed set of seeds, so the whole suite is
deterministic; tolerances are sized to sit several standard errors away
from the expected sampling noise at these run lengths.

C1  single-server queue matches M/M/1 closed forms
C2  four-server pooled queue matches the Erlang-C delay formula
C3  lower priorities always wait longer (20 seeds)
C4  overloaded team: urgent work stays fast while the lowest class decays
C5  closing the loop degrades service beyond the uncoupled baseline
C6  integrator accuracy: lag closed form, mass balance, step halving
C7  with all gains zero the coupling has an exact identity fixed point
C8  command line runs are byte-reproducible
C9  synthetic corpus round-trips through ingestion and rate fitting
"""
import math
import subprocess
import sys
from dataclasses import replace

from teamsim.des import DesModifiers, merge_stats, run_des
from teamsim.domain import Priority
from teamsim.hybrid import run_hybrid
from teamsim.io.scenario import default_scenario
from teamsim.io.tickets import SynthClass, SynthSpec, generate_synthetic, ingest_tickets
from teamsim.sd import SdState, mass_residuals, run_sd

from conftest import mm1_config, mmc_config
from test_hybrid import zero_gain_scenario
from test_sd import BUSY_INIT, busy_params, inert_params


def verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


def erlang_c_wait(c: int, lam: float, mu: float) -> float:
    """Mean queueing delay of M/M/c by direct summation."""
    a = lam / mu
    rho = a / c
    if rho >= 1.0:
        raise ValueError("unstable system")
    tail = (a**c / math.factorial(c)) / (1.0 - rho)
    denom = sum(a**k / math.factorial(k) for k in range(c)) + tail
    p_wait = tail / denom
    return p_wait / (c * mu - lam)


def mann_kendall_p(series) -> float:
    """One-sided (increasing) Mann-Kendall trend p-value, tie-corrected."""
    n = len(series)
    s = 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            d = series[j] - series[i]
            s += (d > 0) - (d < 0)
    counts: dict[float, int] = {}
    for v in series:
        counts[v] = counts.get(v, 0) + 1
    var = n * (n - 1) * (2 * n + 5) / 18.0
    var -= sum(t * (t - 1) * (2 * t + 5) for t in counts.values() if t > 1) / 18.0
    if var <= 0.0:
        return 1.0
    if s > 0:
        z = (s - 1) / math.sqrt(var)
    elif s < 0:
        z = (s + 1) / math.sqrt(var)
    else:
        z = 0.0
    return 0.5 * math.erfc(z / math.sqrt(2.0))


# ------------------------------------------------------------ the criteria


def test_c1_single_server_queue_matches_mm1():
    # lambda 0.8/day against a 1/day server: L = 4 items, Wq = 4 days
    cfg = mm1_config(daily_rate=0.8)
    pooled = None
    for seed in range(10):
        stats, _ = run_des(cfg, seed=seed, horizon=50_000.0, collect_log=False)
        pooled = stats if pooled is None else merge_stats(pooled, stats)
    key = pooled.class_keys()[0]
    l_measured = pooled.to_flat_dict()["time_avg_in_system"]
    wq_measured = pooled.mean_queue_days(key)
    w_measured = pooled.mean_completion_days(key)
    lam = pooled.completed_total / pooled.total_days
    little_ratio = l_measured / (lam * w_measured)
    l_err = abs(l_measured - 4.0) / 4.0
    wq_err = abs(wq_measured - 4.0) / 4.0
    ok = l_err < 0.05 and wq_err < 0.05 and abs(little_ratio - 1.0) < 0.02
    verdict(
        "C1",
        ok,
        f"L={l_measured:.3f} (target 4, err {l_err:.2%}), "
        f"Wq={wq_measured:.3f}d (target 4, err {wq_err:.2%}), "
        f"Little ratio {little_ratio:.4f} (10 seeds x 50k days)",
    )


def test_c2_four_server_queue_matches_erlang_c():
    # four pooled servers at rho 0.8
    c, lam, mu = 4, 3.2, 1.0
    target = erlang_c_wait(c, lam, mu)
    cfg = mmc_config(c, daily_rate=lam)
    pooled = None
    for seed in range(10):
        stats, _ = run_des(cfg, seed=seed, horizon=20_000.0, collect_log=False)
        pooled = stats if pooled is None else merge_stats(pooled, stats)
    key = pooled.class_keys()[0]
    wq = pooled.mean_queue_days(key)
    err = abs(wq - target) / target
    ok = err < 0.07
    verdict(
        "C2",
        ok,
        f"Wq={wq:.4f}d vs Erlang-C {target:.4f}d, err {err:.2%} (c=4, 10 seeds x 20k days)",
    )


def test_c3_priority_ordering_of_waits():
    sc = default_scenario()
    qualified = 0
    ordered = 0
    examples = []
    for seed in range(20):
        stats, _ = run_des(sc.des, seed=seed, horizon=126.0, collect_log=False)
        qs = {pr: stats.pooled_queue_days(pr) for pr in Priority}
        if all(n >= 100 for _, n in qs.values()):
            qualified += 1
            q1, q2, q3 = (qs[pr][0] for pr in (Priority.P1, Priority.P2, Priority.P3))
            if q1 <= q2 <= q3:
                ordered += 1
            if len(examples) < 2:
                examples.append(f"seed {seed}: {q1:.2f}/{q2:.2f}/{q3:.2f}d")
    ok = qualified >= 15 and ordered == qualified
    verdict(
        "C3",
        ok,
        f"{qualified}/20 seeds qualified (>=100 completions per priority), "
        f"{ordered}/{qualified} ordered; e.g. {'; '.join(examples)}",
    )


def test_c4_overload_protects_urgent_work_and_starves_lowest():
    sc = default_scenario()
    details = []
    ok = True
    for seed in range(20, 25):
        stats, _ = run_des(sc.des, seed=seed, horizon=126.0, collect_log=False)
        q1, _ = stats.pooled_queue_days(Priority.P1)
        q2, _ = stats.pooled_queue_days(Priority.P2)
        p3 = stats.daily_queue_by_priority[Priority.P3]
        p = mann_kendall_p(p3)
        grows = p3[125] > p3[62] > p3[0]
        seed_ok = q1 <= 1.0 and q2 <= 10.0 and grows and p < 0.01
        ok = ok and seed_ok
        details.append(
            f"seed {seed}: P1 {q1:.2f}d P2 {q2:.2f}d "
            f"P3 day1/63/126 {p3[0]:.1f}/{p3[62]:.1f}/{p3[125]:.1f} p={p:.1e}"
        )
    verdict("C4", ok, "; ".join(details[:2]) + f" (+{len(details) - 2} more seeds)")


def test_c5_closing_the_loop_degrades_service():
    sc = default_scenario()
    wins = {"stops": 0, "p2_slower": 0, "p3_fewer": 0, "rework": 0}
    figures = []
    for seed in range(1, 11):
        report = run_hybrid(replace(sc, cycles_max=3, seed=seed, tol=1e-12))
        base = report.cycles[0].des_stats
        final = report.cycles[-1].des_stats
        p2_base, _ = base.pooled_completion_days(Priority.P2)
        p2_final, _ = final.pooled_completion_days(Priority.P2)
        if final.stop_count > base.stop_count:
            wins["stops"] += 1
        if p2_final > p2_base:
            wins["p2_slower"] += 1
        if final.completed_of_priority(Priority.P3) < base.completed_of_priority(Priority.P3):
            wins["p3_fewer"] += 1
        if final.rework_count > base.rework_count:
            wins["rework"] += 1
        if seed == 1:
            figures.append(
                f"seed 1: stops {base.stop_count}->{final.stop_count}, "
                f"P2 {p2_base:.2f}->{p2_final:.2f}d, "
                f"P3 done {base.completed_of_priority(Priority.P3)}->"
                f"{final.completed_of_priority(Priority.P3)}, "
                f"rework {base.rework_count}->{final.rework_count}"
            )
    ok = all(v >= 9 for v in wins.values())
    verdict(
        "C5",
        ok,
        f"direction wins over 10 seeds (3 cycles each): {wins}; {figures[0]}",
    )


def test_c6_integrator_accuracy():
    # (a) first-order lag against 1 - exp(-1)
    lag_params = inert_params(desired_backlog=30.0, tau_fatigue=5.0)
    lag = run_sd(SdState(project_backlog=60.0), lag_params, 5.0, 0.05).final_state.fatigue
    lag_err = abs(lag - (1.0 - math.exp(-1.0))) / (1.0 - math.exp(-1.0))

    # (b) mass balance, with and without the outflow clamp engaging
    params = busy_params()
    traj = run_sd(BUSY_INIT, params, 126.0, 0.25)
    resid = max(max(abs(a), abs(b)) for _, a, b in mass_residuals(traj, params))
    hot = busy_params(rework_inflow=0.4, ops_completion_days=0.05, project_completion_days=0.05)
    hot_traj = run_sd(BUSY_INIT, hot, 126.0, 0.25)
    hot_resid = max(max(abs(a), abs(b)) for _, a, b in mass_residuals(hot_traj, hot))

    # (c) halving the step barely moves the final stocks
    coarse = run_sd(BUSY_INIT, params, 126.0, 0.25).final_state
    fine = run_sd(BUSY_INIT, params, 126.0, 0.125).final_state
    worst_rel = 0.0
    for name in (
        "project_backlog",
        "project_wip",
        "project_completed",
        "ops_backlog",
        "ops_wip",
        "ops_completed",
        "rework_pool",
        "fatigue",
        "mgmt_pressure",
    ):
        a, b = getattr(coarse, name), getattr(fine, name)
        worst_rel = max(worst_rel, abs(a - b) / max(abs(b), 1e-9))

    ok = (
        lag_err < 0.02
        and resid < 1e-9
        and traj.clamp_events == 0
        and hot_resid < 1e-9
        and hot_traj.clamp_events > 0
        and worst_rel < 0.01
    )
    verdict(
        "C6",
        ok,
        f"lag err {lag_err:.3%}; residual {resid:.1e} (clamped run {hot_resid:.1e}, "
        f"{hot_traj.clamp_events} clamps); dt-halving worst {worst_rel:.3%}",
    )


def test_c7_zero_gain_identity_fixed_point():
    sc = zero_gain_scenario()
    logs = []
    report = run_hybrid(
        replace(sc, cycles_max=3, tol=1e-12), log_sink=lambda k, log: logs.append(log)
    )
    identity = all(rec.modifiers_out == DesModifiers() for rec in report.cycles)
    matches = True
    # strict: a cycle whose log never reached the sink fails the check
    for rec, log in zip(report.cycles, logs, strict=True):
        _, solo = run_des(sc.des, seed=sc.seed + rec.index, horizon=sc.horizon)
        if log != solo:
            matches = False
    ok = report.converged and identity and matches
    verdict(
        "C7",
        ok,
        f"converged={report.converged} after {report.n_cycles} cycles, "
        f"identity modifiers={identity}, logs match standalone runs={matches}",
    )


def test_c8_cli_runs_are_byte_reproducible(tmp_path):
    def cli(*args):
        res = subprocess.run(
            [sys.executable, "-m", "teamsim", *args], capture_output=True, text=True, timeout=300
        )
        assert res.returncode == 0, res.stderr
        return res

    pairs = []
    for tag in ("a", "b"):
        d = tmp_path / f"des_{tag}"
        cli("des", "default", "--horizon", "40", "--out", str(d))
        pairs.append(d)
    des_same = all(
        (pairs[0] / n).read_bytes() == (pairs[1] / n).read_bytes()
        for n in ("summary.json", "queue_lengths.csv", "eventlog.ndjson")
    )

    hy = []
    for tag in ("a", "b"):
        d = tmp_path / f"hy_{tag}"
        cli("hybrid", "default", "--cycles", "2", "--out", str(d))
        hy.append(d)
    hybrid_same = (hy[0] / "cycles.json").read_bytes() == (hy[1] / "cycles.json").read_bytes()

    spec = tmp_path / "spec.yaml"
    spec.write_text(
        "classes:\n"
        "- work_type: incident\n"
        "  daily_rate: 2.0\n"
        "  priority_mix: [0.4, 0.4, 0.2]\n"
        "  service_mean_hours: [1.5, 3.0, 5.0]\n"
        "span_days: 60\n"
    )
    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    cli("synth", str(spec), str(s1), "--seed", "4")
    cli("synth", str(spec), str(s2), "--seed", "4")
    synth_same = s1.read_bytes() == s2.read_bytes()

    ok = des_same and hybrid_same and synth_same
    verdict(
        "C8",
        ok,
        f"des bytes equal={des_same}, hybrid bytes equal={hybrid_same}, "
        f"synth bytes equal={synth_same}",
    )


def test_c9_synthetic_round_trip_recovers_rates(tmp_path):
    spec = SynthSpec(
        classes=[
            SynthClass("project_task", 1.6, (0.05, 0.45, 0.50), (4.0, 8.0, 12.0)),
            SynthClass("service_request", 2.0, (0.05, 0.35, 0.60), (2.0, 4.0, 8.0)),
            SynthClass("incident", 2.0, (0.40, 0.40, 0.20), (1.5, 3.0, 5.0)),
        ],
        span_days=2000.0,
    )
    path = tmp_path / "synth.csv"
    generate_synthetic(spec, seed=11, path=path)
    res = ingest_tickets(path)
    assert not res.errors

    true_rate = {c.work_type: c.daily_rate for c in spec.classes}
    true_mean = {
        (c.work_type, pr): c.service_mean_hours[i]
        for c in spec.classes
        for i, pr in enumerate(("P1", "P2", "P3"))
    }
    pooled: dict[str, float] = {}
    worst_rate = worst_mean = 0.0
    n_checked = 0
    for (wt, pr), obs in sorted(res.classes.items()):
        if obs.arrival_fit is not None:
            pooled[wt] = pooled.get(wt, 0.0) + obs.arrival_fit.rate_per_day
        if obs.n >= 200 and obs.mean_service_hours is not None:
            err = abs(obs.mean_service_hours - true_mean[(wt, pr)]) / true_mean[(wt, pr)]
            worst_mean = max(worst_mean, err)
            n_checked += 1
    for wt, rate in pooled.items():
        worst_rate = max(worst_rate, abs(rate - true_rate[wt]) / true_rate[wt])
    ok = worst_rate < 0.05 and worst_mean < 0.10 and n_checked >= 5
    verdict(
        "C9",
        ok,
        f"worst pooled rate err {worst_rate:.2%} (tol 5%), worst service mean err "
        f"{worst_mean:.2%} over {n_checked} classes with n>=200 (tol 10%)",
    )
