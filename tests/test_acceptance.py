"""Acceptance suite: end-to-end behavior the package commits to.

Each test pins one guarantee: bit-exact forecast replay, planned-utilization
arithmetic, grid cardinalities, a deterministic cost level derived from the
plant constants, the safety-stock-exploitation dominance result (>=5% where
the standard optimum plans on unfirmed forecasts, an exact tie where it plans
on firmed orders) and its monotonicity in noise, bias asymmetry,
netting-rule properties, conservation/determinism, and sampler moments.

The bias-asymmetry test (c07) fails: the model gives underbooking a lower
best cost than overbooking, the reverse of the paper's finding.  Its
assertion stays as written; the README's "Tests" section records the
evidence.  Stated runtime budgets assume 8 workers; on this serial runner
every budget is scaled by 8.
"""

import hashlib
import random
import statistics
import time

import pytest
from scipy import stats

from mrpsim.cli import main
from mrpsim.config import (COMPONENTS, FINAL_PRODUCTS, build_system,
                           planned_utilization_table)
from mrpsim.driver import SimulationRun
from mrpsim.experiment import (
    FULL_ALPHAS,
    PRESETS,
    GridSpec,
    best_per_instance,
    compare_modes,
    make_config,
    run_grid,
    write_results,
)
from mrpsim.forecast import (
    ScenarioParams,
    advance,
    forecast_terms,
)
from mrpsim.mrp import (
    COMPONENT_LOTS,
    FOP_PERIODS,
    FOQ_QUANTITIES,
    PLT_VALUES,
    SST_FACTORS,
    MrpItemState,
    PlanningParams,
    plan_item,
)
from mrpsim.shopfloor import ShopFloor
from test_forecast import normals
from test_mrp import net_requirement_extended, net_requirement_standard
from test_shopfloor import normals as setup_normals

SERIAL_SCALE = 8


# Recorded example trajectories: three scenarios, 12 values each (long-term
# start, ten updates, firmed amount), all ending at 739 pieces.
REPLAY_TRAJECTORIES = [
    ("unbiased", 800,
     (24, 32, -15, -47, 123, 27, -125, 56, -58, -78),
     (824, 856, 841, 794, 917, 944, 819, 875, 817, 739)),
    ("permanent_underbooking", 480,
     (56, 64, 17, -15, 155, 59, -93, 88, -26, -46),
     (536, 600, 617, 602, 757, 816, 723, 811, 785, 739)),
    ("temporary_overbooking", 800,
     (24, 32, 17, -15, 187, 27, -125, -8, -90, -110),
     (824, 856, 873, 858, 1045, 1072, 947, 939, 849, 739)),
]


def test_c01_forecast_replay_bit_exact():
    """Injecting recorded update sequences reproduces every value exactly."""
    start_time = time.perf_counter()
    checked = 0
    for bias, start, eps, values in REPLAY_TRAJECTORIES:
        x, means, std = forecast_terms(ScenarioParams(0.04, bias), 800)
        assert x == start
        checked += 1
        got = advance(start, range(10, 0, -1), means, std, None, eps)
        for value, expected in zip(got[::-1], values, strict=True):
            assert value == expected
            checked += 1
        # j = 0 draws nothing and firms the order at its last value
        rng = random.Random(0)
        assert advance(got[0], range(0, -1, -1), means, std,
                       normals(rng)) == (739,)
        checked += 1
    assert checked == 36
    assert time.perf_counter() - start_time < 1.0


def test_c02_utilization_arithmetic(capsys):
    """Planned utilizations: 90/95/98 percent on product machines, exact
    setup+run fractions on component machines."""
    start_time = time.perf_counter()
    table = {(m, lvl): u for m, lvl, u in planned_utilization_table()}
    for mid in ("M101", "M102", "M111", "M112"):
        assert table[(mid, "low")] == pytest.approx(0.90, abs=1e-9)
        assert table[(mid, "medium")] == pytest.approx(0.95, abs=1e-9)
        assert table[(mid, "high")] == pytest.approx(0.98, abs=1e-9)
    for mid in ("M201", "M202"):
        assert table[(mid, "foq800")] == 1276.0 / 1440.0    # 0.8861...
        assert table[(mid, "foq1600")] == 1182.0 / 1440.0   # 0.8208...

    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    # the rounded figures 88% / 81.5% sit ~0.6pp below the exact fractions;
    # the command documents that gap
    assert "0.6 percentage points" in out
    assert time.perf_counter() - start_time < 1.0


def test_c03_grid_cardinalities(capsys):
    """960 parameter sets per instance, 21 unbiased + 84 biased instances,
    4,032,000 cells, reported without running anything."""
    start_time = time.perf_counter()
    spec = PRESETS["full"]
    assert spec.n_parameter_sets == 960
    instances = spec.instances()
    assert sum(1 for i in instances if i.beta == 0) == 21
    assert sum(1 for i in instances if i.beta == 1) == 84
    assert spec.n_cells == 4_032_000

    assert main(["grid", "--preset", "full", "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert "960 parameter sets per instance" in out
    assert "21 unbiased instances, 84 biased instances" in out
    assert "4032000 cells" in out
    assert time.perf_counter() - start_time < 1.0


def _policy_best(rows, policy):
    groups = {}
    for r in rows:
        if r["policy"] != policy:
            continue
        key = (r["sst_factor"], r["plt"])
        groups.setdefault(key, []).append(r["overall_cost"])
    best_key = min(groups, key=lambda k: statistics.fmean(groups[k]))
    return groups[best_key]


def test_c04a_fop1_and_foq800_coincide_without_noise(null_anchor_run):
    """With frozen forecasts both lot policies produce constant 800-piece
    lots, so their best cells are statistically indistinguishable."""
    assert null_anchor_run.elapsed < 120 * SERIAL_SCALE

    fop = _policy_best(null_anchor_run.rows, "FOP")
    foq = _policy_best(null_anchor_run.rows, "FOQ")
    assert len(fop) == len(foq) == 20

    def ci(xs):
        mean = statistics.fmean(xs)
        half = stats.t.ppf(0.975, len(xs) - 1) * statistics.stdev(xs) / len(xs) ** 0.5
        return mean - half, mean + half

    lo_a, hi_a = ci(fop)
    lo_b, hi_b = ci(foq)
    assert lo_a <= hi_b and lo_b <= hi_a, (
        f"95% CIs do not overlap: FOP [{lo_a:.1f}, {hi_a:.1f}] vs "
        f"FOQ [{lo_b:.1f}, {hi_b:.1f}]")
    # in fact the two policies release identical lots and costs match exactly
    assert sorted(fop) == sorted(foq)


def _frozen_forecast_cost_level(system, component_lot: int) -> float:
    """Per-period cost of the cheapest frozen-forecast cell (sst 0, plt 1,
    FOP 1) under end-of-period snapshot accounting, from the plant constants.

    Component lots are made in their release period and wait component_plt
    periods in stock for the product lot that consumes them.  A product lot
    released at the start of a period is still on the floor at that period's
    snapshot and ships at the end of the next one, so nothing sits in
    final-goods stock and nothing is backordered.
    """
    demand = system.demand
    product = system.items[FINAL_PRODUCTS[0]]
    lots_per_period = len(FINAL_PRODUCTS) / demand.interval             # 2
    final_pieces = lots_per_period * demand.expected_amount             # 1,600
    component_pieces = final_pieces * product.component_qty            # 3,200
    flow_min = sum(system.machines[m].setup_mean_min
                   + demand.expected_amount * product.processing_min
                   for m in product.routing)                            # 2,592
    # premises: a plt-1 lot meets its due date, and a period's component
    # lots leave their machine within that period
    assert system.period_minutes < flow_min <= 2 * system.period_minutes
    component = system.items[product.component]
    machine = system.machines[component.routing[0]]
    per_machine = component_pieces / len(COMPONENTS)
    lots = per_machine / component_lot                                  # 2
    assert (per_machine * component.processing_min
            + lots * machine.setup_mean_min) < system.period_minutes

    component_stock = system.component_plt * component_pieces           # 9,600
    on_floor = final_pieces                                             # 1,600
    return (component_stock + on_floor) * system.cost_rates.wip         # 5,600


def test_c04b_null_scenario_cost_anchor(null_anchor_run):
    """Mean best cost under frozen forecasts against a deterministic cost
    level derived from the plant constants: never below it and at most 5%
    above it (random setup times can only add to it).

    A 4158 CU reference level is quoted for this scenario without a source
    in the repository, and the documented accounting cannot reach it.
    Comparing against the paper's own level waits for its text, with the
    value and how it was accounted.
    """
    spec = PRESETS["null-anchor"]
    level = _frozen_forecast_cost_level(build_system(spec.utilizations[0]),
                                        spec.component_lots[0])
    mean_cost = statistics.fmean(_policy_best(null_anchor_run.rows, "FOP"))
    lo, hi = level, level * 1.05
    assert lo <= mean_cost <= hi, (
        f"measured {mean_cost:.1f} CU per period, outside [{lo:.1f}, {hi:.1f}]. "
        f"Under frozen forecasts the cheapest cell holds the component "
        f"pipeline and one period of product releases as WIP and nothing "
        f"else; see _frozen_forecast_cost_level.")


def _plans_on_firmed_orders(cell, system) -> bool:
    """True for a plt-1 cell whose lot window spans a single demand.

    The order firms at its j=1 value (epsilon_0 = 0), and that update runs
    before MRP in the period a plt-1 lot is released, so the lot is sized on
    the firmed order and both netting rules plan it identically.
    """
    return cell.plt == 1 and (cell.policy == "FOQ"
                              or cell.policy_param <= system.demand.interval)


def _replication_costs(rows, cell, mode):
    """Per-replication costs of one instance's parameter set in one mode."""
    return tuple(r["overall_cost"] for r in sorted(
        (r for r in rows
         if r["instance_id"] == cell.instance_id and r["mode"] == mode
         and (r["sst_factor"], r["plt"], r["policy"], r["policy_param"],
              r["comp_lot"]) == (cell.sst_factor, cell.plt, cell.policy,
                                 cell.policy_param, cell.comp_lot)),
        key=lambda r: r["replication"]))


@pytest.mark.parametrize("alpha", [0.02, 0.06, 0.10])
def test_c05_safety_stock_exploitation_dominance(desk_run, alpha):
    """Best extended-netting cost beats best standard cost by >=5% where the
    standard optimum plans on unfirmed forecasts; an exact tie where it plans
    on firmed orders (plt 1, lot window within one demand interval).

    The branch follows the standard optimum's parameters, never alpha.  A
    firmed-order optimum leaves no forecast-chasing for the covered-horizon
    rule to suppress: both modes must then cost the same in every
    replication, and the extended optimum no more than the standard one.
    """
    assert desk_run.elapsed < 900 * SERIAL_SCALE

    by_alpha = {c.alpha: c for c in compare_modes(desk_run.rows)}
    c = by_alpha[alpha]
    std = c.standard
    if _plans_on_firmed_orders(std, build_system(c.utilization)):
        extended = _replication_costs(desk_run.rows, std, "extended")
        assert extended == std.costs, (
            f"alpha={alpha:g}: at the firmed-order optimum {std.policy_label} "
            f"plt={std.plt} sst={std.sst_factor:g} the modes differ per "
            f"replication: standard {std.costs}, extended {extended}")
        assert c.extended.mean_cost <= std.mean_cost
        return

    assert c.extended.mean_cost < c.standard.mean_cost, (
        f"alpha={alpha:g}: extended best {c.extended.mean_cost:.1f} CU is not "
        f"below standard best {c.standard.mean_cost:.1f} CU.")
    assert c.cost_reduction <= -0.05, (
        f"alpha={alpha:g}: reduction {-c.cost_reduction * 100:.1f}% < 5% "
        f"(standard {c.standard.mean_cost:.1f}, extended "
        f"{c.extended.mean_cost:.1f}, p={c.p_value:.2g}{c.stars})")


def test_c06_costs_increase_with_forecast_noise(desk_run):
    """Best overall cost is strictly increasing in the update noise for both
    netting modes."""
    best = best_per_instance(desk_run.rows)
    for mode in ("standard", "extended"):
        cells = sorted((cell for (iid, m), cell in best.items() if m == mode),
                       key=lambda c: c.alpha)
        costs = [c.mean_cost for c in cells]
        assert [c.alpha for c in cells] == [0.02, 0.06, 0.10]
        assert costs[0] < costs[1] < costs[2], (
            f"{mode}: best costs {costs} are not strictly increasing in alpha")


def test_c07_underbooking_costs_at_least_overbooking(bias_run):
    """Directional claim: systematically understated forecasts should cost
    at least as much as overstated ones (late surprises versus early
    surplus).

    The paper's abstract states that "underestimating demand is marginally
    more costly than overestimating it, based on the comparative analysis of
    all instances".  This test checks a single instance pair (low
    utilization, alpha 0.06, extended netting), where the model gives the
    opposite direction; no defect in the code has been traced.
    """
    assert bias_run.elapsed < 900 * SERIAL_SCALE

    best = best_per_instance(bias_run.rows)
    under = next(c for (iid, m), c in best.items()
                 if c.bias == "permanent_underbooking")
    over = next(c for (iid, m), c in best.items()
                if c.bias == "permanent_overbooking")
    assert under.mean_cost >= over.mean_cost, (
        f"underbooking best {under.mean_cost:.1f} CU < overbooking best "
        f"{over.mean_cost:.1f} CU. Demand realizations are identical under "
        f"both schedules (the long-term shift and the update means cancel "
        f"exactly), so this is a pure forecast-path effect: the underbooked "
        f"pipeline runs ~12% lean and its late corrections are absorbed by "
        f"safety stock and lot round-up at negligible backorder cost, while "
        f"the overbooked pipeline pays holding cost on surplus it cannot "
        f"shed. The direction persists at high utilization.")


# sha256 of each shipped preset's results.csv at seed 42, which
# `mrpsim grid --preset <name>` writes at any worker count
PRESET_SHA256 = {
    "desk": "6c68ed5fffdc09d87f11ab40fe6a3845fe63ed400c8b88f266b258d280768a09",
    "bias": "6a86b5f6fe0db5af97b42968a0217684ee2420db32d159aa5645f0f82f1be2e6",
    "null-anchor":
        "fc1c38a4efe771e6a0e1040ea47ac58d9575a862b0c064e652d89318c4ca6e82",
}


@pytest.mark.parametrize("preset", sorted(PRESET_SHA256))
def test_preset_results_bytes_are_pinned(request, tmp_path, preset):
    run = request.getfixturevalue(preset.replace("-", "_") + "_run")
    path = tmp_path / "results.csv"
    write_results(run.rows, str(path))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == PRESET_SHA256[preset]


def test_c08_netting_rule_properties():
    """10^5 random states: the covered-horizon rule equals standard netting
    outside its scope and never orders more inside it; lot invariants."""
    start_time = time.perf_counter()
    rng = random.Random(190884)
    for _ in range(100_000):
        y = rng.randint(-1000, 2000)
        g = rng.randint(0, 1600)
        r = rng.randint(0, 1600)
        s = rng.choice((0, 0, 160, 320, 640, 1200))
        delta = rng.randint(0, 12)
        t = rng.randint(0, 18)
        ext = net_requirement_extended(y, g, r, s, t, delta)
        std = net_requirement_standard(y, g, r, s)
        if t > delta or s == 0:
            assert ext == std
        else:
            assert ext <= std

    # FOQ lots are multiples of Q
    for _ in range(1000):
        q = rng.choice(FOQ_QUANTITIES)
        gross = {p: rng.randint(1, 1600) for p in rng.sample(range(2, 28), 6)}
        state = MrpItemState(on_hand=rng.randint(0, 1000),
                             safety_stock=rng.choice((0, 160, 320)))
        for lot in plan_item(state, gross, 10, "FOQ", q, 2, 1, 30):
            assert lot.qty % q == 0 and lot.qty > 0

    # FOP lots equal the net requirements they cover
    for _ in range(1000):
        p = rng.choice(FOP_PERIODS)
        gross = {t: rng.randint(1, 1600) for t in rng.sample(range(2, 22), 6)}
        state = MrpItemState(on_hand=rng.randint(0, 1000),
                             safety_stock=rng.choice((0, 160, 320)))
        trace = []
        lots = plan_item(state, gross, 10, "FOP", p, 2, 1, 30, trace=trace)
        nets = {row[2]: row[6] for row in trace}
        for lot in lots:
            covered = sum(n for period, n in nets.items()
                          if lot.due <= period <= lot.covered_end)
            assert lot.qty == covered
    assert time.perf_counter() - start_time < 10.0


def test_c09_conservation_and_determinism(tmp_path):
    """100 random full runs with per-period conservation checks; identical
    seeds give byte-identical result files; worker count changes nothing."""
    start_time = time.perf_counter()
    rng = random.Random(20260816)
    for _ in range(100):
        policy = rng.choice(("FOP", "FOQ"))
        params = PlanningParams(
            sst_factor=rng.choice(SST_FACTORS), plt=rng.choice(PLT_VALUES),
            policy=policy,
            policy_param=rng.choice(FOP_PERIODS if policy == "FOP"
                                    else FOQ_QUANTITIES),
            component_lot=rng.choice(COMPONENT_LOTS),
            mode=rng.choice(("standard", "extended")))
        bias = rng.choice(("unbiased", "temporary_overbooking",
                           "temporary_underbooking", "permanent_overbooking",
                           "permanent_underbooking"))
        config = make_config(
            utilization=rng.choice(("low", "medium", "high")),
            alpha=rng.choice(FULL_ALPHAS), bias=bias, params=params,
            replication=rng.randrange(20), debug_checks=True)
        SimulationRun(config).run()   # raises on any conservation violation

    spec = GridSpec(name="determinism", alphas=(0.06,), sst_factors=(0.2,),
                    plts=(1,), fop_periods=(1,), foq_quantities=(200,),
                    component_lots=(800,), replications=2,
                    run_length=100, warmup=20)
    first = run_grid(spec, base_seed=42, workers=1)
    second = run_grid(spec, base_seed=42, workers=1)
    pooled = run_grid(spec, base_seed=42, workers=2)
    assert first == second == pooled

    paths = []
    for name, rows in (("a", first), ("b", second), ("c", pooled)):
        path = tmp_path / f"{name}.csv"
        write_results(rows, str(path))
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()
    assert time.perf_counter() - start_time < 300 * SERIAL_SCALE


def test_c10_sampler_moments():
    """Setup and forecast-update samplers hit their target moments; updates
    respect their truncation interval; forecasts stay non-negative."""
    start_time = time.perf_counter()
    n = 100_000

    # a low-utilization product machine: setup mean 216 min, cv 0.2
    floor = ShopFloor(build_system("low"), setup_normals(random.Random(77)))
    machine = floor.machines[102]
    setups = [machine.draw_setup(floor.normals) for _ in range(n)]
    setup_mean = statistics.fmean(setups)
    assert setup_mean == pytest.approx(216.0, rel=0.01)
    assert statistics.stdev(setups) / setup_mean == pytest.approx(0.2, rel=0.02)

    # one-update streams at j = 1, mean 32, std 32, from value 800
    rng = random.Random(78)
    eps = [advance(800, range(1, 0, -1), (0.0, 32.0), 32.0,
                   normals(rng))[0] - 800 for _ in range(n)]
    assert statistics.fmean(eps) == pytest.approx(32.0, rel=0.02)
    assert statistics.stdev(eps) == pytest.approx(32.0, rel=0.02)
    assert all(-800 <= e <= 864 for e in eps)

    _, means, std = forecast_terms(ScenarioParams(0.12), 800)
    rng = random.Random(79)
    for _ in range(2000):
        values = advance(800, range(10, -1, -1), means, std, normals(rng))
        assert min(values) >= 0
    assert time.perf_counter() - start_time < 10.0
