"""Plain-text and CSV renderers for the study's summary tables.

Each renderer takes result rows, a `read_results` summary or row dicts
shaped like experiment.RESULT_COLUMNS, and returns a string; the CSV
variants return comma-separated lines with the same content so results can
be diffed or loaded elsewhere.
"""

from __future__ import annotations

from .experiment import best_per_instance, compare_modes


def _fmt(value: float) -> str:
    return f"{value:,.0f}"


def _emit(title: str, header: list[str], rows: list[list[str]],
          csv: bool) -> str:
    if csv:
        body = [",".join(header)]
        body += [",".join(c.replace(",", "") for c in row) for row in rows]
        return "\n".join(body) + "\n"
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) if rows
              else len(header[i]) for i in range(len(header))]
    lines = [title, ""]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.rjust(w) if i else c.ljust(w)
                               for i, (c, w) in enumerate(zip(row, widths))))
    return "\n".join(lines) + "\n"


def has_rows(table: str, csv: bool) -> bool:
    """Whether a table this module emitted has a body row: a text table
    opens with four lines (title, blank, header, rule), a CSV table with
    one (header)."""
    return table.count("\n") > (1 if csv else 4)


_BEST_HEADER = ["instance", "SST", "PLT", "policy", "comp lot", "cost",
                "WIP", "FGI", "backorder", "service", "leadtime"]


def best_parameters_table(rows, mode: str, csv: bool = False) -> str:
    """Cost-optimal planning parameters per instance for one netting mode."""
    best = best_per_instance(rows)
    cells = [cell for (iid, m), cell in sorted(best.items()) if m == mode]
    cells.sort(key=lambda c: (c.utilization, c.beta, c.bias, c.alpha))
    body = [[f"{c.utilization} {c.bias} a={c.alpha:g}",
             f"{c.sst_factor:g}", str(c.plt), c.policy_label, str(c.comp_lot),
             _fmt(c.mean_cost), _fmt(c.mean_wip), _fmt(c.mean_fgi),
             _fmt(c.mean_backorder), f"{c.mean_service:.3f}",
             f"{c.mean_leadtime:.2f}"]
            for c in cells]
    return _emit(f"Best planning parameters ({mode} netting), "
                 f"costs per period", _BEST_HEADER, body, csv)


_COMPARE_HEADER = ["instance", "standard", "extended", "change", "p-value",
                   "sig"]


def mode_comparison_table(rows, paired: bool = False,
                          csv: bool = False) -> str:
    """Cost of the best extended-netting cell against the best standard
    cell per instance; ** p<0.01, * p<0.05."""
    comparisons = compare_modes(rows, paired=paired)
    body = []
    for cmp in comparisons:
        body.append([cmp.instance_id, _fmt(cmp.standard.mean_cost),
                     _fmt(cmp.extended.mean_cost),
                     f"{cmp.cost_reduction * 100:+.1f}%",
                     f"{cmp.p_value:.4f}", cmp.stars])
    test = "paired t-test" if paired else "Welch t-test"
    return _emit(f"Extended vs standard netting, best cell per instance "
                 f"({test})", _COMPARE_HEADER, body, csv)


_NOISE_HEADER = ["alpha", "SST", "PLT", "policy", "cost", "WIP", "FGI",
                 "backorder", "service"]


def noise_response_table(rows, mode: str, utilization: str,
                         csv: bool = False) -> str:
    """Best cell per forecast-noise level for one utilization, unbiased
    demand: shows how optimal parameters drift as alpha grows."""
    best = best_per_instance(rows)
    cells = [cell for (iid, m), cell in best.items()
             if m == mode and cell.utilization == utilization
             and cell.beta == 0]
    cells.sort(key=lambda c: c.alpha)
    body = [[f"{c.alpha:g}", f"{c.sst_factor:g}", str(c.plt), c.policy_label,
             _fmt(c.mean_cost), _fmt(c.mean_wip), _fmt(c.mean_fgi),
             _fmt(c.mean_backorder), f"{c.mean_service:.3f}"]
            for c in cells]
    return _emit(f"Cost response to forecast noise ({utilization} "
                 f"utilization, {mode} netting)", _NOISE_HEADER, body, csv)


_BIAS_HEADER = ["schedule", "alpha", "SST", "PLT", "policy", "cost",
                "service"]


def bias_response_table(rows, mode: str, csv: bool = False) -> str:
    """Best cell per biased instance: systematic over/underbooking."""
    best = best_per_instance(rows)
    cells = [cell for (iid, m), cell in best.items()
             if m == mode and cell.beta == 1]
    cells.sort(key=lambda c: (c.utilization, c.bias, c.alpha))
    body = [[f"{c.utilization} {c.bias}", f"{c.alpha:g}", f"{c.sst_factor:g}",
             str(c.plt), c.policy_label, _fmt(c.mean_cost),
             f"{c.mean_service:.3f}"]
            for c in cells]
    return _emit(f"Best planning parameters under forecast bias "
                 f"({mode} netting)", _BIAS_HEADER, body, csv)


TABLES = {
    "best-standard": lambda rows, paired, csv: best_parameters_table(
        rows, "standard", csv),
    "best-extended": lambda rows, paired, csv: best_parameters_table(
        rows, "extended", csv),
    "mode-comparison": lambda rows, paired, csv: mode_comparison_table(
        rows, paired, csv),
    "noise-low": lambda rows, paired, csv: noise_response_table(
        rows, "standard", "low", csv),
    "noise-medium": lambda rows, paired, csv: noise_response_table(
        rows, "standard", "medium", csv),
    "noise-high": lambda rows, paired, csv: noise_response_table(
        rows, "standard", "high", csv),
    "bias": lambda rows, paired, csv: bias_response_table(
        rows, "extended", csv),
}
