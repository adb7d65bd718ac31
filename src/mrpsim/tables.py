"""Plain-text and CSV renderers for the study's summary tables.

Each renderer takes a `read_results` summary or row dicts and returns a
string, the CSV variant with the same content.  The tables of best cells
all go through `_best_table`.
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


def _best_table(rows, title: str, header: list[str], keep, order, columns,
                csv: bool) -> str:
    """The winners of `rows` that `keep` admits, sorted by `order`, as one
    `columns(cell)` row each."""
    cells = sorted(filter(keep, best_per_instance(rows).values()), key=order)
    return _emit(title, header, [columns(c) for c in cells], csv)


def best_parameters_table(rows, mode: str, csv: bool) -> str:
    """Cost-optimal planning parameters per instance for one netting mode."""
    return _best_table(
        rows, f"Best planning parameters ({mode} netting), costs per period",
        ["instance", "SST", "PLT", "policy", "comp lot", "cost", "WIP", "FGI",
         "backorder", "service", "leadtime"],
        lambda c: c.mode == mode,
        lambda c: (c.utilization, c.beta, c.bias, c.alpha, c.instance_id),
        lambda c: [f"{c.utilization} {c.bias} a={c.alpha:g}",
                   f"{c.sst_factor:g}", str(c.plt), c.policy_label,
                   str(c.comp_lot), _fmt(c.mean_cost), _fmt(c.mean_wip),
                   _fmt(c.mean_fgi), _fmt(c.mean_backorder),
                   f"{c.mean_service:.3f}", f"{c.mean_leadtime:.2f}"], csv)


_COMPARE_HEADER = ["instance", "standard", "extended", "change", "p-value",
                   "sig"]


def mode_comparison_table(rows, paired: bool, csv: bool) -> str:
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


def noise_response_table(rows, utilization: str, csv: bool) -> str:
    """Best standard-netting cell per noise level for one utilization,
    unbiased demand: shows how optimal parameters drift as alpha grows."""
    return _best_table(
        rows, f"Cost response to forecast noise ({utilization} utilization, "
        f"standard netting)",
        ["alpha", "SST", "PLT", "policy", "cost", "WIP", "FGI", "backorder",
         "service"],
        lambda c: (c.mode == "standard" and c.utilization == utilization
                   and c.beta == 0),
        lambda c: c.alpha,
        lambda c: [f"{c.alpha:g}", f"{c.sst_factor:g}", str(c.plt),
                   c.policy_label, _fmt(c.mean_cost), _fmt(c.mean_wip),
                   _fmt(c.mean_fgi), _fmt(c.mean_backorder),
                   f"{c.mean_service:.3f}"], csv)


def bias_response_table(rows, csv: bool) -> str:
    """Best extended-netting cell per biased instance: over/underbooking."""
    return _best_table(
        rows, "Best planning parameters under forecast bias "
        "(extended netting)",
        ["schedule", "alpha", "SST", "PLT", "policy", "cost", "service"],
        lambda c: c.mode == "extended" and c.beta == 1,
        lambda c: (c.utilization, c.bias, c.alpha),
        lambda c: [f"{c.utilization} {c.bias}", f"{c.alpha:g}",
                   f"{c.sst_factor:g}", str(c.plt), c.policy_label,
                   _fmt(c.mean_cost), f"{c.mean_service:.3f}"], csv)


TABLES = {
    "best-standard": lambda rows, paired, csv: best_parameters_table(
        rows, "standard", csv),
    "best-extended": lambda rows, paired, csv: best_parameters_table(
        rows, "extended", csv),
    "mode-comparison": lambda rows, paired, csv: mode_comparison_table(
        rows, paired, csv),
    "noise-low": lambda rows, paired, csv: noise_response_table(
        rows, "low", csv),
    "noise-medium": lambda rows, paired, csv: noise_response_table(
        rows, "medium", csv),
    "noise-high": lambda rows, paired, csv: noise_response_table(
        rows, "high", csv),
    "bias": lambda rows, paired, csv: bias_response_table(rows, csv),
}
