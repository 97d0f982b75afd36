"""ASCII rendering of experiment results, mirroring the paper's layout."""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.experiments.results import MixedStrategyResult, PureSweepResult

__all__ = ["ascii_table", "format_pure_sweep", "format_table1", "ascii_series",
           "format_engine_stats", "format_telemetry_summary",
           "format_cross_game",
           "format_empirical_game", "format_mixed_eval",
           "format_aggregated_sweep", "format_grid_result"]


def ascii_table(headers, rows, *, title: str | None = None) -> str:
    """Render a simple fixed-width table.

    ``rows`` is an iterable of sequences; every cell is str()-ed.
    """
    headers = [str(h) for h in headers]
    str_rows = [[str(c) for c in row] for row in rows]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but there are {len(headers)} headers"
            )
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows else len(headers[i])
        for i in range(len(headers))
    ]
    sep = "+-" + "-+-".join("-" * w for w in widths) + "-+"
    lines = []
    if title:
        lines.append(title)
    lines.append(sep)
    lines.append("| " + " | ".join(h.ljust(w) for h, w in zip(headers, widths)) + " |")
    lines.append(sep)
    for row in str_rows:
        lines.append("| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |")
    lines.append(sep)
    return "\n".join(lines)


def ascii_series(x, y, *, width: int = 60, height: int = 14,
                 x_label: str = "x", y_label: str = "y") -> str:
    """Tiny terminal scatter/line chart for a (x, y) series."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size == 0:
        raise ValueError("x and y must be matching non-empty 1-d arrays")
    x_min, x_max = float(x.min()), float(x.max())
    y_min, y_max = float(y.min()), float(y.max())
    x_span = x_max - x_min or 1.0
    y_span = y_max - y_min or 1.0
    grid = [[" "] * width for _ in range(height)]
    for xi, yi in zip(x, y):
        col = int((xi - x_min) / x_span * (width - 1))
        row = height - 1 - int((yi - y_min) / y_span * (height - 1))
        grid[row][col] = "*"
    lines = [f"{y_label}  [{y_min:.3f} .. {y_max:.3f}]"]
    lines += ["|" + "".join(row) for row in grid]
    lines.append("+" + "-" * width)
    lines.append(f" {x_label}  [{x_min:.3f} .. {x_max:.3f}]")
    return "\n".join(lines)


def format_pure_sweep(result: PureSweepResult) -> str:
    """Figure-1 data as a table plus two terminal charts."""
    rows = [
        (f"{p:.1%}", f"{c:.4f}", f"{a:.4f}")
        for p, c, a in zip(result.percentiles, result.acc_clean, result.acc_attacked)
    ]
    table = ascii_table(
        ["filtered", "accuracy (no attack)", "accuracy (optimal attack)"],
        rows,
        title=(
            f"Figure 1 — pure strategy defence under optimal attack "
            f"({result.dataset_name}, {result.poison_fraction:.0%} poisoning, "
            f"N={result.n_poison})"
        ),
    )
    best_p, best_acc = result.best_pure
    chart = ascii_series(
        result.percentiles, result.acc_attacked,
        x_label="fraction removed by filter", y_label="accuracy under attack",
    )
    return (
        f"{table}\n\nbest pure defence: remove {best_p:.1%} "
        f"-> accuracy {best_acc:.4f}\n\n{chart}"
    )


def format_engine_stats(engine, batches=()) -> str:
    """Engine telemetry for an experiment summary.

    One summary block (the engine's backend, then this process's
    ``engine.*`` and ``cache.*`` counters and ``span.batch.seconds``
    total from the telemetry registry: rounds computed, batches, cache
    hits/misses/evictions) plus a per-batch table of ``batches`` — a
    study's own records (``result.engine_stats["batches"]``) — with
    each batch's backend and wall time, so a report always says how
    its numbers were produced.
    """
    snap = telemetry.snapshot()
    counters = snap["counters"]
    batch_seconds = snap["histograms"].get("span.batch.seconds",
                                           {}).get("sum", 0.0)
    rows = [
        ("backend", engine.backend.name),
        ("rounds computed", str(counters.get("engine.rounds_computed", 0))),
        ("batches run", str(counters.get("engine.batches_total", 0))),
        ("total batch wall time", f"{batch_seconds:.3f}s"),
    ]
    if engine.cache is not None:
        hits = counters.get("cache.memory.hits", 0) + \
            counters.get("cache.disk.hits", 0)
        misses = counters.get("cache.misses", 0)
        lookups = hits + misses
        rows += [
            ("cache hits", str(hits)),
            ("cache misses", str(misses)),
            ("cache evictions", str(counters.get("cache.evictions", 0))),
            ("cache entries", str(len(engine.cache))),
            ("cache hit rate", f"{hits / lookups if lookups else 0.0:.1%}"),
        ]
    else:
        rows.append(("cache", "off"))
    summary = ascii_table(["engine", "value"], rows, title="Engine stats")
    if not batches:
        return summary
    batch_rows = [
        (str(b["batch"]), b["backend"], str(b["n_specs"]), str(b["n_unique"]),
         str(b["computed"]), str(b["cache_hits"]), f"{b['seconds'] * 1e3:.1f}")
        for b in batches
    ]
    table = ascii_table(
        ["batch", "backend", "specs", "unique", "computed", "cached", "ms"],
        batch_rows,
    )
    return f"{summary}\n{table}"


def format_telemetry_summary(summary: dict) -> str:
    """A study's ``extras["telemetry"]`` block as readable tables.

    Renders the per-stage time breakdown (one row per traced span
    name, with total/mean wall time and share of the traced total)
    followed by the non-zero counters.  ``summary`` is what
    :func:`repro.telemetry.summary` produced at run time — this never
    touches the live registry, so it works on archived results.
    """
    schema = summary.get("schema")
    stages = summary.get("stages", {}) or {}
    counters = summary.get("counters", {}) or {}
    parts = []
    if stages:
        traced_total = sum(s.get("seconds", 0.0) for s in stages.values())
        stage_rows = []
        for name in sorted(stages, key=lambda n: -stages[n].get("seconds", 0)):
            stage = stages[name]
            count = int(stage.get("count", 0))
            seconds = float(stage.get("seconds", 0.0))
            mean_ms = seconds / count * 1e3 if count else 0.0
            share = seconds / traced_total if traced_total else 0.0
            stage_rows.append((name, str(count), f"{seconds:.3f}",
                               f"{mean_ms:.1f}", f"{share:.1%}"))
        parts.append(ascii_table(
            ["stage", "spans", "total s", "mean ms", "share"], stage_rows,
            title=f"Telemetry — per-stage breakdown (schema v{schema})"))
    else:
        parts.append(f"Telemetry (schema v{schema}): no stage timings "
                     f"recorded")
    nonzero = [(name, str(counters[name]))
               for name in sorted(counters) if counters[name]]
    if nonzero:
        parts.append(ascii_table(["counter", "value"], nonzero,
                                 title="Telemetry counters"))
    return "\n\n".join(parts)


def format_cross_game(result) -> str:
    """A :class:`~repro.experiments.results.CrossGameResult` as
    the accuracy matrix plus the equilibrium mixes."""
    matrix = np.asarray(result.accuracy_matrix, dtype=float)
    rows = [
        (label, *(f"{a:.4f}" for a in matrix[i]), f"{q:.1%}")
        for i, (label, q) in enumerate(zip(result.defense_labels,
                                           result.defender_mix))
    ]
    table = ascii_table(
        ["defense \\ attack", *result.attack_labels, "P(defense)"],
        rows,
        title="Cross-family empirical game — measured accuracy",
    )
    attacker = "  ".join(
        f"{label}:{q:.1%}"
        for label, q in zip(result.attack_labels, result.attacker_mix)
        if q > 0.01
    )
    lines = [
        table,
        f"attacker equilibrium mix:  {attacker or '(degenerate)'}",
        f"game value (accuracy):     {result.game_value_accuracy:.4f}",
        f"best pure defense:         {result.best_pure_defense} -> "
        f"{result.best_pure_accuracy:.4f}",
        f"mixed advantage:           {result.mixed_advantage:+.4f}",
        f"saddle point exists:       {result.has_saddle_point}",
    ]
    if result.victim:
        lines.insert(1, f"victim model:              {result.victim}")
    return "\n".join(lines)


def format_empirical_game(result) -> str:
    """An :class:`~repro.experiments.results.EmpiricalGameResult`
    as the equilibrium defence table plus the game summary lines."""
    rows = [(f"{p:.1%}", f"{q:.1%}")
            for p, q in zip(result.percentiles, result.defender_mix)]
    table = ascii_table(["filter percentile", "probability"], rows,
                        title="Measured-game equilibrium defence")
    return "\n".join([
        table,
        f"game value (accuracy): {result.game_value_accuracy:.4f}",
        f"best pure defence:     {result.best_pure_percentile:.1%} -> "
        f"{result.best_pure_accuracy:.4f}",
        f"mixed advantage:       {result.mixed_advantage:+.4f}",
        f"saddle point exists:   {result.has_saddle_point}",
    ])


def format_mixed_eval(result) -> str:
    """A :class:`~repro.experiments.results.MixedEvalResult` as the
    evaluated strategy plus its worst-case expected accuracy."""
    rows = [(f"{p:.1%}", f"{q:.1%}")
            for p, q in zip(result.percentiles, result.probabilities)]
    table = ascii_table(["filter percentile", "probability"], rows,
                        title="Mixed defence under the optimal mixed attack")
    return "\n".join([
        table,
        f"expected accuracy (worst attack column): "
        f"{result.expected_accuracy:.4f}",
        f"dispersion:                              {result.dispersion:.4f}",
        f"poison fraction:                         "
        f"{result.poison_fraction:.0%}",
    ])


def format_aggregated_sweep(agg) -> str:
    """An :class:`~repro.experiments.results.AggregatedSweep` as a
    mean ± std table over the percentile grid."""
    rows = [
        (f"{float(p):.1%}", f"{float(cm):.4f} ± {float(cs):.4f}",
         f"{float(am):.4f} ± {float(as_):.4f}")
        for p, cm, cs, am, as_ in zip(
            agg.percentiles, agg.acc_clean_mean, agg.acc_clean_std,
            agg.acc_attacked_mean, agg.acc_attacked_std)
    ]
    table = ascii_table(
        ["filtered", "accuracy (no attack)", "accuracy (optimal attack)"],
        rows,
        title=f"Multi-seed sweep — mean ± std over {agg.n_seeds} seeds",
    )
    best_p, best_acc = agg.best_pure
    return (f"{table}\n\nbest average pure defence: remove {best_p:.1%} "
            f"-> accuracy {best_acc:.4f}")


def format_grid_result(result) -> str:
    """A :class:`~repro.experiments.results.GridResult` as one accuracy
    table per (victim, fraction) slice."""
    tensor = np.asarray(result.accuracy, dtype=float)
    blocks = []
    for k, victim in enumerate(result.victim_labels):
        for l, fraction in enumerate(result.fractions):
            rows = [
                (label, *(f"{a:.4f}" for a in tensor[i, :, k, l]))
                for i, label in enumerate(result.defense_labels)
            ]
            blocks.append(ascii_table(
                ["defense \\ attack", *result.attack_labels],
                rows,
                title=(f"Scenario grid — measured accuracy "
                       f"(victim {victim}, {fraction:.0%} poisoning)"),
            ))
    return "\n\n".join(blocks)


def format_table1(results: list[MixedStrategyResult]) -> str:
    """Table 1 in the paper's layout (one column block per n)."""
    blocks = []
    for res in results:
        radii = "  ".join(f"{p:.1%}" for p in res.percentiles)
        probs = "  ".join(f"{q:.1%}" for q in res.probabilities)
        blocks.append(
            ascii_table(
                ["field", f"n = {res.n_radii}"],
                [
                    ("radii (percentile)", radii),
                    ("probability", probs),
                    ("accuracy", f"{res.accuracy:.1%}"),
                    ("best pure accuracy", f"{res.best_pure_accuracy:.1%}"),
                    ("expected loss (model units)", f"{res.expected_loss:.5f}"),
                    ("algorithm iterations", str(res.algorithm_iterations)),
                ],
                title=f"Table 1 — mixed strategy defence under optimal attack (n={res.n_radii})",
            )
        )
    return "\n\n".join(blocks)
