#!/usr/bin/env python3
"""Check the paper's claims against checked-in farm results.

Each claim in examples/farm/paper/claims.json names a farm spec, an
optional filter on its coordinates (a value, or a list of values any of
which may match), one metric column of the spec's merged.csv, and a test
over one dimension of the grid: a strict ordering ("order": the metric
rises along the listed values) or "lowest" (the named value has the
strictly lowest metric of its group). "for_each" repeats the test for every
value of a second dimension. Cells that share a value of the compared
dimension (seeds, or a dimension the claim neither filters nor repeats
over) are pooled: the claim compares their mean. Every claim records its
verdict ("holds": true or false); a failing claim stays recorded as
failing, with its numbers, rather than being weakened.

    python3 tools/paper_claims.py                # check every claim
    python3 tools/paper_claims.py --update-docs  # and regenerate EXPERIMENTS.md

Prints every claim with its numbers. Exits 1 when a verdict differs from
its record, 2 on unusable input: a missing file, column or grid value, or
a claim over a cell that failed or missed its deadline (done is not yes,
so its FCTs cover only the flows that completed). --update-docs rewrites
the blocks between the "generated" marker comments in EXPERIMENTS.md: one
table per figure, from its merged.csv, with the cells that share a row's
coordinates averaged into it, and the claims table. Standard library only.
"""

import argparse
import csv
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAPER = os.path.join(ROOT, "examples", "farm", "paper")

# Unit of a column as printed: merged.csv holds microseconds.
SCALE = {"ms": 1e-3, "us": 1.0, "": 1.0}

# Generated tables, keyed by marker name: the spec, the coordinate columns
# that label a row, and (header, merged.csv column, unit, digits) per value
# column, at the precision the old figure benches printed. A row averages
# every cell with its coordinates. digits=None copies the cell as text; a
# column of None counts the cells in the row.
TABLES = {
    "fig9": ("fig9", ["cross-links", "scheme"], [
        ("intra mean ms", "intra_mean_us", "ms", 2),
        ("intra p99 ms", "intra_p99_us", "ms", 2),
        ("inter mean ms", "inter_mean_us", "ms", 2),
        ("inter p99 ms", "inter_p99_us", "ms", 2),
        ("done", "done", "", None),
    ]),
    "fig10": ("fig10", ["load", "scheme"], [
        ("intra mean us", "intra_mean_us", "us", 1),
        ("intra p99 us", "intra_p99_us", "us", 1),
        ("inter mean us", "inter_mean_us", "us", 1),
        ("inter p99 us", "inter_p99_us", "us", 1),
        ("completed", "completed", "", None),
        ("done", "done", "", None),
    ]),
    "fig11": ("fig11", ["rtt-ratio", "scheme"], [
        ("mean slowdown", "mean_slowdown", "", 2),
        ("p99 slowdown", "p99_slowdown", "", 2),
        ("inter p99 slowdown", "inter_p99_slowdown", "", 2),
        ("done", "done", "", None),
    ]),
    "fig13a": ("fig13a", ["scheme"], [
        ("cells", None, "", None),
        ("inter mean ms", "inter_mean_us", "ms", 2),
        ("inter p99 ms", "inter_p99_us", "ms", 2),
        ("inter max ms", "max_us", "ms", 2),
        ("done", "done", "", None),
    ]),
    "fig13b": ("fig13b", ["scheme"], [
        ("cells", None, "", None),
        ("inter mean ms", "inter_mean_us", "ms", 2),
        ("done", "done", "", None),
    ]),
    "fig13c": ("fig13c", ["scheme"], [
        ("iterations", "iterations", "", None),
        ("mean iter ms", "mean_iter_us", "ms", 2),
        ("done", "done", "", None),
    ]),
}


class InputError(Exception):
    pass


def value_key(v):
    """A claim's coordinate value as merged.csv spells it (8, 0.2, "uno")."""
    return v if isinstance(v, str) else json.dumps(v)


def load_rows(results_dir, spec):
    path = os.path.join(results_dir, spec + ".csv")
    try:
        with open(path, newline="") as f:
            return list(csv.DictReader(f))
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror}")


def metric_format(spec, metric):
    """(unit, digits) of `metric` in the spec's generated table, if any."""
    for table_spec, _, columns in TABLES.values():
        for _, column, unit, digits in columns:
            if table_spec == spec and column == metric and digits is not None:
                return unit, digits
    return "", 3


def number(row, metric, where):
    if metric not in row:
        raise InputError(f"{where}: no column {metric!r}")
    if row.get("status") != "ok" or row[metric] == "":
        raise InputError(f"{where}: cell {row.get('cell')} has no {metric} result")
    if row.get("done") != "yes":
        raise InputError(f"{where}: cell {row.get('cell')} missed its deadline, so its "
                         f"{metric} covers only the flows that completed")
    return float(row[metric])


def mean(xs):
    return sum(xs) / len(xs)


def pooled(rows, key):
    """{key value: [rows]}, in the order the values first appear."""
    groups = {}
    for r in rows:
        groups.setdefault(key(r), []).append(r)
    return groups


def evaluate(claim, results_dir):
    """(holds, [group text, ...]) for one claim."""
    where = f"claim {claim['id']}"
    rows = load_rows(results_dir, claim["spec"])
    for key, value in claim.get("filter", {}).items():
        allowed = [value_key(v) for v in (value if isinstance(value, list) else [value])]
        rows = [r for r in rows if r.get(key) in allowed]
    if not rows:
        raise InputError(f"{where}: no cell matches its filter")
    over, metric = claim["over"], claim["metric"]
    unit, digits = metric_format(claim["spec"], metric)
    suffix = f" {unit}" if unit else ""

    def label(value):
        return value if over == "scheme" else f"{over}={value}"

    def fmt(x):
        return f"{x * SCALE[unit]:.{digits}f}"

    each = claim.get("for_each")
    groups = list(dict.fromkeys(r[each] for r in rows)) if each else [None]
    holds, texts = True, []
    for g in groups:
        members = [r for r in rows if each is None or r[each] == g]
        if any(over not in r for r in members):
            raise InputError(f"{where}: no dimension {over!r}")
        values = {v: mean([number(r, metric, where) for r in cells])
                  for v, cells in pooled(members, lambda r: r[over]).items()}
        prefix = f"{each}={g}: " if each else ""
        if "order" in claim:
            names = [value_key(v) for v in claim["order"]]
            missing = [n for n in names if n not in values]
            if missing:
                raise InputError(f"{where}: no {over}={missing[0]} in the group")
            ok = all(values[a] < values[b] for a, b in zip(names, names[1:]))
            text = f"{label(names[0])} {fmt(values[names[0]])}"
            for a, b in zip(names, names[1:]):
                text += f" {'<' if values[a] < values[b] else '>='} {label(b)} {fmt(values[b])}"
        else:
            best = value_key(claim["lowest"])
            if best not in values or len(values) < 2:
                raise InputError(f"{where}: {over}={best} has nothing to beat")
            rival = min((n for n in values if n != best), key=lambda n: values[n])
            ok = values[best] < values[rival]
            text = (f"{label(best)} {fmt(values[best])} {'<' if ok else '>='} "
                    f"{label(rival)} {fmt(values[rival])}")
        holds = holds and ok
        texts.append(prefix + text + suffix)
    return holds, texts


def verdict(holds):
    return "holds" if holds else "FAILS"


def render_cell(rows, column, unit, digits, where):
    """One table cell over the pooled `rows`: their count, the mean of their
    numbers (saying how many cells had one, when some did not), or their
    text (each distinct value with its count when they differ)."""
    if column is None:
        return str(len(rows))
    if any(column not in r for r in rows):
        raise InputError(f"{where}: no column {column!r}")
    values = [r[column] for r in rows]
    if digits is not None:
        numbers = [float(v) for v in values if v != ""]
        if not numbers:
            return ""
        text = f"{mean(numbers) * SCALE[unit]:.{digits}f}"
        return text if len(numbers) == len(values) else f"{text} ({len(numbers)} of {len(values)})"
    counts = pooled(values, lambda v: v)
    if len(counts) == 1:
        return values[0]
    return ", ".join(f"{v} x{len(vs)}" for v, vs in counts.items())


def render_table(results_dir, spec, keys, columns):
    rows = load_rows(results_dir, spec)
    header = keys + [c[0] for c in columns]
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    for coords, group in pooled(rows, lambda r: tuple(r[k] for k in keys)).items():
        cells = list(coords)
        for _, column, unit, digits in columns:
            cells.append(render_cell(group, column, unit, digits, f"{spec}.csv"))
        lines.append("| " + " | ".join(cells) + " |")
    return lines


def render_claims(results):
    lines = ["| spec | claim | numbers | verdict |", "|---|---|---|---|"]
    for claim, holds, texts in results:
        lines.append(f"| {claim['spec']} | {claim['text']} | {'; '.join(texts)} | "
                     f"{'holds' if holds else '**fails**'} |")
    return lines


def replace_block(text, name, lines):
    begin = f"<!-- BEGIN generated: {name} (tools/paper_claims.py) -->"
    end = f"<!-- END generated: {name} -->"
    i, j = text.find(begin), text.find(end)
    if i < 0 or j < i:
        raise InputError(f"EXPERIMENTS.md: no {begin!r} ... {end!r} block")
    return text[:i] + begin + "\n" + "\n".join(lines) + "\n" + text[j:]


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--results", default=os.path.join(PAPER, "results"),
                    help="directory of <spec>.csv merged tables")
    ap.add_argument("--update-docs", action="store_true",
                    help="rewrite the generated blocks of EXPERIMENTS.md")
    args = ap.parse_args(argv)

    try:
        with open(os.path.join(PAPER, "claims.json")) as f:
            claims = json.load(f)["claims"]
        results, stale = [], 0
        for claim in claims:
            holds, texts = evaluate(claim, args.results)
            matches = holds == claim["holds"]
            stale += not matches
            results.append((claim, holds, texts))
            print(f"{claim['id']}: {claim['text']}")
            for t in texts:
                print(f"    {t}")
            print(f"    {verdict(holds)}, recorded {verdict(claim['holds'])}"
                  f"{'' if matches else '  <-- VERDICT CHANGED'}")
        held = sum(h for _, h, _ in results)
        print(f"{len(results)} claims: {held} hold, {len(results) - held} fail; "
              f"{stale} differ from their record")

        if args.update_docs:
            docs = os.path.join(ROOT, "EXPERIMENTS.md")
            with open(docs) as f:
                text = f.read()
            for name, (spec, keys, columns) in TABLES.items():
                text = replace_block(text, name,
                                     render_table(args.results, spec, keys, columns))
            text = replace_block(text, "claims", render_claims(results))
            with open(docs, "w") as f:
                f.write(text)
    except KeyError as e:
        print(f"paper_claims: missing field or column {e}", file=sys.stderr)
        return 2
    except (InputError, ValueError) as e:
        print(f"paper_claims: {e}", file=sys.stderr)
        return 2
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
