#!/usr/bin/env python3
"""Name the rows of an experiment run that differ from a reference run.

    python3 tools/results_diff.py REF RUN

REF and RUN are `experiments --json` files, e.g. the committed
`results.json` and a fresh `experiments all --json all.json`. Prints one
line per moved row: artifact, metric, config, before, after (and the ratio
when both are non-zero numbers). A row one side lacks prints `-` for the
missing value; an artifact one side lacks is named once; a title, shape or
note that differs is named by artifact and field. Rows are matched by
(metric, config) within an artifact, the n-th occurrence to the n-th.
`.timing` is ignored.

Exit status: 1 if anything differs, 0 otherwise.
"""
import argparse
import json
import sys


def rows_by_key(artifact):
    """(metric, config, occurrence) -> row, in row order."""
    seen = {}
    out = {}
    for row in artifact["rows"]:
        base = (row["metric"], row["config"])
        n = seen.get(base, 0)
        seen[base] = n + 1
        out[base + (n,)] = row
    return out


def show(value):
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def ratio(before, after):
    numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (before, after))
    if numeric and before != 0 and after != 0:
        return f"x{after / before:.3g}"
    return ""


def diff(ref, run):
    """Lines naming every difference between two parsed runs."""
    a = {art["id"]: art for art in ref["artifacts"]}
    b = {art["id"]: art for art in run["artifacts"]}
    lines = []
    for aid in list(a) + [k for k in b if k not in a]:
        if aid not in b:
            lines.append((aid, "(artifact missing from run)", "", "", "", ""))
            continue
        if aid not in a:
            lines.append((aid, "(artifact missing from reference)", "", "", "", ""))
            continue
        old, new = a[aid], b[aid]
        for field in ("title", "shape", "notes"):
            if old.get(field) != new.get(field):
                lines.append((aid, f"({field})", "", show(old.get(field)), show(new.get(field)), ""))
        ra, rb = rows_by_key(old), rows_by_key(new)
        for key in list(ra) + [k for k in rb if k not in ra]:
            x, y = ra.get(key), rb.get(key)
            if x == y:
                continue
            metric, config, _ = key
            before = x["measured"] if x else None
            after = y["measured"] if y else None
            if x and y and before == after:
                # Same value; the unit or the paper reference moved.
                for field in ("unit", "paper"):
                    if x.get(field) != y.get(field):
                        lines.append((aid, metric, f"{config} ({field})",
                                      show(x.get(field)), show(y.get(field)), ""))
                continue
            lines.append((aid, metric, config, show(before), show(after), ratio(before, after)))
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("ref")
    ap.add_argument("run")
    args = ap.parse_args()
    with open(args.ref) as f:
        ref = json.load(f)
    with open(args.run) as f:
        run = json.load(f)
    lines = diff(ref, run)
    if lines:
        widths = [max(len(line[i]) for line in lines) for i in range(5)]
        for line in lines:
            cells = [c.ljust(w) for c, w in zip(line, widths)] + [line[5]]
            print("  ".join(cells).rstrip())
    print(f"{len(lines)} difference(s)", file=sys.stderr)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
