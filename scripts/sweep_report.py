#!/usr/bin/env python3
"""Render a sweep_report.json Pareto report as a table or HTML dashboard.

Reads the deterministic JSON `repro sweep` emits from a fleet
campaign directory (see docs/OBSERVABILITY.md §telemetry) and renders it
for humans:

  python3 scripts/sweep_report.py sweep_report.json            # table
  python3 scripts/sweep_report.py sweep_report.json --html dash.html
  python3 scripts/sweep_report.py sweep_report.json --check    # CI smoke

--check recomputes the Pareto frontier from the points and fails when it
disagrees with the report's flags (or when the document is malformed) —
the CI guard that the aggregator and this renderer never drift apart.

stdlib-only on purpose: CI boxes and fresh checkouts run it with no
virtualenv.
"""

import argparse
import html
import json
import sys

SCHEMA_VERSION = 1


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def dominates(a, b, objectives):
    """Whether point a Pareto-dominates point b under the objectives."""
    strictly = False
    for obj in objectives:
        name, direction = obj["name"], obj["dir"]
        va, vb = a["metrics"].get(name), b["metrics"].get(name)
        if va is None or vb is None:
            return False
        if direction == "min":
            va, vb = vb, va
        if va < vb:
            return False
        if va > vb:
            strictly = True
    return strictly


def recompute_frontier(doc):
    points = doc["points"]
    objectives = doc["objectives"]
    return [
        not any(dominates(q, p, objectives) for q in points) for p in points
    ]


def check(doc):
    errors = []
    if doc.get("schema_version") != SCHEMA_VERSION:
        errors.append(
            f"schema_version {doc.get('schema_version')!r} != {SCHEMA_VERSION}"
        )
    for key in ("objectives", "points", "frontier"):
        if key not in doc:
            errors.append(f"missing key {key!r}")
    if errors:
        return errors
    if not doc["points"]:
        errors.append("empty sweep: no points (campaign had no clean units?)")
        return errors
    for obj in doc["objectives"]:
        if obj.get("dir") not in ("max", "min"):
            errors.append(f"objective {obj!r} has no direction")
    want = recompute_frontier(doc)
    for point, flag in zip(doc["points"], want):
        if bool(point.get("pareto")) != flag:
            errors.append(
                f"pareto flag mismatch on {point['config']!r}: "
                f"report says {point.get('pareto')}, recomputed {flag}"
            )
    frontier = [p["config"] for p in doc["points"] if p.get("pareto")]
    if frontier != doc["frontier"]:
        errors.append(
            f"frontier list {doc['frontier']!r} != flagged configs {frontier!r}"
        )
    return errors


def render_table(doc, out=sys.stdout):
    objectives = doc["objectives"]
    names = [o["name"] for o in objectives]
    print("sweep objectives:", file=out)
    for o in objectives:
        print(f"  {o['name']}: {o['dir']}", file=out)
    print(file=out)
    header = f"{'config':<24}{'units':>6}" + "".join(
        f"{n:>20}" for n in names
    ) + f"{'pareto':>8}"
    print(header, file=out)
    for p in doc["points"]:
        row = f"{p['config']:<24}{len(p['units']):>6}"
        for n in names:
            v = p["metrics"].get(n)
            row += f"{v:>20.4f}" if v is not None else f"{'-':>20}"
        row += f"{'*':>8}" if p.get("pareto") else f"{'':>8}"
        print(row, file=out)
    print(file=out)
    print("frontier:", ", ".join(doc["frontier"]) or "(empty)", file=out)


def svg_scatter(doc, width=640, height=420, pad=56):
    """Inline SVG scatter of the first two objectives, frontier in color."""
    objectives = doc["objectives"]
    if len(objectives) < 2:
        return "<p>need at least two objectives for a scatter plot</p>"
    xo, yo = objectives[1], objectives[0]
    pts = [
        (
            p["metrics"].get(xo["name"]),
            p["metrics"].get(yo["name"]),
            p["config"],
            bool(p.get("pareto")),
        )
        for p in doc["points"]
    ]
    pts = [p for p in pts if p[0] is not None and p[1] is not None]
    if not pts:
        return "<p>no points carry both objectives</p>"
    xs, ys = [p[0] for p in pts], [p[1] for p in pts]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    xspan = (xmax - xmin) or 1.0
    yspan = (ymax - ymin) or 1.0

    def sx(x):
        return pad + (x - xmin) / xspan * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - ymin) / yspan * (height - 2 * pad)

    parts = [
        f'<svg viewBox="0 0 {width} {height}" role="img" '
        f'style="max-width:{width}px;font-family:monospace">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#fafafa"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="#333"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
        f'stroke="#333"/>',
        f'<text x="{width / 2:.0f}" y="{height - 12}" text-anchor="middle" '
        f'font-size="13">{html.escape(xo["name"])} ({xo["dir"]})</text>',
        f'<text x="16" y="{height / 2:.0f}" text-anchor="middle" '
        f'font-size="13" transform="rotate(-90 16 {height / 2:.0f})">'
        f'{html.escape(yo["name"])} ({yo["dir"]})</text>',
    ]
    frontier = sorted(
        (p for p in pts if p[3]), key=lambda p: (p[0], p[1])
    )
    if len(frontier) > 1:
        path = " ".join(
            f"{'M' if i == 0 else 'L'}{sx(p[0]):.1f},{sy(p[1]):.1f}"
            for i, p in enumerate(frontier)
        )
        parts.append(
            f'<path d="{path}" fill="none" stroke="#c0392b" '
            f'stroke-dasharray="4 3"/>'
        )
    for x, y, config, pareto in pts:
        color = "#c0392b" if pareto else "#7f8c8d"
        parts.append(
            f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="5" fill="{color}">'
            f"<title>{html.escape(config)}: "
            f'{yo["name"]}={y:.4f}, {xo["name"]}={x:.4f}</title></circle>'
        )
        parts.append(
            f'<text x="{sx(x) + 8:.1f}" y="{sy(y) - 8:.1f}" font-size="11" '
            f'fill="#333">{html.escape(config)}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


def render_html(doc):
    names = [o["name"] for o in doc["objectives"]]
    rows = []
    for p in doc["points"]:
        cells = "".join(
            f"<td>{p['metrics'][n]:.4f}</td>" if n in p["metrics"] else "<td>-</td>"
            for n in names
        )
        cls = ' class="pareto"' if p.get("pareto") else ""
        rows.append(
            f"<tr{cls}><td>{html.escape(p['config'])}</td>"
            f"<td>{len(p['units'])}</td>{cells}"
            f"<td>{'yes' if p.get('pareto') else ''}</td></tr>"
        )
    heads = "".join(f"<th>{html.escape(n)}</th>" for n in names)
    return f"""<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>sweep report</title>
<style>
body {{ font-family: monospace; margin: 2em; color: #222; }}
table {{ border-collapse: collapse; margin: 1em 0; }}
th, td {{ border: 1px solid #ccc; padding: 4px 10px; text-align: right; }}
th:first-child, td:first-child {{ text-align: left; }}
tr.pareto {{ background: #fdecea; }}
</style></head><body>
<h1>Pareto sweep report</h1>
<p>objectives: {html.escape(", ".join(
        f"{o['name']}:{o['dir']}" for o in doc["objectives"]))}</p>
{svg_scatter(doc)}
<table>
<tr><th>config</th><th>units</th>{heads}<th>pareto</th></tr>
{"".join(rows)}
</table>
<p>frontier: {html.escape(", ".join(doc["frontier"]) or "(empty)")}</p>
</body></html>
"""


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("report", help="sweep_report.json from repro sweep")
    ap.add_argument("--html", metavar="PATH", help="write an HTML dashboard")
    ap.add_argument(
        "--check",
        action="store_true",
        help="validate the document and recompute the frontier (CI smoke)",
    )
    args = ap.parse_args()
    doc = load(args.report)
    errors = check(doc)
    if args.check:
        if errors:
            for e in errors:
                print(f"sweep_report: {e}", file=sys.stderr)
            return 1
        print(
            f"sweep_report: ok ({len(doc['points'])} configs, "
            f"{len(doc['frontier'])} on the frontier)"
        )
        return 0
    if errors:
        for e in errors:
            print(f"sweep_report: warning: {e}", file=sys.stderr)
    render_table(doc)
    if args.html:
        with open(args.html, "w", encoding="utf-8") as f:
            f.write(render_html(doc))
        print(f"wrote {args.html}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
