#!/usr/bin/env python3
"""Prometheus text-format lint for the CI obs-smoke job. Entirely offline.

Validates a metrics file emitted by `manet_experiments --metrics` or
`manet_detect --metrics`:

1. Structure: every line is a `# manifest key=value` header line, a
   `# TYPE name kind` declaration, another comment, or a sample.
2. Names: metric names match the Prometheus regex and every sample's base
   name was declared by a preceding # TYPE line.
3. Kinds: counters end in `_total` and carry non-negative integers;
   gauges parse as finite floats; histograms expose cumulative
   `_bucket{le="..."}` series (monotone counts, +Inf last and equal to
   `_count`) plus `_sum` and `_count`.
4. Manifest: at least `tool` and `version` keys when any manifest line is
   present (the CLIs always stamp one).
5. Work vs outcome: a `*_runs_total` work counter is never below the
   `*_recomputes_total` outcome counter it pairs with (only a run can
   change a result), e.g. manet_olsr_route_runs_total >=
   manet_olsr_route_recomputes_total.
6. Work ceilings (--ceilings only): every counter the ceilings file names
   is present and at most its committed value. Work counts of a seeded
   run are exact, so this gates on work done without timing noise; a
   change that means to do more work raises the committed value.

Usage:  check_metrics.py FILE...       lint one or more exposition files
        check_metrics.py --ceilings CEIL FILE...
                                       lint, then hold FILE's counters to
                                       the values in CEIL
        check_metrics.py --selftest    run the built-in fixture checks

Exit code 0 = clean, 1 = findings (printed one per line).
"""

import math
import re
import sys

NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
TYPE_RE = re.compile(r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$")
MANIFEST_RE = re.compile(r"^# manifest ([A-Za-z0-9_.-]+)=(.*)$")
SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"      # name
    r"(?:\{([^}]*)\})?"                  # optional label set
    r" (\S+)$")                          # value
LABEL_RE = re.compile(r'^le="([^"]*)"$')
# Work counter -> the outcome counter it bounds from above.
RUNS_BOUND = {
    "manet_olsr_route_runs_total": "manet_olsr_route_recomputes_total",
    "manet_olsr_mpr_runs_total": "manet_olsr_mpr_recomputes_total",
}


def parse_le(text):
    """The bucket bound as a float; +Inf sorts last."""
    return math.inf if text == "+Inf" else float(text)


def lint_text(text, where="metrics"):
    findings = []
    types = {}          # metric name -> kind
    manifest = {}
    seen_manifest = False
    # histogram name -> list of (le, count); plus _sum/_count presence
    buckets = {}
    hist_sum = set()
    hist_count = {}
    counters = {}       # unlabelled counter samples, for rule 5

    def base_of(name):
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in types:
                return name[: -len(suffix)], suffix
        return name, ""

    for lineno, line in enumerate(text.splitlines(), 1):
        loc = f"{where}:{lineno}"
        if not line:
            findings.append(f"{loc}: blank line in exposition")
            continue
        if line.startswith("#"):
            m = TYPE_RE.match(line)
            if m:
                name, kind = m.groups()
                if name in types:
                    findings.append(f"{loc}: duplicate # TYPE for {name}")
                types[name] = kind
                continue
            m = MANIFEST_RE.match(line)
            if m:
                seen_manifest = True
                manifest[m.group(1)] = m.group(2)
                continue
            if line.startswith("# HELP "):
                continue
            findings.append(f"{loc}: unrecognized comment line: {line!r}")
            continue

        m = SAMPLE_RE.match(line)
        if not m:
            findings.append(f"{loc}: malformed sample line: {line!r}")
            continue
        name, labels, value = m.groups()
        if not NAME_RE.match(name):
            findings.append(f"{loc}: bad metric name {name!r}")
            continue
        base, suffix = base_of(name)
        if base not in types:
            findings.append(f"{loc}: sample {name} has no preceding # TYPE")
            continue
        kind = types[base]
        try:
            number = float(value)
        except ValueError:
            findings.append(f"{loc}: non-numeric value {value!r} for {name}")
            continue
        if not math.isfinite(number):
            findings.append(f"{loc}: non-finite value {value!r} for {name}")
            continue

        if kind == "counter":
            if not labels:
                counters[name] = number
            if not base.endswith("_total"):
                findings.append(f"{loc}: counter {base} should end in _total")
            if number < 0 or number != int(number):
                findings.append(
                    f"{loc}: counter {name} must be a non-negative integer")
        elif kind == "gauge":
            if labels:
                findings.append(f"{loc}: unexpected labels on gauge {name}")
        elif kind == "histogram":
            if suffix == "_bucket":
                lm = LABEL_RE.match(labels or "")
                if not lm:
                    findings.append(
                        f"{loc}: histogram bucket needs exactly le=\"...\"")
                    continue
                try:
                    le = parse_le(lm.group(1))
                except ValueError:
                    findings.append(f"{loc}: bad le bound {lm.group(1)!r}")
                    continue
                buckets.setdefault(base, []).append((le, number, lineno))
            elif suffix == "_sum":
                hist_sum.add(base)
            elif suffix == "_count":
                hist_count[base] = number
            else:
                findings.append(
                    f"{loc}: bare sample {name} for histogram {base}")

    for base, series in sorted(buckets.items()):
        les = [le for le, _, _ in series]
        if les != sorted(les):
            findings.append(f"{where}: {base} buckets not ordered by le")
        counts = [c for _, c, _ in series]
        if counts != sorted(counts):
            findings.append(f"{where}: {base} bucket counts not cumulative")
        if not les or les[-1] != math.inf:
            findings.append(f"{where}: {base} missing le=\"+Inf\" bucket")
        elif base in hist_count and counts[-1] != hist_count[base]:
            findings.append(
                f"{where}: {base} +Inf bucket {counts[-1]:g} != _count "
                f"{hist_count[base]:g}")
        if base not in hist_sum:
            findings.append(f"{where}: {base} missing _sum sample")
        if base not in hist_count:
            findings.append(f"{where}: {base} missing _count sample")
    for base, kind in sorted(types.items()):
        if kind == "histogram" and base not in buckets:
            findings.append(f"{where}: histogram {base} has no buckets")

    for runs, outcome in sorted(RUNS_BOUND.items()):
        if runs in counters and outcome in counters and (
                counters[runs] < counters[outcome]):
            findings.append(
                f"{where}: {runs} {counters[runs]:g} < {outcome} "
                f"{counters[outcome]:g} (work below outcome)")

    if seen_manifest:
        for key in ("tool", "version"):
            if key not in manifest:
                findings.append(f"{where}: manifest missing {key}= entry")
    return findings


def parse_ceilings(text):
    """{counter name: ceiling} from `name value` lines; `#` lines are
    comments."""
    ceilings = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, value = line.split()
        ceilings[name] = float(value)
    return ceilings


def check_ceilings(text, ceilings, where="metrics"):
    """Findings for counters of `text` missing or above their ceiling."""
    values = {}
    for line in text.splitlines():
        m = SAMPLE_RE.match(line)
        if m and not m.group(2):
            values[m.group(1)] = float(m.group(3))
    findings = []
    for name, ceiling in sorted(ceilings.items()):
        if name not in values:
            findings.append(f"{where}: {name} missing (ceiling {ceiling:g})")
        elif values[name] > ceiling:
            findings.append(
                f"{where}: {name} {values[name]:g} above its ceiling "
                f"{ceiling:g}")
    return findings


GOOD = """\
# manifest tool=selftest
# manifest version=unknown
# manifest seeds=2
# TYPE manet_pipeline_lines_total counter
manet_pipeline_lines_total 336
# TYPE manet_olsr_route_recomputes_total counter
manet_olsr_route_recomputes_total 1718
# TYPE manet_olsr_route_runs_total counter
manet_olsr_route_runs_total 5875
# TYPE manet_olsr_graph_arc_updates_total counter
manet_olsr_graph_arc_updates_total 41020
# TYPE manet_replication_rounds gauge
manet_replication_rounds 4
# TYPE manet_round_detect histogram
manet_round_detect_bucket{le="0"} 1
manet_round_detect_bucket{le="1"} 3
manet_round_detect_bucket{le="+Inf"} 3
manet_round_detect_sum 1.5
manet_round_detect_count 3
"""

BAD_CASES = [
    ("undeclared sample", "manet_x_total 1\n", "no preceding # TYPE"),
    ("negative counter",
     "# TYPE manet_x_total counter\nmanet_x_total -1\n", "non-negative"),
    ("counter suffix",
     "# TYPE manet_x counter\nmanet_x 1\n", "_total"),
    ("non-numeric",
     "# TYPE manet_x_total counter\nmanet_x_total abc\n", "non-numeric"),
    ("non-cumulative buckets",
     "# TYPE manet_h histogram\n"
     'manet_h_bucket{le="1"} 5\nmanet_h_bucket{le="2"} 3\n'
     'manet_h_bucket{le="+Inf"} 5\nmanet_h_sum 1\nmanet_h_count 5\n',
     "not cumulative"),
    ("missing +Inf",
     "# TYPE manet_h histogram\n"
     'manet_h_bucket{le="1"} 1\nmanet_h_sum 1\nmanet_h_count 1\n',
     "+Inf"),
    ("count mismatch",
     "# TYPE manet_h histogram\n"
     'manet_h_bucket{le="+Inf"} 2\nmanet_h_sum 1\nmanet_h_count 3\n',
     "_count"),
    ("manifest incomplete",
     "# manifest tool=x\n# TYPE manet_x_total counter\nmanet_x_total 0\n",
     "version"),
    ("garbage line", "!!!\n", "malformed"),
    ("runs below outcome",
     "# TYPE manet_olsr_mpr_recomputes_total counter\n"
     "manet_olsr_mpr_recomputes_total 9\n"
     "# TYPE manet_olsr_mpr_runs_total counter\n"
     "manet_olsr_mpr_runs_total 4\n",
     "work below outcome"),
]


CEILINGS = """\
# route BFS runs of the GOOD fixture
manet_olsr_route_runs_total 5875
manet_olsr_graph_arc_updates_total 41020
"""

CEILING_CASES = [
    ("at the ceiling", CEILINGS, None),
    ("above the ceiling",
     "manet_olsr_route_runs_total 5874\n"
     "manet_olsr_graph_arc_updates_total 41020\n", "above its ceiling"),
    ("counter gone", "manet_olsr_mpr_runs_total 9999\n", "missing"),
]


def selftest():
    failures = []
    good = lint_text(GOOD, "GOOD")
    if good:
        failures.append(f"clean fixture flagged: {good}")
    for label, ceilings, expect in CEILING_CASES:
        found = check_ceilings(GOOD, parse_ceilings(ceilings), label)
        if expect is None and found:
            failures.append(f"ceilings {label!r} flagged: {found}")
        if expect is not None and not any(expect in f for f in found):
            failures.append(
                f"ceilings {label!r}: expected a finding matching "
                f"{expect!r}, got {found}")
    for label, text, expect in BAD_CASES:
        found = lint_text(text, label)
        if not any(expect in f for f in found):
            failures.append(
                f"fixture {label!r}: expected a finding matching {expect!r}, "
                f"got {found}")
    for f in failures:
        print(f"selftest: {f}")
    print(f"selftest: {len(BAD_CASES) + len(CEILING_CASES) + 1} fixtures, "
          f"{len(failures)} failures")
    return 1 if failures else 0


def main(argv):
    if len(argv) < 2 or argv[1] in ("-h", "--help"):
        print(__doc__)
        return 0 if len(argv) >= 2 else 1
    if argv[1] == "--selftest":
        return selftest()
    ceilings = None
    paths = argv[1:]
    if paths[0] == "--ceilings":
        if len(paths) < 3:
            print(__doc__)
            return 1
        try:
            with open(paths[1], encoding="utf-8") as fh:
                ceilings = parse_ceilings(fh.read())
        except (OSError, ValueError) as e:
            print(f"{paths[1]}: {e}")
            return 1
        paths = paths[2:]
    findings = []
    for path in paths:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            findings.append(f"{path}: {e}")
            continue
        findings.extend(lint_text(text, path))
        if ceilings is not None:
            findings.extend(check_ceilings(text, ceilings, path))
    for f in findings:
        print(f)
    if not findings:
        print(f"check_metrics: {len(paths)} file(s) clean")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
