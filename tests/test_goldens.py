"""The reference figures against their committed goldens (``goldens.py``).

``round``, ``active_count``, every other integer or text field and every
``trace.csv`` (by SHA-256) must match exactly.  A real may move by
``RTOL`` of its golden value, which admits another BLAS kernel or SIMD
path; a column in ``ABS_FLOOR`` may also move by that much, because its
golden values include rounding noise around 0.  The test prints, per file
and column, how many values moved and the largest relative move: the digit
report of a change that moves them.
"""

import json
import math
import os

import pytest

from goldens import GOLDEN_DIR, golden_view, run_figures

# Rerunning both figures with OpenBLAS pinned to another kernel family
# (OPENBLAS_CORETYPE=Haswell, Zen, Prescott), with numpy's AVX2 and AVX-512
# paths disabled (NPY_DISABLE_CPU_FEATURES=X86_V3,X86_V4,...), or both,
# moved no real by more than 2.6e-15 of its value, oracle_gap's noise aside
# (AMD EPYC, x86-64).  A softmax step perturbed by 1e-9 moves fig3's
# columns by up to 1e-10 (FedPBC's grad_norm) to 1.1e-9 (consensus_error).
RTOL = 1e-11
# consensus_error is 0 at round 0 and rounding noise on a fleet that agrees;
# oracle_gap is the norm of a difference that is 0 in exact arithmetic when
# p0 = p1 (6.2e-15 here, moved by 4e-16 under the dispatch changes above).
ABS_FLOOR = {"consensus_error": 1e-13, "oracle_gap": 1e-13}
EXACT = {"round", "active_count"}


def _fields(rel: str, text: str) -> dict:
    """``(column, row) -> text`` of one golden file; a JSON file's columns
    are its dotted key paths, each its one row."""
    if rel.endswith(".json"):
        flat = {}

        def walk(prefix, value):
            if isinstance(value, dict):
                for key, item in value.items():
                    walk(f"{prefix}{key}.", item)
            else:
                flat[(prefix[:-1], 0)] = json.dumps(value)

        walk("", json.loads(text))
        return flat
    header, *rows = [line.split(",") for line in text.splitlines()]
    return {(column, i): cell for i, row in enumerate(rows) for column, cell in zip(header, row)}


def _real(text: str):
    """The text as a float, or ``None`` for a field that is not a number."""
    try:
        return float(text)
    except ValueError:
        return None


def compare(rel: str, golden: str, fresh: str):
    """Per column ``(values, moved, largest relative move)``, and a message
    for each field out of tolerance."""
    old, new = _fields(rel, golden), _fields(rel, fresh)
    if old.keys() != new.keys():
        return {}, [f"{rel}: fields {sorted(old.keys() ^ new.keys())[:4]} differ"]
    report, failures = {}, []
    for (column, row), was in old.items():
        now = new[column, row]
        count, moved, largest = report.get(column, (0, 0, 0.0))
        move = 0.0
        if now != was:
            a, b = _real(was), _real(now)
            exact = column in EXACT or a is None or b is None
            move = math.inf if exact or not a else abs(b - a) / abs(a)
            if exact or abs(b - a) > max(RTOL * abs(a), ABS_FLOOR.get(column, 0.0)):
                failures.append(f"{rel} {column} row {row}: golden {was}, now {now}")
        report[column] = (count + 1, moved + (now != was), max(largest, move))
    return report, failures


def test_reference_figures_match_their_goldens(tmp_path):
    run_figures(tmp_path)
    fresh = golden_view(tmp_path)
    golden = {}
    for root, _, names in os.walk(GOLDEN_DIR):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "r", encoding="utf-8", newline="") as fh:
                golden[os.path.relpath(path, GOLDEN_DIR).replace(os.sep, "/")] = fh.read()
    assert sorted(fresh) == sorted(golden)
    traces = json.loads(golden.pop("traces.json"))
    assert json.loads(fresh.pop("traces.json")) == traces, "a trace.csv changed"
    failures = []
    for rel in sorted(golden):
        report, bad = compare(rel, golden[rel], fresh[rel])
        failures += bad
        for column, (count, moved, largest) in report.items():
            print(f"{rel} {column}: {moved} of {count} moved, largest relative move {largest:.3g}")
    assert not failures, "\n".join(failures[:20])


@pytest.mark.parametrize("column, golden, fresh, fails", [
    ("train_loss", "2.5", "2.5000000000000004", False),
    ("train_loss", "2.5", "2.5000001", True),
    ("train_loss", "", "2.5", True),
    ("consensus_error", "0", "1e-14", False),
    ("consensus_error", "0", "1e-12", True),
    ("round", "3", "4", True),
    ("algorithm", "fedavg", "fedpbc", True),
])
def test_compare_holds_each_field_to_its_tolerance(column, golden, fresh, fails):
    report, bad = compare("a.csv", f"{column}\n{golden}\n", f"{column}\n{fresh}\n")
    assert bool(bad) == fails
    assert report[column][:2] == (1, 1)
