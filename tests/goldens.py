"""The reference figures' goldens: what ``test_goldens.py`` compares with.

Regenerate them (after a stream change, say) with

    PYTHONPATH=src python tests/goldens.py

which runs ``fedsim reproduce-fig2`` and ``reproduce-fig3`` at ``--scale
0.1`` and rewrites ``tests/golden/``:

* fig2's ``comparison.csv`` in full;
* each fig2 metrics file's rows every ``STRIDE`` rounds, and its last row;
* fig3's metrics files and ``summary.json`` in full;
* ``traces.json``, the SHA-256 of every ``trace.csv``.

Manifests are left out: ``wall_time_sec`` varies, and a figure manifest
records its output directory in ``config_text`` and ``config_hash``.
Record each regeneration, with the test's report, in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile

from fedsim.cli import main as fedsim_main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SCALE = "0.1"
STRIDE = 10


def run_figures(out_dir) -> None:
    """Both reference figures at ``SCALE``, into ``out_dir``/fig2 and fig3."""
    for fig in ("fig2", "fig3"):
        out = os.path.join(out_dir, fig)
        code = fedsim_main([f"reproduce-{fig}", "--scale", SCALE, "--out", out])
        assert code == 0, f"reproduce-{fig} exited {code}"


def _strided(text: str) -> str:
    """A metrics file's header, its rows every ``STRIDE`` rounds, and its last row."""
    header, *rows = text.splitlines(keepends=True)
    kept = rows[::STRIDE]
    if (len(rows) - 1) % STRIDE:
        kept.append(rows[-1])
    return header + "".join(kept)


def golden_view(out_dir) -> dict:
    """The golden files' texts, by path relative to the golden directory,
    taken from the figures run into ``out_dir``."""
    view, traces = {}, {}
    for fig in ("fig2", "fig3"):
        for name in sorted(os.listdir(os.path.join(out_dir, fig))):
            rel = f"{fig}/{name}"
            with open(os.path.join(out_dir, rel), "rb") as fh:
                data = fh.read()
            if name.endswith("trace.csv"):
                traces[rel] = hashlib.sha256(data).hexdigest()
            elif name.endswith("metrics.csv") and fig == "fig2":
                view[rel] = _strided(data.decode("utf-8"))
            elif not name.endswith("manifest.json"):
                view[rel] = data.decode("utf-8")
    view["traces.json"] = json.dumps(traces, indent=2) + "\n"
    return view


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        run_figures(tmp)
        view = golden_view(tmp)
    shutil.rmtree(GOLDEN_DIR, ignore_errors=True)
    for rel, text in view.items():
        path = os.path.join(GOLDEN_DIR, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    print(f"wrote {len(view)} files under {GOLDEN_DIR}", file=sys.stderr)


if __name__ == "__main__":
    main()
