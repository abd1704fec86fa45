"""Command-line interface.

Subcommands: simulate, reproduce-fig2, reproduce-fig3, mixing, oracle,
gendata.  Every output file is UTF-8, from one writer (``numerics``).  CSV
files write reals at 17 significant digits; JSON files (``manifest.json``,
``summary.json``) and the ``mixing``/``oracle`` JSON lines write Python's
shortest round-trip repr (``0.875``, ``0.5000000000000001``).  Both forms
are lossless.  A number in a flag, a file or FEDSIM_SEED must not use
Python's ``_`` digit separator.  Invalid input, file-system errors and a
refused allocation end in one ``error:`` line and exit code 1; a malformed
flag ends in a usage error and exit code 2.
The FEDSIM_SEED environment variable overrides the config seed for
``simulate`` (recorded in the manifest).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .config import check_seed, parse_config
from .errors import ConfigError, FedsimError
from .harness import (mixing_report, oracle_report, reproduce_fig2, reproduce_fig3,
                      resolve_seed_override, run_simulation, write_run_outputs)
from .numerics import csv_records, integer, read_text, real, reals, write_text
from .objectives import generate_synthetic, save_dataset_csv
from .streams import SeededStream


def _read_rows(path: str, what: str) -> list:
    """The non-blank lines of a CSV file as float vectors of one length."""
    rows = [reals(fields, where) for where, fields in csv_records(path, path)]
    if not rows:
        raise ConfigError(f"no {what} rows found in {path}")
    return rows


def _parse_p_argument(inline: str | None, path: str | None) -> list:
    """Probability vectors, either one inline list or CSV rows (one vector
    per line)."""
    if (inline is None) == (path is None):
        raise FedsimError("provide exactly one of --p or --p-file")
    if inline is not None:
        return [reals(inline.split(","), "--p")]
    return _read_rows(path, "probability")


def _matrix_json(rows) -> str:
    """``json.dumps(rows)`` for a non-empty list of equal-length float lists,
    formatting each distinct float64 bit pattern once.  An ``E[W^2]`` is
    symmetric and clients with equal ``p`` share their entries, so a Zipf
    round at m=60 has a handful of distinct values among 3,600."""
    M = np.asarray(rows, dtype=np.float64)
    # Bits, not values: 0.0 and -0.0 are equal but spelled apart.
    distinct, index = np.unique(M.view(np.int64), return_inverse=True)
    # One dumps of the distinct values keeps json's spelling of NaN and Infinity.
    texts = np.array(json.dumps(distinct.view(np.float64).tolist())[1:-1].split(", "),
                     dtype=object)
    cells = texts[index.reshape(M.shape)].tolist()
    return "[[" + "], [".join(map(", ".join, cells)) + "]]"


def _json_line(rec: dict) -> str:
    """``json.dumps(rec)``, byte for byte, with the matrix at ``entries``
    written by ``_matrix_json``."""
    if "entries" not in rec:
        return json.dumps(rec)
    return "{" + ", ".join(
        f"{json.dumps(key)}: {_matrix_json(value) if key == 'entries' else json.dumps(value)}"
        for key, value in rec.items()) + "}"


def _emit_json_lines(records, out_path: str | None) -> None:
    text = "\n".join(_json_line(rec) for rec in records) + "\n"
    if out_path:
        write_text(out_path, [text])
    else:
        sys.stdout.write(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; each ``parse_args`` returns a
    fresh ``Namespace``, so no state carries from one ``main`` call to the
    next."""
    parser = argparse.ArgumentParser(prog="fedsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one configured experiment")
    p_sim.add_argument("--config", required=True, help="key=value config file")
    p_sim.add_argument("--out", default=None, help="output directory (overrides config)")

    for name in ("reproduce-fig2", "reproduce-fig3"):
        p_fig = sub.add_parser(name, help=f"{name.replace('-', ' ')} grid")
        p_fig.add_argument("--scale", type=real, default=0.1,
                           choices=[1.0, 0.5, 0.2, 0.1],
                           help="factor applied to fleet size and round count")
        p_fig.add_argument("--out", required=True)
        p_fig.add_argument("--seed", type=integer, default=1234)

    p_rows = argparse.ArgumentParser(add_help=False)
    p_rows.add_argument("--p", help="comma-separated probabilities")
    p_rows.add_argument("--p-file", help="CSV of probability vectors, one round per line")
    p_rows.add_argument("--out", help="write JSON lines here instead of stdout")
    sub.add_parser("mixing", parents=[p_rows], help="expected-square mixing diagnostics")
    p_or = sub.add_parser("oracle", parents=[p_rows], help="closed-form limit weights and bias")
    p_or.add_argument("--u", help="CSV of client targets, one row per client")

    p_gen = sub.add_parser("gendata", help="generate a synthetic dataset file")
    p_gen.add_argument("--alpha", type=real, required=True)
    p_gen.add_argument("--beta", type=real, required=True)
    p_gen.add_argument("--m", type=integer, required=True)
    p_gen.add_argument("--seed", type=integer, required=True)
    p_gen.add_argument("--samples", type=integer, default=250)
    p_gen.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            cfg = parse_config(read_text(args.config))
            cfg, seed_source = resolve_seed_override(cfg)
            out_dir = args.out or cfg.out
            os.makedirs(out_dir, exist_ok=True)  # fail before the run, not after it
            out = run_simulation(cfg, seed_source=seed_source)
            write_run_outputs(out_dir, out)
            return out.exit_code
        if args.command == "reproduce-fig2":
            reproduce_fig2(args.scale, args.out, seed=args.seed)
            return 0
        if args.command == "reproduce-fig3":
            reproduce_fig3(args.scale, args.out, seed=args.seed)
            return 0
        if args.command == "mixing":
            rows = _parse_p_argument(args.p, args.p_file)
            _emit_json_lines(mixing_report(rows), args.out)
            return 0
        if args.command == "oracle":
            rows = _parse_p_argument(args.p, args.p_file)
            # One row per client, transposed to the d x m layout used internally.
            targets = np.array(_read_rows(args.u, "target")).T if args.u else None
            _emit_json_lines([rec for p in rows for rec in oracle_report(p, targets)], args.out)
            return 0
        if args.command == "gendata":
            check_seed(args.seed)
            # The ("data",) child, as in build_objective: the run's own dataset.
            dataset = generate_synthetic(args.alpha, args.beta, args.m, args.samples,
                                         SeededStream(args.seed).child("data"))
            save_dataset_csv(args.out, dataset)
            return 0
    except (FedsimError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:
        # A refused allocation (say, a dataset sized past the host) leaves the
        # process usable enough to say so.
        print(f"error: out of memory: {str(err) or 'allocation refused'}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
