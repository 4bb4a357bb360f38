"""Batch command-line front-end.

Subcommands: prob | sample | permanent | hafnian | permanent-psd | validate | haar.

All numeric output is printed with 17 significant digits.  Reports are
rendered fully before anything is written, and files are written atomically
(temp file + rename), so a failing run never leaves a partial table.  Exit
codes: 0 success, 2 cost-limit error, 1 any other error: a usage error (a
missing or malformed argument, an unknown command), invalid input (a nan or
inf matrix entry included), an input file that cannot be read or decoded,
an --out that cannot be written, or an --engine whose precondition fails.
A config is read once into its states and network, and a bad pattern is
named by its index, patterns[i].

Environment override: GBSIM_OUT_DIR (directory prepended to relative --out paths).
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

from . import __version__
from .engines import applicable, check_n_max, check_reach, enumerate_patterns, probabilities
from .errors import CostLimitError, CutoffError, GbsimError, ValidationError, integer
from .fock_oracle import apply_network, pattern_probabilities, prepare_input
from .interferometer import Interferometer, haar_random, validate_unitary
from .matrix_functions import count_table, hafnian, permanent
from .matrixio import dump_complex_matrix, format_complex, load_complex_matrix, matrix_from_json, matrix_to_json, read_text
from .psd_permanent import DEFAULT_HEADROOM, estimate_permanent, exact_permanent_psd
from .qform import build_qform
from .sampler import sample_patterns
from .states import state_from_descriptor

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_COST = 2

ORACLE_TOL = 1e-6


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _config_integer(cfg: dict, field: str) -> int:
    """Config field `field` through `integer`, with JSON's 2.0 read as 2."""
    value = cfg[field]
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return integer(value, f"config field '{field}'")


def _load_run(path: str) -> tuple[dict, list, Interferometer]:
    """The config at `path`, as read (its hash is taken from it), with its parsed
    states and network; every check and message uses the parsed mode count."""
    try:
        cfg = json.loads(read_text(path, "config"))
    except ValueError as exc:  # a JSONDecodeError, or an integer literal past Python's digit limit
        raise ValidationError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValidationError("config root must be an object")
    if "schema" not in cfg or _config_integer(cfg, "schema") != 1:
        raise ValidationError("config field 'schema' must be 1")
    for field in ("modes", "states", "unitary"):
        if field not in cfg:
            raise ValidationError(f"config field '{field}' is missing")
    modes = _config_integer(cfg, "modes")
    if not isinstance(cfg["states"], list):
        raise ValidationError("config field 'states' must be an array")
    states = []
    for i, desc in enumerate(cfg["states"]):
        try:
            states.append(state_from_descriptor(desc))
        except ValidationError as exc:
            raise ValidationError(f"states[{i}]: {exc}") from None
    if len(states) != modes:
        raise ValidationError(f"config declares modes = {modes} but lists {len(states)} states")
    entry = cfg["unitary"]
    if isinstance(entry, dict) and isinstance(entry.get("file"), str):
        # a relative path is relative to the config; join keeps an absolute one as it is
        u = load_complex_matrix(os.path.join(os.path.dirname(os.path.abspath(path)), entry["file"]))
    elif isinstance(entry, list):
        u = matrix_from_json(entry)
    else:
        raise ValidationError("config field 'unitary' must be an inline array or {\"file\": path}")
    net = validate_unitary(u)
    if net.m != modes:
        raise ValidationError(f"unitary is {net.m}x{net.m} but config declares modes = {modes}")
    return cfg, states, net


def _config_patterns(cfg: dict, m: int) -> np.ndarray:
    """The config's patterns as a (P, m) 0/1 count table; a bad pattern is named by its index."""
    if "patterns" in cfg and "n_max" in cfg:
        raise ValidationError("config needs either 'patterns' or 'n_max', not both")
    if "patterns" in cfg:
        if not isinstance(cfg["patterns"], list):
            raise ValidationError("config field 'patterns' must be an array")
        return count_table(cfg["patterns"], m, clicks=True)
    if "n_max" in cfg:
        return enumerate_patterns(m, _config_integer(cfg, "n_max"))
    raise ValidationError("config needs either 'patterns' or 'n_max'")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    path = os.path.join(os.environ.get("GBSIM_OUT_DIR", ""), out)  # an absolute `out` stays as it is
    d = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        os.makedirs(d, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".gbsim-")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise ValidationError(f"cannot write --out file '{path}': {exc.strerror}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _render(meta: dict, columns: dict[str, list], fmt: str, extra: dict | None = None) -> str:
    """The report of `columns`, which maps each column's name to its values, one per row;
    a json report holds the fields of `extra` after its rows."""
    if fmt == "json":
        rows = [dict(zip(columns, values)) for values in zip(*columns.values())]
        return json.dumps({"tool": "gbsim", **meta, "rows": rows, **(extra or {})}, indent=2, sort_keys=False) + "\n"
    cells = [list(map(_cell, values)) for values in columns.values()]
    head = [f"# gbsim {meta.get('version', __version__)}", *(f"# {k}: {v}" for k, v in meta.items() if k != "version")]
    if fmt == "csv":
        buf = io.StringIO()
        buf.write("\n".join(head) + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(zip(*cells))
        return buf.getvalue()
    padded = []
    for name, col in zip(columns, cells):
        width = max(map(len, [name, *col]))
        padded.append([name.ljust(width)] + [c.ljust(width) for c in col])
    return "\n".join(head + ["  ".join(line) for line in zip(*padded)]) + "\n"


def _cell(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        return _fmt(v)
    return str(v)


def _pattern_strs(patterns) -> list[str]:
    """Each pattern's entries as integers joined by commas."""
    return [",".join(map(str, p)) for p in patterns]


def cmd_haar(args) -> int:
    net = haar_random(args.modes, args.seed)
    _emit(dump_complex_matrix(net.u), args.out)
    return EXIT_OK


def cmd_permanent(args) -> int:
    """The permanent or hafnian of a matrix file, by the command's name."""
    kernel = permanent if args.command == "permanent" else hafnian
    _emit(format_complex(kernel(load_complex_matrix(args.matrix))) + "\n", args.out)
    return EXIT_OK


cmd_hafnian = cmd_permanent


def cmd_prob(args) -> int:
    cfg, states, net = _load_run(args.config)
    qform = build_qform(states, net)
    names = applicable(qform)
    # auto prefers the most specialized engine whose precondition holds
    engine = names[-1] if args.engine == "auto" else args.engine
    # the chosen engine first: an inapplicable one raises its own precondition
    run = [engine, *(n for n in names if n != engine)] if args.validate else [engine]
    # an n_max table is built only once every engine to run can take its heaviest pattern;
    # an n_max beside 'patterns' raises its own error below
    if "patterns" not in cfg and "n_max" in cfg:
        check_reach(qform, run, check_n_max(net.m, _config_integer(cfg, "n_max")))
    patterns = _config_patterns(cfg, net.m)
    table = np.array([probabilities(qform, name, patterns) for name in run])
    columns = {
        "pattern": _pattern_strs(patterns.tolist()),
        "N": patterns.sum(axis=1).tolist(),
        "probability": table[0].tolist(),
        "engine": [engine] * len(patterns),
    }
    if args.validate:
        columns["crosscheck_delta"] = (table.max(axis=0) - table.min(axis=0)).tolist()
    meta = {"version": __version__, "config_hash": _config_hash(cfg)}
    matrices = {"C": qform.c, "D-tilde": qform.d_tilde}
    extra = None
    if args.dump_qform and args.format == "json":  # in the document, the matrices in the config's inline form
        extra = {"qform": {"K": qform.k, **{name: matrix_to_json(mat) for name, mat in matrices.items()}}}
    text = _render(meta, columns, args.format, extra)
    if args.dump_qform and args.format != "json":  # a trailing comment block
        text += f"# K = {_fmt(qform.k)}\n"
        for name, mat in matrices.items():
            text += f"# {name}:\n" + "".join(f"#   {row}\n" for row in dump_complex_matrix(mat).splitlines())
    _emit(text, args.out)
    return EXIT_OK


def cmd_sample(args) -> int:
    cfg, states, net = _load_run(args.config)
    report = sample_patterns(states, net, args.shots, args.seed, workers=args.workers)
    items = sorted(report.histogram.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    counts = [cnt for _, cnt in items]
    columns = {
        "pattern": _pattern_strs(pat for pat, _ in items),
        "count": counts,
        "frequency": [cnt / report.shots for cnt in counts],
    }
    meta = {
        "version": __version__,
        "config_hash": _config_hash(cfg),
        "seed": args.seed,
        "shots": args.shots,
    }
    _emit(_render(meta, columns, args.format), args.out)
    return EXIT_OK


def cmd_permanent_psd(args) -> int:
    h = load_complex_matrix(args.matrix)
    result = estimate_permanent(h, args.shots, args.seed, headroom=args.headroom)
    if result.exact is None and args.exact:
        result = replace(result, exact=exact_permanent_psd(h))
    meta = {"version": __version__, "matrix": os.path.basename(args.matrix), "seed": args.seed}
    names = ["estimate", "stderr", "count", "shots", "exact", "ratio", "low_confidence"]
    _emit(_render(meta, {c: [getattr(result, c)] for c in names}, args.format), args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg, states, net = _load_run(args.config)
    # a config with neither key checks every 0/1 pattern; listed patterns arrive built, an n_max's once the oracle admits it
    spec = cfg if cfg.keys() & {"patterns", "n_max"} else {"n_max": net.m}
    patterns = _config_patterns(spec, net.m) if "patterns" in spec else None
    cutoff = check_n_max(net.m, _config_integer(spec, "n_max")) if patterns is None else int(patterns.sum(axis=1).max(initial=0))
    qform = build_qform(states, net)
    names = applicable(qform)
    try:
        fock = apply_network(prepare_input(states, cutoff), net)
    except CutoffError as exc:
        raise CutoffError(f"{exc}; give the config 'patterns' or a smaller 'n_max'") from None
    patterns = enumerate_patterns(net.m, cutoff) if patterns is None else patterns
    table = np.array([probabilities(qform, name, patterns) for name in names])
    oracle = pattern_probabilities(fock, patterns)
    deltas = np.abs(table - oracle).max(axis=0)
    columns = {"pattern": _pattern_strs(patterns.tolist()), "N": patterns.sum(axis=1).tolist(), **dict(zip(names, table.tolist()))}
    if args.oracle:
        columns["oracle"] = oracle.tolist()
    columns["delta"] = deltas.tolist()
    worst = float(deltas.max(initial=0.0))
    meta = {"version": __version__, "config_hash": _config_hash(cfg), "oracle_tolerance": ORACLE_TOL}
    _emit(_render(meta, columns, args.format), args.out)
    if worst > ORACLE_TOL:
        sys.stderr.write(f"gbsim validate: engine-oracle delta {worst:.3e} exceeds {ORACLE_TOL:g}\n")
        return EXIT_VALIDATION
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors at exit 1, since 2 is the cost-limit code;
    the usage and message text are argparse's.  Subparsers are of this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by later ones;
    each parse returns a fresh namespace, so nothing carries between calls."""
    ap = _Parser(prog="gbsim", description=__doc__)
    ap.add_argument("--version", action="version", version=f"gbsim {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_fmt(p):
        p.add_argument("--format", choices=["table", "csv", "json"], default="table")
        p.add_argument("--out", help="write the report to this file (atomic)")

    p = sub.add_parser("haar", help="generate a Haar-random unitary matrix file")
    p.add_argument("--modes", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")

    for name in ("permanent", "hafnian"):
        p = sub.add_parser(name, help=f"{name} of a complex matrix file")
        p.add_argument("matrix")
        p.add_argument("--out")

    p = sub.add_parser("prob", help="exact detection probabilities from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--engine", choices=["auto", "general", "thermal", "squeezed"], default="auto")
    p.add_argument("--validate", action="store_true", help="cross-check all applicable engines")
    p.add_argument("--dump-qform", action="store_true", help="add the (K, C, D-tilde) report: a qform object in json, trailing comment lines otherwise")
    add_fmt(p)

    p = sub.add_parser("sample", help="sample photon-count patterns (classical inputs)")
    p.add_argument("--config", required=True)
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    add_fmt(p)

    p = sub.add_parser("permanent-psd", help="estimate the permanent of a PSD Hermitian matrix by sampling")
    p.add_argument("--matrix", required=True)
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--headroom", type=float, default=DEFAULT_HEADROOM)
    p.add_argument("--exact", action="store_true", help="force the exact permanent even for large n")
    add_fmt(p)

    p = sub.add_parser("validate", help="compare every applicable engine against the Fock oracle")
    p.add_argument("--config", required=True, help="with neither patterns nor n_max, every 0/1 pattern is checked, which the oracle admits up to 6 modes")
    p.add_argument("--oracle", action="store_true", help="add the oracle probability column")
    add_fmt(p)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # looked up per call, so a rebound cmd_* function is the one that runs
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except CostLimitError as exc:
        sys.stderr.write(f"gbsim: cost limit: {exc}\n")
        return EXIT_COST
    except GbsimError as exc:
        sys.stderr.write(f"gbsim: error: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
