"""Command-line front end: analyze states, export tables, drive the chains.

Every subcommand is deterministic for a fixed (arguments, seed) pair, so the
emitted CSV/JSON files are stable byte for byte and safe to hash. A float cell
is exactly CPython's %.17g (17 significant digits, correctly rounded half to
even), so it survives a parse round trip; numpy writes the fixed-point ones in
integer arithmetic, so the text of a value is the same on every CPU, while
the values themselves come from numpy and BLAS kernels that can differ by CPU.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import os
import re
import sys

import numpy as np

from . import canonical, chains, entanglement, polytope, qstate, verify
from .errors import NumericalError, TriqentError, ValidationError

ANALYZE_FIELDS = ("state", "r_a", "r_b", "r_c", "big_r",
                  "s_a", "s_b", "s_c", "c_ab", "c_ac", "c_bc", "tau")
BOUNDS_FIELDS = ("big_r", *polytope.CURVE_KINDS)
SAMPLE_FIELDS = ("type", "r_a", "r_b", "r_c", "big_r", "tau", "d")
VERIFY_FIELDS = ("name", "passed", "detail", "seed")


# ---------------------------------------------------------------------------
# formatting

def _kind(t: type) -> str:
    for kind, types in (("bool", (bool, np.bool_)), ("int", (int, np.integer)),
                        ("float", (float, np.floating))):
        if issubclass(t, types):
            return kind
    return "str"


_FORMAT = {"bool": lambda v: "1" if v else "0", "int": lambda v: str(int(v)), "str": str}

# distinct values from which numpy's %.17g (triqent._fixed17) beats the
# template: about 250 on sampler tables, 500 to 700 on sweep tables, whose
# values split into more runs
_VECTOR_MIN = 600


def _template_cells(x: np.ndarray) -> np.ndarray:
    """'%.17g' % v of each value through one template, as an object array."""
    return np.array(("%.17g\n" * len(x) % tuple(x.tolist())).split("\n")[:-1], dtype=object)


def _g17(x: np.ndarray) -> np.ndarray:
    """'%.17g' % v of each value, as an object array: numpy writes the
    fixed-point cells of a large table, and one template every other cell
    (zero, the exponent form, inf and nan) and every cell of a small one."""
    if len(x) < _VECTOR_MIN:
        return _template_cells(x)
    # imported on first use: a small table, and the CLI's start-up, need none
    # of it
    from ._fixed17 import fixed_cells
    idx, fixed = fixed_cells(x)
    rest = np.delete(np.arange(len(x)), idx)
    cells = np.empty(len(x), dtype=object)
    cells[idx] = fixed
    cells[rest] = _template_cells(x[rest])
    return cells


def _float_cells(x: np.ndarray) -> np.ndarray:
    """The cells of float values, as an object array: each distinct value
    formatted once, since a sweep repeats most of its values (delta on every
    row of a grid point, the energies on every member of a level)."""
    x = np.ascontiguousarray(x, dtype=float)
    # distinct by their bits, which tell -0.0 from 0.0; any member of a run
    # of equal bits stands for it, so the sort need not be stable
    order = x.view(np.int64).argsort()
    bits = x.view(np.int64)[order]
    start = np.empty(len(x), dtype=bool)
    start[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=start[1:])
    distinct = x[order[start]]
    back = np.empty(len(x), dtype=np.intp)
    back[order] = np.cumsum(start) - 1
    # an object array maps the cells back to the rows faster than a Python
    # loop does
    cells = _g17(distinct)
    cells[~np.isfinite(distinct)] = ""
    return cells[back]


_BOOL_CELLS = np.array(("0", "1"), dtype=object)


def _column(values) -> tuple[list[str], bool]:
    """The CSV/text cells of one column, formatted by the value types it
    holds: floats as %.17g, bools as 1/0, ints and anything else through
    str; None and non-finite floats give an empty cell. An int or bool
    array is formatted as a whole, any other array (a float array aside,
    which _columns formats) as its list of values. Also whether the column
    holds str values, the only ones whose cells may need quoting."""
    if isinstance(values, np.ndarray):
        if values.dtype.kind == "b":
            return _BOOL_CELLS[values.astype(np.intp)].tolist(), False
        if values.dtype.kind in "iu":
            distinct, back = np.unique(values, return_inverse=True)
            return np.array(list(map(str, distinct.tolist())), dtype=object)[back].tolist(), False
        values = values.tolist()
    kinds = {_kind(t) for t in set(map(type, values)) - {type(None)}}
    if len(kinds) > 1:
        return [c for v in values for c in _column((v,))[0]], "str" in kinds
    kind = kinds.pop() if kinds else "str"
    if kind == "float":
        return _float_cells(np.array(values, dtype=float)).tolist(), False  # None becomes NaN
    fmt = _FORMAT[kind]
    cells = {v: "" if v is None else fmt(v) for v in dict.fromkeys(values)}
    return list(map(cells.__getitem__, values)), kind == "str"


def _jval(x):
    """JSON-safe value; NaN becomes null rather than invalid JSON."""
    if x is None or isinstance(x, (bool, np.bool_)):
        return None if x is None else bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        xf = float(x)
        return xf if np.isfinite(xf) else None
    return x


def _columns(header: tuple[str, ...], columns, text: list[str] | None = None) -> list[list[str]]:
    """Per column, its name and then its formatted cells. The float arrays
    of a table are formatted together in one _float_cells call, so a value
    that several of them hold is formatted once. A text list, if given,
    receives the header and the cells of each column that holds str
    values: no %.17g, int or bool cell holds a delimiter, a quote or a line
    break."""
    floats = [i for i, col in enumerate(columns)
              if isinstance(col, np.ndarray) and col.dtype.kind == "f"]
    cells = {}
    if floats:
        joined = _float_cells(np.concatenate([columns[i] for i in floats]))
        ends = np.cumsum([len(columns[i]) for i in floats])[:-1]
        cells = {i: part.tolist() for i, part in zip(floats, np.split(joined, ends))}
    if text is not None:
        text += header
    out = []
    for i, (name, col) in enumerate(zip(header, columns)):
        body, textual = (cells[i], False) if i in cells else _column(col)
        if textual and text is not None:
            text += body
        out.append([name, *body])
    return out


class Factor:
    """A block of adjacent table columns over its distinct rows, each column
    a sequence of values as _table takes them, and the index (an integer
    array) of each output row into those rows; None where the block has one
    row per output row. A plain class, since a NamedTuple takes ten times
    as long to create at start-up."""

    __slots__ = ("columns", "index")

    def __init__(self, columns: list, index: np.ndarray | None = None):
        self.columns, self.index = columns, index


def _factors(header: tuple[str, ...], columns) -> list[Factor]:
    """The factors of a table given as Factors or as plain columns, which
    are one factor. Refuses a table whose columns do not match its header in
    number or do not agree in their row counts, and an index that points
    outside its factor's rows."""
    factors = list(columns)
    if not any(isinstance(f, Factor) for f in factors):
        factors = [Factor(factors)]
    rows = set()
    for f in factors:
        if not isinstance(f, Factor) or not f.columns:
            raise ValueError("a table is a list of plain columns or of factors with columns")
        lengths = {len(col) for col in f.columns}
        if len(lengths) > 1:
            raise ValueError(f"a table has columns of {sorted(lengths)} rows")
        if f.index is not None and len(f.index):
            if f.index.min() < 0 or f.index.max() >= lengths.pop():
                raise ValueError("a factor's index points outside its rows")
        rows |= lengths if f.index is None else {len(f.index)}
    if len(rows) > 1:
        raise ValueError(f"a table has factors of {sorted(rows)} rows")
    width = sum(len(f.columns) for f in factors)
    if width != len(header):
        raise ValueError(f"a table has {len(header)} names and {width} columns")
    return factors


def _take(values, index: np.ndarray | None) -> list:
    """The values at index, or all of them where index is None."""
    if index is None:
        return values
    # an object array gathers faster than a Python loop does
    return np.fromiter(values, dtype=object, count=len(values))[index].tolist()


def _joined(blocks, sep: str):
    """The lines of a table from its factors' formatted columns, each a
    name and its cells over the factor's distinct rows: a factor with an
    index joins each of its distinct rows once and gathers the joined
    pieces, a factor with one row per row gives its columns as they are."""
    parts = []
    for cols, index in blocks:
        if index is None:
            parts += cols
        else:
            pieces = list(map(sep.join, zip(*cols)))
            parts.append([pieces[0], *_take(pieces[1:], index)])
    return map(sep.join, zip(*parts))


def _plain_csv(cols: list[list[str]], text: list[str]) -> bool:
    """Whether csv.writer would write every cell as it is: a table of two or
    more columns whose text (the header and the cells of its str columns,
    from _columns) holds no delimiter, quote or line break."""
    text = "".join(text)
    return len(cols) > 1 and not any(ch in text for ch in ',"\r\n')


def _table(header: tuple[str, ...], columns, fmt: str) -> str:
    """A table given as one sequence of values per header name (a tuple, a
    list or a numpy array), or as a list of Factors whose columns, in order,
    are those of the header. The float values of all factors are formatted
    in one pass, and each distinct row of a factor is joined once."""
    factors = _factors(header, columns)
    if fmt == "json":
        jcols = [_take(list(map(_jval, col.tolist() if isinstance(col, np.ndarray) else col)),
                       f.index) for f in factors for col in f.columns]
        payload = [dict(zip(header, row)) for row in zip(*jcols)]
        return json.dumps(payload, indent=2) + "\n"
    text: list[str] = []
    cols = _columns(header, [col for f in factors for col in f.columns], text)
    parts = iter(cols)
    blocks = [(list(itertools.islice(parts, len(f.columns))), f.index) for f in factors]
    if fmt == "csv":
        if _plain_csv(cols, text):
            return "\n".join(_joined(blocks, ",")) + "\n"
        buf = io.StringIO()
        full = [[col[0], *_take(col[1:], index)] for block, index in blocks for col in block]
        csv.writer(buf, lineterminator="\n").writerows(zip(*full))
        return buf.getvalue()
    for i, (block, index) in enumerate(blocks):
        if index is not None:
            # a width counts the name and the cells that some row shows
            shown = np.zeros(len(block[0]), dtype=bool)
            shown[0] = True
            shown[1:][index] = True
        widths = [max(map(len, col if index is None else itertools.compress(col, shown)))
                  for col in block]
        blocks[i] = [[c.ljust(w) for c in col] for col, w in zip(block, widths)], index
    return "".join(line.rstrip() + "\n" for line in _joined(blocks, "  "))


def _record(header: tuple[str, ...], row: tuple, fmt: str) -> str:
    """Single-record output: one-row table or a flat JSON object."""
    if fmt == "json":
        return json.dumps(dict(zip(header, map(_jval, row))), indent=2) + "\n"
    columns = [(v,) for v in row]
    if fmt == "csv":
        return _table(header, columns, "csv")
    width = max(len(k) for k in header)
    cells = [col[1] for col in _columns(header, columns)]
    return "".join(f"{k.ljust(width)}  {c}\n" for k, c in zip(header, cells))


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# state ingestion

def _named_states() -> dict[str, np.ndarray]:
    return {
        "ghz": chains.GHZ_KET,
        "w": chains.W_KET,
        "wt1": chains.WT1_KET,
        "wt2": chains.WT2_KET,
        "zero": chains._ket(0b000),
    }


def _parse_state(tokens: list[str]) -> tuple[qstate.PureState3, str]:
    """State from a name, a JSON file path, or 16 whitespace-separated reals.

    Returns the state and a short id used in output rows.
    """
    parts: list[str] = []
    for tok in tokens:
        parts.extend(tok.split())
    if len(parts) == 1:
        tok = parts[0]
        named = _named_states()
        if tok.lower() in named:
            return qstate.normalize(named[tok.lower()]), tok.lower()
        if os.path.isfile(tok):
            try:
                with open(tok) as fh:
                    return qstate.PureState3.from_json(fh.read()), tok
            except (OSError, ValueError) as exc:
                raise ValidationError(f"could not read state file {tok}: {exc}")
        raise ValidationError(
            f"unknown state {tok!r}; expected one of {tuple(named)}, "
            "a JSON file, or 16 reals")
    if len(parts) == 16:
        try:
            vals = np.asarray([float(x) for x in parts])
        except ValueError as exc:
            raise ValidationError(f"could not parse state values: {exc}")
        return qstate.normalize(vals[0::2] + 1j * vals[1::2]), "custom"
    raise ValidationError(f"a state takes 1 or 16 values, got {len(parts)}")


def _resolve_seed(arg_seed: int | None) -> int:
    if arg_seed is None:
        raw = os.environ.get("TRIQENT_SEED", "0")
        try:
            arg_seed = int(raw)
        except ValueError:
            raise ValidationError(f"TRIQENT_SEED must be an integer, got {raw!r}")
    if arg_seed < 0:
        raise ValidationError(f"seed must be non-negative, got {arg_seed}")
    return arg_seed


def _require_finite(**values: float) -> None:
    """Reject NaN and infinite option values, named as on the command line."""
    for name, x in values.items():
        if not np.isfinite(x):
            raise ValidationError(f"--{name.replace('_', '-')} must be finite, got {x}")


# ---------------------------------------------------------------------------
# subcommand bodies; each returns (output text, exit code)

def _cmd_analyze(args) -> tuple[str, int]:
    s, sid = _parse_state(args.state)
    bt = entanglement.bloch_triple(s)
    row = (sid, bt.r_a, bt.r_b, bt.r_c, polytope.big_r(bt),
           entanglement.entropy_from_norm(bt.r_a, bits=args.bits),
           entanglement.entropy_from_norm(bt.r_b, bits=args.bits),
           entanglement.entropy_from_norm(bt.r_c, bits=args.bits),
           entanglement.concurrence_pair(s, "AB"),
           entanglement.concurrence_pair(s, "AC"),
           entanglement.concurrence_pair(s, "BC"),
           entanglement.tangle(s))
    return _record(ANALYZE_FIELDS, row, args.format), 0


def _cmd_classify(args) -> tuple[str, int]:
    s, _ = _parse_state(args.state)
    label = canonical.classify(s, tol=args.tol, cd_tol=args.zero_tol)
    if args.format == "text":
        return f"class {label.slocc}, type {label.kind}\n", 0
    return _record(("slocc", "kind"), (label.slocc, label.kind), args.format), 0


def _cmd_cd(args) -> tuple[str, int]:
    s, _ = _parse_state(args.state)
    cf = canonical.canonical_decompose(s)
    kind = canonical.classify(s, tol=args.tol, cd_tol=args.zero_tol).kind
    header = ("lambda0", "lambda1", "lambda2", "lambda3", "lambda4",
              "phi", "branch", "type", "degenerate")
    row = (*cf.lambdas, cf.phi, cf.branch, kind, cf.degenerate)
    return _record(header, row, args.format), 0


def _cmd_bounds(args) -> tuple[str, int]:
    if args.points < 1:
        raise ValidationError(f"points must be >= 1, got {args.points}")
    _require_finite(r_min=args.r_min, r_max=args.r_max)
    if not 0.0 <= args.r_min <= args.r_max:
        raise ValidationError(
            f"need 0 <= r-min <= r-max, got {args.r_min}, {args.r_max}")
    r = np.linspace(args.r_min, args.r_max, args.points)
    cols = [r] + [polytope.bound_curve(kind, r) for kind in polytope.CURVE_KINDS]
    return _table(BOUNDS_FIELDS, cols, args.format), 0


def _cmd_sample(args) -> tuple[str, int]:
    if args.n < 1:
        raise ValidationError(f"n must be >= 1, got {args.n}")
    kinds = polytope.COARSE_TYPES if args.type == "all" else (args.type,)
    blocks = []
    for i, kind in enumerate(kinds):
        sub = int(np.random.default_rng([args.seed, i]).integers(1 << 32))
        amps = qstate._sample_type_batch(kind, args.n, sub)
        r, _, hdet = entanglement.invariants(amps)
        blocks.append(np.column_stack((r, polytope.big_r(r), entanglement._tangles(hdet),
                                       polytope.dist_to_diagonal(r))))
    # the type column is one row per type, repeated over its n samples
    types = Factor([kinds], np.repeat(np.arange(len(kinds)), args.n))
    return _table(SAMPLE_FIELDS, [types, Factor(list(np.concatenate(blocks).T))], args.format), 0


def _cmd_sweep(args) -> tuple[str, int]:
    if args.points < 1:
        raise ValidationError(f"points must be >= 1, got {args.points}")
    _require_finite(delta_min=args.delta_min, delta_max=args.delta_max)
    grid = np.linspace(args.delta_min, args.delta_max, args.points)
    # the rows as chains.sweep gives them, written from their factors
    factors = chains._sweep_factors(args.model, grid, params_policy=args.params_policy,
                                    perturb=args.perturb, seed=args.seed)
    header = tuple(f for cols, _ in factors for f in cols)
    return _table(header, [Factor(list(cols.values()), index) for cols, index in factors],
                  args.format), 0


def _cmd_verify(args) -> tuple[str, int]:
    results = verify.run_checks(names=args.check, seed=args.seed)
    code = 0 if all(r.passed for r in results) else 3
    if args.format == "text":
        lines = [f"{'ok  ' if r.passed else 'FAIL'} {r.name}: {r.detail}"
                 for r in results]
        n_ok = sum(r.passed for r in results)
        lines.append(f"passed {n_ok}/{len(results)} checks (seed {args.seed})")
        return "\n".join(lines) + "\n", code
    columns = [[getattr(r, f) for r in results] for f in VERIFY_FIELDS]
    return _table(VERIFY_FIELDS, columns, args.format), code


# ---------------------------------------------------------------------------
# parser

def _add_common(sp, default_format: str) -> None:
    sp.add_argument("--format", choices=("csv", "json", "text"),
                    default=default_format, help="output format")
    sp.add_argument("--out", metavar="PATH",
                    help="write to this file instead of stdout")
    sp.add_argument("--seed", type=int, default=None,
                    help="RNG seed (default: TRIQENT_SEED env var, else 0)")


def _add_state(sp) -> None:
    sp.add_argument("--state", nargs="+", required=True, metavar="SPEC",
                    help="named state (ghz, w, wt1, wt2, zero), "
                         "16 reals (8 re/im pairs), or a JSON file path")


def _add_tols(sp) -> None:
    sp.add_argument("--tol", type=float, default=1e-9,
                    help="geometric threshold for class decisions")
    sp.add_argument("--zero-tol", type=float, default=None,
                    help="threshold below which a canonical coefficient "
                         "counts as zero")


# argparse reads an argument that starts with "-" as an option unless it
# looks like a negative number, and its pattern has no exponent: without this
# one, "--delta-min -7.5e-05" or a state amplitude "-1e-05" is refused
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="triqent",
        description="Entanglement geometry of pure three-qubit states: "
                    "observables, canonical decomposition, polytope bounds, "
                    "and exactly solvable spin chains.")
    sub = p.add_subparsers(dest="verb", required=True)

    sp = sub.add_parser("analyze", help="all observables of one state")
    _add_state(sp)
    sp.add_argument("--bits", action="store_true",
                    help="report entropies in bits instead of nats")
    _add_common(sp, "text")

    sp = sub.add_parser("classify", help="SLOCC class and fine-grained type")
    _add_state(sp)
    _add_tols(sp)
    _add_common(sp, "text")

    sp = sub.add_parser("cd", help="canonical decomposition of one state")
    _add_state(sp)
    _add_tols(sp)
    _add_common(sp, "text")

    sp = sub.add_parser("bounds", help="tangle bound curves on an R grid")
    sp.add_argument("--r-min", type=float, default=0.0)
    sp.add_argument("--r-max", type=float, default=float(np.sqrt(3.0)))
    sp.add_argument("--points", type=int, default=200)
    _add_common(sp, "csv")

    sp = sub.add_parser("sample",
                        help="per-type scatter rows from the seeded sampler")
    sp.add_argument("--type", default="all",
                    choices=("all",) + qstate.TYPE_IDS)
    sp.add_argument("--n", type=int, default=1000,
                    help="samples per type")
    _add_common(sp, "csv")

    sp = sub.add_parser("sweep", help="chain dataset over a coupling grid")
    sp.add_argument("--model", required=True, choices=chains.MODELS)
    sp.add_argument("--delta-min", type=float, required=True)
    sp.add_argument("--delta-max", type=float, required=True)
    sp.add_argument("--points", type=int, default=101)
    sp.add_argument("--perturb", type=float, default=0.0,
                    help="probe-field strength; nonzero switches to "
                         "numeric-only rows")
    sp.add_argument("--params-policy", choices=("grid", "mc"), default="grid",
                    help="how degenerate levels are expanded into members")
    _add_common(sp, "csv")

    sp = sub.add_parser("verify", help="run the library self-check battery")
    sp.add_argument("--check", action="append", metavar="NAME",
                    choices=verify.check_names(),
                    help="run only this check (repeatable)")
    _add_common(sp, "text")

    for parser in (p, *sub.choices.values()):
        parser._negative_number_matcher = _NEGATIVE_NUMBER
    return p


_DISPATCH = {
    "analyze": _cmd_analyze,
    "classify": _cmd_classify,
    "cd": _cmd_cd,
    "bounds": _cmd_bounds,
    "sample": _cmd_sample,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
}


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser main reads every command line with, built once."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.seed = _resolve_seed(args.seed)
        text, code = _DISPATCH[args.verb](args)
        _emit(text, args.out)
        return code
    except NumericalError as exc:
        print(f"error:{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (TriqentError, OSError) as exc:
        print(f"error:{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a size too large to allocate; named as the builtin, not as numpy's
        # private subclass of it
        print(f"error:MemoryError: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
