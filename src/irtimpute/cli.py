"""Command-line pipeline around the library: fit, impute, inject, test, score.

Each subcommand reads a CSV plus a schema file and is fully deterministic
given its flags — every random choice is seeded, and the seeds are logged.
A ``--config`` file of ``key = value`` lines supplies defaults that explicit
flags override, so a whole benchmark run can live in one text file::

    irtimpute bench --config run.cfg
    irtimpute fit --data d.csv --schema d.cols --out model.json
    irtimpute impute --data d.csv --schema d.cols --model model.json \\
        --out completed.csv

Commands pass raw data to the library: ``fit`` bins continuous features
(``--bins``) and the model keeps the cut points that scoring bins with.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Failures print one ``error: <kind>: <message>`` line to stderr.  Set the
``IRTIMPUTE_LOG`` environment variable (e.g. ``INFO``) for progress detail.
"""

from __future__ import annotations

import argparse
import collections
import itertools
import logging
import os
import sys
import warnings

import numpy as np

from .data import (
    MISSING,
    MISSING_TOKENS,
    CategoricalDataset,
    ColumnSchema,
    atomic_write,
    emit_csv,
    emit_probabilities,
    load_csv,
    load_schema,
    read_text,
    replaced_together,
)
from .errors import DataError, IrtImputeError, UsageError
from .estimation import (
    FitConfig,
    FittedModel,
    diagnostics_report,
    fit,
    fit_many,
    load_model,
    save_model,
)
from .impute import ImputedDataset, impute_dataset
from .metrics import report_text, score_cells
from .missingness import (DEFAULT_DIRECTION, MAR_DIRECTIONS,
                          conditional_values, inject_mar, inject_mcar,
                          littles_test)

__all__ = ["main"]

logger = logging.getLogger("irtimpute")

# destinations of the fit flags, each None unless given
_FIT_FLAGS = ("bins", "grid_size", "grid_lo", "grid_hi", "max_iter", "tol",
              "seed")


# ---------------------------------------------------------------------------
# Config files and argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Argparse that reports usage problems through the exit-code scheme."""

    def error(self, message: str):
        raise UsageError(message)


def _read_config(path: str) -> list[str]:
    """Turn ``key = value`` lines into ``--key=value`` tokens."""
    try:
        text = read_text(path)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    tokens: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise UsageError(f"{path}:{lineno}: empty key")
        if "\0" in line:
            raise UsageError(f"{path}:{lineno}: NUL character")
        # one token, so that a value such as -1e1 is not read as a flag
        tokens.append(f"--{key.replace('_', '-')}={value}")
    return tokens


def _expand_config(argv: list[str]) -> list[str]:
    """Splice config-file tokens in right after the subcommand.

    Config tokens come first, so flags typed on the command line win
    (argparse keeps the last occurrence of a plain option).
    """
    plain: list[str] = []
    config_tokens: list[str] = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--config":
            if i + 1 >= len(argv):
                raise UsageError("--config needs a file path")
            config_tokens.extend(_read_config(argv[i + 1]))
            i += 2
        elif arg.startswith("--config="):
            config_tokens.extend(_read_config(arg.split("=", 1)[1]))
            i += 1
        else:
            plain.append(arg)
            i += 1
    if not config_tokens:
        return plain
    if not plain or plain[0].startswith("-"):
        raise UsageError("--config requires a subcommand")
    return [plain[0], *config_tokens, *plain[1:]]


def _utf8(text: str) -> str:
    """A command-line value, with the bytes that the locale's encoding left
    undecoded (as lone surrogates) read as UTF-8."""
    try:
        return text.encode("utf-8", "surrogateescape").decode()
    except UnicodeError:
        raise argparse.ArgumentTypeError(f"{text!r} is not UTF-8") from None


def _add_io_options(parser, data_help="input CSV (header row required)"):
    if data_help is not None:
        parser.add_argument("--data", required=True, help=data_help)
    parser.add_argument("--schema", required=True,
                        help="schema file (one 'name: kind ...' line per column)")
    parser.add_argument(
        "--missing-tokens", default=",".join(MISSING_TOKENS),
        type=lambda text: tuple(_utf8(text).split(",")), metavar="T1,T2,...",
        help="comma-separated cell values read as missing (default %(default)r)")
    parser.add_argument("--config", help="key = value file of defaults; "
                                         "explicit flags override")


def _add_fit_options(parser):
    """Fit hyperparameters, None unless given, so that a command can tell
    whether the user supplied them; see :func:`_fit_options`."""
    lo, hi = FitConfig.grid_range
    parser.add_argument("--bins", type=int, help="quantile bins for "
                        f"continuous features (default {FitConfig.bins})")
    parser.add_argument("--grid-size", type=int,
                        help=f"quadrature nodes (default {FitConfig.grid_size})")
    parser.add_argument("--grid-lo", type=float,
                        help=f"lowest trait node (default {lo})")
    parser.add_argument("--grid-hi", type=float,
                        help=f"highest trait node (default {hi})")
    parser.add_argument("--max-iter", type=int,
                        help="cap on EM maps, one E-step plus one M-step each "
                             f"(default {FitConfig.max_iter})")
    parser.add_argument("--tol", type=float,
                        help="EM parameter-change tolerance "
                             f"(default {FitConfig.tol})")
    parser.add_argument("--seed", type=int,
                        help=f"random seed (default {FitConfig.seed})")


def _add_injection_options(parser, target_help: str):
    parser.add_argument("--target", required=True, type=_utf8, help=target_help)
    parser.add_argument("--conditional", type=_utf8,
                        help="fully observed column driving deletion "
                             "(mar only)")
    parser.add_argument("--direction", choices=MAR_DIRECTIONS,
                        help="which conditional extreme loses cells "
                             f"(mar only, default {DEFAULT_DIRECTION})")


def build_parser() -> _Parser:
    parser = _Parser(prog="irtimpute",
                     description="categorical imputation via latent-trait "
                                 "models, plus missingness benchmarking")
    commands = parser.add_subparsers(dest="command", required=True,
                                     metavar="command")

    p = commands.add_parser("fit", help="estimate item parameters",
                            description="Fit the latent-trait model and "
                                        "write it to a JSON file.")
    _add_io_options(p)
    _add_fit_options(p)
    p.add_argument("--out", required=True, help="model file to write")

    p = commands.add_parser("impute", help="fill missing cells",
                            description="Complete a dataset using a saved "
                                        "model, or fit one on the fly.")
    _add_io_options(p)
    _add_fit_options(p)
    p.add_argument("--out", required=True, help="completed CSV to write")
    p.add_argument("--model", help="saved model file (omit to fit first)")
    p.add_argument("--save-model", help="where to store the freshly "
                                        "fitted model (fit-and-impute only)")
    p.add_argument("--probabilities",
                   help="sidecar CSV of per-cell category probabilities")

    p = commands.add_parser("inject", help="blank cells of one column",
                            description="Produce a benchmark dataset by "
                                        "deleting target cells.")
    _add_io_options(p)
    p.add_argument("--out", required=True, help="CSV to write")
    _add_injection_options(p, "column losing cells")
    p.add_argument("--fraction", required=True, type=float,
                   help="fraction of rows to blank, in (0, 1)")
    p.add_argument("--mechanism", required=True, choices=("mcar", "mar"))
    p.add_argument("--seed", type=int, help="RNG seed (mcar only)")

    p = commands.add_parser("mcar-test",
                            help="Little's completely-at-random test",
                            description="Run the pattern-mean chi-square "
                                        "test over the feature columns.")
    _add_io_options(p)

    p = commands.add_parser("evaluate", help="score an imputation run",
                            description="Compare imputed cells against the "
                                        "complete truth over the cells a "
                                        "model fills in the with-missing "
                                        "file.")
    p.add_argument("--truth", required=True, help="complete ground-truth CSV")
    p.add_argument("--with-missing", required=True,
                   help="the dataset the imputer saw")
    p.add_argument("--imputed", required=True, help="completed CSV to score")
    _add_io_options(p, data_help=None)

    p = commands.add_parser("bench", help="full inject/fit/impute sweep",
                            description="For every (mechanism, fraction) "
                                        "cell: inject, fit, impute, score "
                                        "against the held-out truth, and "
                                        "run the MCAR test.")
    _add_io_options(p, data_help="complete CSV serving as ground truth")
    _add_fit_options(p)
    _add_injection_options(
        p, "categorical feature column to blank and restore")
    p.add_argument("--fractions", default="0.05,0.1,0.3,0.5",
                   metavar="F1,F2,...",
                   help="missingness fractions (default %(default)s)")
    p.add_argument("--mechanisms", default="mcar,mar", metavar="M1,M2",
                   help="comma-separated mechanisms (default %(default)s)")
    p.add_argument("--out", help="report file (default: stdout)")

    return parser


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

def _load_inputs(args: argparse.Namespace) -> CategoricalDataset:
    return load_csv(args.data, load_schema(args.schema), args.missing_tokens)


def _check_column(schemas, name: str, flag: str) -> ColumnSchema:
    for schema in schemas:
        if schema.name == name:
            return schema
    raise UsageError(f"{flag}: no column named {name!r} in the schema")


def _check_injection(args: argparse.Namespace, schemas, mechanisms,
                     fractions, fraction_flag: str) -> ColumnSchema:
    """The target's schema, once the flags suit a run of ``mechanisms`` at
    ``fractions``, given by ``fraction_flag``."""
    if not all(0.0 < f < 1.0 for f in fractions):
        raise UsageError(f"{fraction_flag} must lie in (0, 1)")
    target = _check_column(schemas, args.target, "--target")
    if "mar" in mechanisms:
        if args.conditional is None:
            raise UsageError("mar injection needs --conditional")
        _check_column(schemas, args.conditional, "--conditional")
        if args.conditional == args.target:
            raise UsageError("--conditional must differ from --target")
    elif args.conditional or args.direction:
        raise UsageError("--conditional/--direction are mar-only flags")
    return target


def _inject(data: CategoricalDataset, args: argparse.Namespace,
            mechanism: str, fraction: float, seed: int | None
            ) -> CategoricalDataset:
    """``data`` with ``fraction`` of the target blanked; mar ignores seed."""
    if mechanism == "mar":
        return inject_mar(data, args.target, args.conditional, fraction,
                          args.direction or DEFAULT_DIRECTION)
    logger.info("mcar injection of %g with seed %d", fraction, seed)
    return inject_mcar(data, args.target, fraction, seed)


def _given_fit_flags(args: argparse.Namespace) -> dict:
    return {key: getattr(args, key) for key in _FIT_FLAGS
            if getattr(args, key) is not None}


def _fit_options(args: argparse.Namespace) -> FitConfig:
    """The fit configuration: the fit flags given, on top of the library's
    defaults."""
    given = _given_fit_flags(args)
    lo, hi = FitConfig.grid_range
    grid_range = (given.pop("grid_lo", lo), given.pop("grid_hi", hi))
    return FitConfig(grid_range=grid_range, **given)


def _logged(model: FittedModel, n_rows: int, seed: int) -> FittedModel:
    """``model``, once its cut points and its fit are logged."""
    for mapping in model.discretization:
        logger.info("discretized %r into %d bins, cuts %s",
                    mapping.column, mapping.bins, list(mapping.cuts))
    logger.info("fitting %d cases with seed %d", n_rows, seed)
    return model


def _written_back(data: CategoricalDataset, result: ImputedDataset
                  ) -> CategoricalDataset:
    """``data`` with the cells of its ``filled_mask`` taken from ``result``:
    a binned continuous cell has no continuous value to restore."""
    return data.with_cells(
        np.where(data.filled_mask, result.completed.cells, data.cells))


def _scored_cells(truth: CategoricalDataset, holed: CategoricalDataset
                  ) -> tuple[np.ndarray, int]:
    """Positions of the cells a model fills in ``holed`` whose truth is
    observed, and the count of filled cells whose truth is missing."""
    filled = holed.filled_mask
    unscoreable = int(np.count_nonzero(filled & truth.missing_mask))
    return np.argwhere(filled & ~truth.missing_mask), unscoreable


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_fit(args: argparse.Namespace) -> int:
    data = _load_inputs(args)
    config = _fit_options(args)
    model = _logged(fit(data, config), data.n_rows, config.seed)
    save_model(model, args.out)
    sys.stdout.write(diagnostics_report(model))
    return 0


def cmd_impute(args: argparse.Namespace) -> int:
    fit_flags = list(_given_fit_flags(args))
    if args.model and (fit_flags or args.save_model):
        culprit = fit_flags[0] if fit_flags else "save-model"
        raise UsageError(
            f"--{culprit.replace('_', '-')} only applies when fitting; "
            "it cannot modify the model loaded via --model"
        )
    outputs = [path for path in
               (args.out, args.probabilities, args.save_model) if path]
    if len({os.path.realpath(path) for path in outputs}) < len(outputs):
        raise UsageError("--out, --probabilities and --save-model must name "
                         "different files")
    data = _load_inputs(args)
    if args.model:
        model = load_model(args.model)
    else:
        config = _fit_options(args)
        model = _logged(fit(data, config), data.n_rows, config.seed)
    result = impute_dataset(data, model)
    unrestored = len(result.mask) - int(np.count_nonzero(data.filled_mask))
    if unrestored:
        warnings.warn(
            f"{unrestored} missing continuous cells stay missing: the model "
            "imputes their bins, not their values",
            stacklevel=2,
        )
    # a failed output must not leave a new one of the others behind
    with replaced_together(*outputs) as temporaries:
        emit_csv(_written_back(data, result), temporaries[0])
        if args.probabilities:
            emit_probabilities(data, result.mask, result.probabilities,
                               temporaries[1])
        if args.save_model:
            save_model(model, temporaries[-1])
    print(f"imputed {len(result.mask)} cells")
    return 0


def cmd_inject(args: argparse.Namespace) -> int:
    schemas = load_schema(args.schema)
    _check_injection(args, schemas, (args.mechanism,), (args.fraction,),
                     "--fraction")
    if args.mechanism == "mcar" and args.seed is None:
        raise UsageError("mcar injection needs --seed")
    if args.mechanism == "mar" and args.seed is not None:
        raise UsageError("mar injection is deterministic; --seed applies to "
                         "mcar only")
    data = load_csv(args.data, schemas, args.missing_tokens)
    out = _inject(data, args, args.mechanism, args.fraction, args.seed)
    emit_csv(out, args.out)
    removed = int(np.sum(out.cells[:, data.column_index(args.target)]
                         == MISSING))
    print(f"removed {removed} cells from column {args.target!r}")
    return 0


def cmd_mcar_test(args: argparse.Namespace) -> int:
    data = _load_inputs(args)
    result = littles_test(data.to_numeric(data.feature_indices))
    print("Little's MCAR test")
    print(f"statistic: {result.statistic:.6f}")
    print(f"df: {result.df}")
    print(f"p-value: {result.p_value:.6g}")
    print(f"patterns: {result.n_patterns}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    schemas = load_schema(args.schema)
    truth = load_csv(args.truth, schemas, args.missing_tokens)
    holed = load_csv(args.with_missing, schemas, args.missing_tokens)
    imputed = load_csv(args.imputed, schemas, args.missing_tokens)
    if not truth.n_rows == holed.n_rows == imputed.n_rows:
        raise DataError("the three datasets must have the same rows")

    mask, unscoreable = _scored_cells(truth, holed)
    if unscoreable:
        warnings.warn(
            f"{unscoreable} blanked cells are missing in the truth too and "
            "cannot be scored",
            stacklevel=2,
        )
    report = score_cells(truth, imputed, mask)
    sys.stdout.write(report_text(report))
    return 0


def _parse_fractions(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise UsageError(f"--fractions: {text!r} is not a comma-separated "
                         "list of numbers") from None


def _parse_mechanisms(text: str) -> tuple[str, ...]:
    mechanisms = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    if not mechanisms or any(m not in ("mcar", "mar") for m in mechanisms):
        raise UsageError("--mechanisms must be a subset of mcar,mar")
    return mechanisms


def _majority_fill(data: CategoricalDataset, target: str
                   ) -> CategoricalDataset:
    """Complete the target column with its observed modal code."""
    codes = data.codes(target)
    mode = np.argmax(np.bincount(codes[codes != MISSING]))
    cells = np.array(data.cells, copy=True)
    cells[codes == MISSING, data.column_index(target)] = mode
    return data.with_cells(cells)


def _bench_rows(truth: CategoricalDataset, target: str, model: FittedModel,
                blanked: np.ndarray, little, cell) -> tuple[str, str]:
    """One bench cell's rows of the Little's-test and F1 tables: impute the
    cell, ``truth`` with ``blanked`` as its target column, with ``model``
    and score its blanked cells as ``impute`` writes them."""
    mechanism, fraction = cell
    cells = np.array(truth.cells)
    cells[:, truth.column_index(target)] = blanked
    injected = truth.with_cells(cells)
    filled = _written_back(injected, impute_dataset(injected, model))
    mask, _ = _scored_cells(truth, injected)
    scored = score_cells(truth, filled, mask)
    baseline = score_cells(truth, _majority_fill(injected, target), mask)
    cells = len(mask)
    return (f"{mechanism:<9} {fraction:<8g} {cells:<6d} "
            f"{little.statistic:<12.6f} {little.df:<4d} "
            f"{little.p_value:.6g}",
            f"{mechanism:<9} {fraction:<8g} {cells:<6d} "
            f"{scored.macro_f1:<12.6f} {scored.micro_f1:<12.6f} "
            f"{baseline.macro_f1:<15.6f} {baseline.micro_f1:.6f}")


def _bench_setup(args: argparse.Namespace
                 ) -> tuple[CategoricalDataset, tuple[str, ...],
                            tuple[float, ...]]:
    """The truth and the sweep's mechanisms and fractions, once the flags
    and the conditional column pass."""
    fractions = _parse_fractions(args.fractions)
    mechanisms = _parse_mechanisms(args.mechanisms)
    schemas = load_schema(args.schema)
    target_schema = _check_injection(args, schemas, mechanisms, fractions,
                                     "--fractions")
    if not target_schema.is_categorical or target_schema.role != "feature":
        raise UsageError("--target must be a categorical feature column")
    truth = load_csv(args.data, schemas, args.missing_tokens)
    if "mar" in mechanisms:
        # refused here, not at the first mar cell after the mcar fits
        conditional_values(truth, args.conditional)
    return truth, mechanisms, fractions


def _write_bench_report(args: argparse.Namespace, mechanisms, fractions,
                        config: FitConfig, little_rows, f1_rows) -> None:
    direction = ((args.direction or DEFAULT_DIRECTION)
                 if "mar" in mechanisms else "-")
    lines = [
        "imputation benchmark",
        f"target: {args.target}",
        f"conditional: {args.conditional or '-'}",
        f"direction: {direction}",
        f"mechanisms: {' '.join(mechanisms)}",
        f"fractions: {' '.join(f'{f:g}' for f in fractions)}",
        f"base seed: {config.seed}",
        f"bins: {config.bins}",
        "",
        "Little's MCAR test on each injected dataset",
        f"{'mechanism':<9} {'fraction':<8} {'cells':<6} "
        f"{'statistic':<12} {'df':<4} p-value",
        *little_rows,
        "",
        "imputed-cell F1, model vs majority baseline",
        f"{'mechanism':<9} {'fraction':<8} {'cells':<6} "
        f"{'model_macro':<12} {'model_micro':<12} "
        f"{'baseline_macro':<15} baseline_micro",
        *f1_rows,
    ]
    text = "\n".join(lines) + "\n"
    if args.out:
        with atomic_write(args.out) as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_bench(args: argparse.Namespace) -> int:
    truth, mechanisms, fractions = _bench_setup(args)
    config = _fit_options(args)
    sweep = list(itertools.product(mechanisms, fractions))
    prepared: collections.deque = collections.deque()

    def fit_inputs():
        # fit_many reads the cells a group at a time and fits each group
        # together
        for cell_index, (mechanism, fraction) in enumerate(sweep):
            injected = _inject(truth, args, mechanism, fraction,
                               config.seed + cell_index)
            little = littles_test(
                injected.to_numeric(injected.feature_indices))
            # the cell differs from the truth in its target column alone
            prepared.append((injected.column_values(args.target), little))
            yield injected

    # fit_many comes first: it prepares a cell before the cell is taken
    rows = [_bench_rows(truth, args.target,
                        _logged(model, truth.n_rows, config.seed),
                        *prepared.popleft(), cell)
            for model, cell in zip(fit_many(fit_inputs(), config), sweep)]
    _write_bench_report(args, mechanisms, fractions, config, *zip(*rows))
    return 0


_COMMANDS = {
    "fit": cmd_fit,
    "impute": cmd_impute,
    "inject": cmd_inject,
    "mcar-test": cmd_mcar_test,
    "evaluate": cmd_evaluate,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    level = os.environ.get("IRTIMPUTE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    # a warning prints as one line, without the source line that raised it
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    # a report prints what the locale's encoding lacks as escapes
    reconfigure = getattr(sys.stdout, "reconfigure", None)
    if reconfigure:
        errors = sys.stdout.errors
        reconfigure(errors="backslashreplace")
    try:
        args = build_parser().parse_args(_expand_config(raw))
        return _COMMANDS[args.command](args)
    except IrtImputeError as exc:
        print(f"error: {exc.kind}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # unreadable/unwritable file
        print(f"error: {DataError.kind}: {exc}", file=sys.stderr)
        return DataError.exit_code
    finally:
        warnings.formatwarning = formatwarning
        if reconfigure:
            reconfigure(errors=errors)


if __name__ == "__main__":
    raise SystemExit(main())
