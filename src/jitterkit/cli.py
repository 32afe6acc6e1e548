"""Command-line front end.

Subcommands: jitter, fit, eval, verify, simulate, benchmark. Every
subcommand is deterministic given --seed (default 0). Option precedence
is flags > config file > built-in defaults. A --config file is a JSON
object keyed by the subcommand's option names with ``_`` (``grid_points``,
``n_grid``); each value is checked as its flag's is, a list stands for
its comma-joined items, a switch is set by ``true``, and keys that name no
option, and null values, are ignored. Exit codes: 0 success, 1 usage error, 2 data error,
3 numerical or verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from .data import ColumnSchema, MixedDataset, dummy_code, jitter, load_csv, write_csv
from .errors import (
    DegenerateColumnError,
    IngestionError,
    InsufficientDataError,
    InvalidParameterError,
    NoLocalDataError,
    NumericalError,
    QuantileSearchError,
    SchemaError,
    UndefinedConditionalError,
)
from .estimators import (
    KdeModel,
    LocLinModel,
    fit_kde,
    fit_loclin,
    get_kernel,
    kde_eval,
    load_model,
    loclin_eval,
    save_model,
)
from .noise import NoiseSpec, eta_density, verify_membership
from .oracle import (
    DiscretePmf,
    convolve_density,
    finite_difference,
    model_from_config,
    sample_model,
    true_conditional,
)
from .regression import (
    FunctionalQuery,
    classify,
    cond_cdf,
    cond_mean,
    cond_quantile,
    response_slice,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

_VERIFY_THETAS = (0.0, 0.4, 0.8)
_VERIFY_NUS = (1, 2, 5)
_BENCH_FUNCTIONALS = ("kde_atom_mae", "mean_abs_err")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageError(message)

    def config_flags(self, cfg: dict) -> list[str]:
        """The flags that set this parser's options to a config's values.

        A key is an option's name with ``_`` (``grid_points``); keys that
        name no option, and ``null`` values, are ignored. A list gives its
        items joined with commas, and a switch is set by ``true`` and left
        off by ``false``.
        """
        flags = []
        for action in self._actions:
            if cfg.get(action.dest) is None or action.dest == "help":
                continue
            value, flag = cfg[action.dest], action.option_strings[-1]
            if action.nargs == 0 and isinstance(value, bool):
                flags += [flag] if value else []
            else:
                text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
                flags.append(f"{flag}={text}")
        return flags


def _add_noise_opts(p):
    p.add_argument("--theta", type=float, default=0.8, help="noise shoulder width in [0, 1)")
    p.add_argument("--nu", type=int, default=5, help="noise smoothness (positive integer)")
    p.add_argument("--seed", type=int, default=0, help="master seed (default %(default)s)")


def _add_schema_opts(p):
    p.add_argument("--discrete", default=None, help="comma-separated discrete column names")
    p.add_argument("--continuous", default=None, help="comma-separated continuous column names")
    p.add_argument("--categorical", default=None, help="comma-separated categorical column names")


def _add_config_opt(p):
    p.add_argument("--config", default=None, help="JSON config file (flags take precedence)")


def build_parser() -> _Parser:
    parser = _Parser(prog="jitterkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("jitter", parents=[], help="jitter a CSV dataset")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--replicate", type=int, default=0, help="replicate index (default %(default)s)")
    _add_schema_opts(p)
    _add_noise_opts(p)
    _add_config_opt(p)
    p.set_defaults(func=run_jitter)

    p = sub.add_parser("fit", help="fit a jittered estimator and save the model")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True, help="model artifact path")
    p.add_argument("--estimator", choices=("kde", "loclin"), default="kde")
    p.add_argument("--response", default=None, help="response column name (loclin)")
    p.add_argument("--jitter-response", action="store_true",
                   help="jitter a discrete response too (loclin)")
    p.add_argument("--jitters", type=int, default=1, help="number of jitter replicates")
    p.add_argument("--kernel", choices=("gaussian", "epanechnikov"), default="gaussian")
    p.add_argument("--bandwidth", default=None,
                   help="override: one value or comma-separated per column")
    _add_schema_opts(p)
    _add_noise_opts(p)
    _add_config_opt(p)
    p.set_defaults(func=run_fit)

    p = sub.add_parser("eval", help="evaluate a fitted model")
    p.add_argument("--model", required=True, help="model artifact path")
    p.add_argument("--functional", default="density",
                   choices=("density", "mean", "cdf", "quantile", "class_probs"))
    p.add_argument("--response", default=None, help="response column name")
    p.add_argument("--at", default=None, help="covariate point, e.g. 'z=2,x=0.5'")
    p.add_argument("--threshold", type=float, default=None, help="cdf threshold")
    p.add_argument("--alpha", type=float, default=None, help="quantile level in [0, 1]")
    p.add_argument("--classes", default=None, help="comma-separated dummy column names")
    p.add_argument("--output", default=None, help="output CSV (default stdout)")
    _add_config_opt(p)
    p.set_defaults(func=run_eval)

    p = sub.add_parser("verify", help="run the noise and density identity checks")
    p.add_argument("--theta", type=float, default=None, help="check a single theta")
    p.add_argument("--nu", type=int, default=None, help="check a single nu")
    p.add_argument("--grid-points", type=int, default=401)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--corrupt-eta-scale", type=float, default=None, help=argparse.SUPPRESS)
    _add_config_opt(p)
    p.set_defaults(func=run_verify)

    p = sub.add_parser("simulate", help="draw a synthetic dataset to CSV")
    p.add_argument("--model-config", required=True, help="JSON synthetic model config")
    p.add_argument("--count", type=int, default=1000, help="number of rows")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    _add_config_opt(p)
    p.set_defaults(func=run_simulate)

    p = sub.add_parser("benchmark", help="empirical error vs sample size study")
    p.add_argument("--model-config", required=True, help="JSON synthetic model config")
    p.add_argument("--n-grid", default="500,2000,8000", help="comma-separated sample sizes")
    p.add_argument("--seeds", type=int, default=20, help="number of replications per n")
    p.add_argument("--jitters", type=int, default=1)
    p.add_argument("--kernel", choices=("gaussian", "epanechnikov"), default="gaussian")
    p.add_argument("--functionals", default="kde_atom_mae",
                   help=f"comma-separated subset of {_BENCH_FUNCTIONALS}")
    p.add_argument("--workers", type=int, default=None,
                   help="ignored, kept only so older configs still parse: "
                        "(n, seed) cells run in order")
    p.add_argument("--output", required=True, help="long-format CSV (n, seed, functional, error)")
    _add_noise_opts(p)
    _add_config_opt(p)
    p.set_defaults(func=run_benchmark)

    parser.commands = sub.choices  # each subcommand's parser, by name, for --config
    return parser


def _with_config(parser: _Parser, argv, args) -> argparse.Namespace:
    """``args`` parsed again with the --config file's values as flags put
    right after the subcommand: argparse checks each value's type and
    choices as it checks the flag's, and a flag on the command line, which
    comes later, wins."""
    if args.config is None:
        return args
    with open(args.config, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise IngestionError(f"{args.config}: config must be a JSON object")
    argv = list(sys.argv[1:] if argv is None else argv)
    at = argv.index(args.command) + 1
    flags = parser.commands[args.command].config_flags(cfg)
    return parser.parse_args(argv[:at] + flags + argv[at:])


def _split_names(value) -> list[str]:
    """The items of a comma-separated option."""
    if not value:
        return []
    return [t.strip() for t in value.split(",") if t.strip()]


def _split_numbers(value, kind, flag: str) -> list:
    try:
        return [kind(t) for t in _split_names(value)]
    except ValueError:
        raise InvalidParameterError(f"{flag} needs numbers, got {value!r}") from None


def _read_header(path) -> list[str]:
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), None)
    if header is None:
        raise IngestionError(f"{path}: empty file, expected a header row")
    return header


def _schema_from_flags(path, args) -> list[ColumnSchema]:
    kinds = {}
    for flag, kind in (
        ("discrete", "discrete_ordered"),
        ("continuous", "continuous"),
        ("categorical", "categorical"),
    ):
        for name in _split_names(getattr(args, flag)):
            if name in kinds:
                raise IngestionError(f"column {name!r} assigned more than one kind")
            kinds[name] = kind
    header = _read_header(path)
    missing = [name for name in header if name not in kinds]
    if missing:
        raise IngestionError(f"{path}: no kind declared for columns {missing}")
    unknown = [name for name in kinds if name not in header]
    if unknown:
        raise IngestionError(f"{path}: declared columns {unknown} not in header {header}")
    return [ColumnSchema(name, kinds[name]) for name in header]


def _noise_spec(args, dims: int) -> NoiseSpec:
    return NoiseSpec(theta=args.theta, nu=args.nu, dims=dims)


def _parse_bandwidth(text):
    if text is None:
        return None
    vals = _split_numbers(text, float, "--bandwidth")
    return vals[0] if len(vals) == 1 else vals


def _parse_point(text) -> dict[str, float]:
    point = {}
    for item in _split_names(text):
        if "=" not in item:
            raise InvalidParameterError(f"bad covariate assignment {item!r}; use name=value")
        # at the last "=", so a dummy column such as "g=a" can be set
        name, _, value = item.rpartition("=")
        name = name.strip()
        if name in point:
            raise InvalidParameterError(f"covariate {name!r} is given more than once")
        try:
            point[name] = float(value)
        except ValueError:
            raise InvalidParameterError(f"covariate {item!r} needs a numeric value") from None
    return point


def _column_index(names: list[str], name: str, flag: str) -> int:
    if name not in names:
        raise SchemaError(f"{flag} names unknown column {name!r}")
    return names.index(name)


def _write_rows(path, header: list[str], rows: list[list]) -> None:
    def emit(fh):
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)

    if path is None:
        emit(sys.stdout)
    else:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            emit(fh)


def run_jitter(args) -> int:
    dataset = load_csv(args.input, _schema_from_flags(args.input, args))
    spec = _noise_spec(args, dims=len(dataset.indices_of_kind("discrete_ordered")))
    jittered = jitter(dataset, spec, seed=args.seed, replicate_index=args.replicate)
    write_csv(jittered, args.output)
    return EXIT_OK


def run_fit(args) -> int:
    dataset = load_csv(args.input, _schema_from_flags(args.input, args))
    for col in list(dataset.schema):
        if col.kind == "categorical":
            dataset = dummy_code(dataset, col.name)
    spec = _noise_spec(args, dims=len(dataset.indices_of_kind("discrete_ordered")))
    fit_opts = dict(kernel=get_kernel(args.kernel), num_jitters=args.jitters, seed=args.seed,
                    bandwidth=_parse_bandwidth(args.bandwidth))
    if args.estimator == "loclin":
        if args.response is None:
            raise InvalidParameterError("loclin fits need --response")
        model = fit_loclin(dataset, dataset.column_index(args.response), spec,
                           jitter_response=args.jitter_response, **fit_opts)
    else:
        model = fit_kde(dataset, spec, **fit_opts)
    save_model(model, args.output)
    return EXIT_OK


def _response_kind_of(model, index: int) -> str:
    return "discrete" if model.schema[index].kind == "discrete_ordered" else "continuous"


def run_eval(args) -> int:
    model = load_model(args.model)
    functional = args.functional
    at = _parse_point(args.at)
    names = [c.name for c in model.schema]
    for name in at:
        _column_index(names, name, "--at")
    at_text = ";".join(f"{k}={at[k]!r}" for k in sorted(at))
    header = ["kind", "target", "param", "at", "value", "denominator_mass"]

    if isinstance(model, LocLinModel):
        if functional != "mean":
            raise InvalidParameterError("loclin models evaluate the conditional mean only")
        response = names[model.response_index]
        if args.response not in (None, response):
            _column_index(names, args.response, "--response")  # an unknown name: data error
            raise InvalidParameterError(f"this loclin model's response is {response!r}, "
                                        f"not {args.response!r}")
        if response in at:
            raise InvalidParameterError(f"--at must not set the response column {response!r}")
        cov_names = [names[j] for j in model.covariate_indices]
        missing = [n for n in cov_names if n not in at]
        if missing:
            raise InvalidParameterError(f"--at must set every covariate; missing {missing}")
        point = [at[n] for n in cov_names]
        value = loclin_eval(model, point)
        _write_rows(args.output, header, [["mean", response, "", at_text, repr(value), ""]])
        return EXIT_OK

    assert isinstance(model, KdeModel)
    if functional == "density":
        missing = [n for n in names if n not in at]
        if missing:
            raise InvalidParameterError(f"density needs every column in --at; missing {missing}")
        value = kde_eval(model, [at[n] for n in names])
        _write_rows(args.output, header, [["density", "", "", at_text, repr(value), ""]])
        return EXIT_OK

    response = args.response
    if functional != "class_probs" and response is None:
        raise InvalidParameterError(f"--response is required for {functional}")
    covariate_point = {names.index(n): v for n, v in at.items()}

    if functional == "class_probs":
        class_names = _split_names(args.classes)
        if not class_names:
            raise InvalidParameterError("class_probs needs --classes")
        class_cols = tuple(_column_index(names, n, "--classes") for n in class_names)
        query = FunctionalQuery(
            kind="class_probs", response_index=class_cols[0], response_kind="discrete",
            covariate_point=covariate_point, class_columns=class_cols,
        )
        est = classify(model, query)
        rows = [
            ["class_prob", class_names[i], "", at_text, repr(float(p)),
             repr(est.denominator_mass)]
            for i, p in enumerate(est.value)
        ]
        _write_rows(args.output, header, rows)
        return EXIT_OK

    r_index = _column_index(names, response, "--response")
    r_kind = _response_kind_of(model, r_index)
    query = FunctionalQuery(
        kind=functional,
        response_index=r_index,
        response_kind=r_kind,
        covariate_point=covariate_point,
        threshold=args.threshold,
        alpha=args.alpha,
    )
    est = {"mean": cond_mean, "cdf": cond_cdf, "quantile": cond_quantile}[functional](model, query)
    param = "" if functional == "mean" else repr(
        args.threshold if functional == "cdf" else args.alpha
    )
    _write_rows(args.output, header,
                [[functional, response, param, at_text, repr(float(est.value)),
                  repr(est.denominator_mass)]])
    return EXIT_OK


def run_verify(args) -> int:
    thetas = _VERIFY_THETAS if args.theta is None else (args.theta,)
    nus = _VERIFY_NUS if args.nu is None else (args.nu,)
    battery = [(t, v) for t in thetas for v in nus]

    pmf = DiscretePmf.binomial(4, 0.3)
    atoms = list(pmf.support)
    lines = []
    failures = 0

    def record(label: str, check: str, value: float, ok: bool):
        nonlocal failures
        if not ok:
            failures += 1
        lines.append((label, check, value, "PASS" if ok else "FAIL"))

    for t, v in battery:
        spec = NoiseSpec(theta=t, nu=v, dims=1)
        label = f"theta={t:g} nu={v}"
        density = None
        if args.corrupt_eta_scale is not None:
            density = lambda x, _s=spec, _c=args.corrupt_eta_scale: _c * eta_density(_s, x)
        report = verify_membership(spec, grid_points=args.grid_points, tol=args.tol,
                                   density=density)
        plateau_dev = report.max_abs_plateau_deviation
        record(label, "eta(0) == 1", report.value_at_zero, report.value_at_zero == 1.0)
        record(label, "plateau max|eta-1| <= 1e-12", plateau_dev, plateau_dev <= 1e-12)
        record(label, "eta == 0 outside support", report.max_abs_outside_support,
               report.max_abs_outside_support == 0.0)
        record(label, "|mass - 1| <= 1e-8", abs(report.mass - 1.0),
               abs(report.mass - 1.0) <= 1e-8)

        conv_err = max(
            abs(convolve_density(pmf, spec, float(z)) - pmf.mass(z)) for z in atoms
        )
        record(label, "convolution equals pmf at atoms", conv_err, conv_err <= 1e-10)
        if t == 0.0:
            step_err = max(
                abs(convolve_density(pmf, spec, z + 0.3) - pmf.mass(z)) for z in atoms
            )
            record(label, "theta=0 step structure at z+0.3", step_err, step_err <= 1e-10)
        else:
            h = spec.gamma1 / 2.0
            deriv = max(
                abs(finite_difference(
                    lambda s, _sp=spec: convolve_density(pmf, _sp, s), float(z), order, h
                ))
                for z in atoms
                for order in (1, 2)
            )
            record(label, "derivatives vanish at atoms", deriv, deriv <= 1e-6)

    width = max(len(label) for label, *_ in lines)
    cwidth = max(len(check) for _, check, *_ in lines)
    print(f"{'spec':<{width}}  {'check':<{cwidth}}  {'value':>12}  result")
    for label, check, value, result in lines:
        print(f"{label:<{width}}  {check:<{cwidth}}  {value:>12.3e}  {result}")
    print(f"\n{len(lines) - failures}/{len(lines)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_NUMERIC


def _dataset_from_samples(rows: np.ndarray) -> MixedDataset:
    schema = [ColumnSchema("z", "discrete_ordered")]
    if rows.shape[1] == 2:
        schema.append(ColumnSchema("x", "continuous"))
    return MixedDataset(schema=tuple(schema), rows=rows)


def run_simulate(args) -> int:
    with open(args.model_config, encoding="utf-8") as fh:
        model = model_from_config(json.load(fh))
    rows = sample_model(model, args.count, args.seed)
    write_csv(_dataset_from_samples(rows), args.output)
    return EXIT_OK


def _bench_cell(model, spec, args, n, seed_idx, functionals):
    data_seed = _derived_seed(args.seed, n, seed_idx, 0)
    fit_seed = _derived_seed(args.seed, n, seed_idx, 1)
    dataset = _dataset_from_samples(sample_model(model, n, data_seed))
    kde = fit_kde(dataset, spec, kernel=get_kernel(args.kernel),
                  num_jitters=args.jitters, seed=fit_seed)
    pmf = model.margin
    out = {}
    if "kde_atom_mae" in functionals:
        sl = response_slice(kde, 0, {})
        errs = [abs(sl.density(float(z)) - pmf.mass(z)) for z in pmf.support]
        out["kde_atom_mae"] = float(np.mean(errs))
    if "mean_abs_err" in functionals:
        query = FunctionalQuery(kind="mean", response_index=0, response_kind="discrete")
        est = cond_mean(kde, query)
        out["mean_abs_err"] = abs(float(est.value) - true_conditional(model, "mean"))
    return out


def _derived_seed(master: int, *key: int) -> int:
    ss = np.random.SeedSequence(entropy=master, spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])


def run_benchmark(args) -> int:
    with open(args.model_config, encoding="utf-8") as fh:
        model = model_from_config(json.load(fh))
    n_grid = _split_numbers(args.n_grid, int, "--n-grid")
    functionals = _split_names(args.functionals)
    unknown = [f for f in functionals if f not in _BENCH_FUNCTIONALS]
    if unknown or not functionals:
        raise InvalidParameterError(
            f"functionals must be a nonempty subset of {_BENCH_FUNCTIONALS}, got {functionals}"
        )
    if not n_grid or args.seeds < 1:
        raise InvalidParameterError("need a nonempty n grid and seeds >= 1")
    spec = _noise_spec(args, dims=1)  # a sampled dataset has one discrete column, z

    results = {
        (n, s): _bench_cell(model, spec, args, n, s, functionals)
        for n in n_grid
        for s in range(args.seeds)
    }

    rows = []
    for n, s in sorted(results):
        for functional in sorted(functionals):
            rows.append([n, s, functional, repr(results[(n, s)][functional])])
    _write_rows(args.output, ["n", "seed", "functional", "error"], rows)

    print("benchmark summary (mean error over seeds)")
    print(f"{'functional':<16}{'n':>8}  {'mean_error':>12}")
    for functional in sorted(functionals):
        means = []
        for n in n_grid:
            errs = [results[(n, s)][functional] for s in range(args.seeds)]
            means.append(float(np.mean(errs)))
            print(f"{functional:<16}{n:>8}  {means[-1]:>12.6f}")
        if len(n_grid) > 1 and all(m > 0 for m in means):
            slope = float(np.polyfit(np.log(n_grid), np.log(means), 1)[0])
            print(f"{functional:<16}{'log-log slope':>8}  {slope:>12.4f}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError:
        return EXIT_USAGE
    try:
        args = _with_config(parser, argv, args)
        return int(args.func(args))
    except _UsageError:
        return EXIT_USAGE
    except InvalidParameterError as exc:
        print(f"jitterkit: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (IngestionError, SchemaError, DegenerateColumnError,
            InsufficientDataError, UndefinedConditionalError, OSError,
            json.JSONDecodeError) as exc:
        print(f"jitterkit: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalError, QuantileSearchError, NoLocalDataError) as exc:
        print(f"jitterkit: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        print(f"jitterkit: usage error: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())
