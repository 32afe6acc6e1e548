"""The four benchmark workloads: inputs, set-up, op rounds and output checks.

Every workload draws its inputs from ``--seed`` alone and hands the
program only those inputs. Calls into jitterkit go through
``tracer.wrap`` under a ``<layer>.<function>`` span name, so a traced run
records a span around each of them; an untraced run calls the library
directly. ``RATIONALE.md`` says why each workload exists.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
from statistics import NormalDist

import numpy as np

import jitterkit as jk
from harness import Op, OpResult, Tracer, python_command

THETA, NU, JITTERS = 0.8, 5, 5
CDF_SLACK = 1e-9           # the regression layer's own slack on a reached level
CONT_QUANTILE_CDF_TOL = 1e-6
PROB_SUM_TOL = 1e-12
POINT_EVAL_RTOL = 1e-10
ORACLE_TOL = 1e-8
CLI_RTOL = 1e-12
ALPHA_RANGE = (0.05, 0.95)


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


class QueryPlan:
    """Seeded query points, spread evenly over the rounds of a run.

    Round i takes ``frac(u_k + i * step_k)`` in each dimension k: the seed
    draws the offsets u_k, the fixed irrational steps spread any run of
    rounds evenly over [0, 1). Runs on different seeds then query alike
    mixes of points, which keeps their op mix, and so their timing, alike.
    """

    STEPS = (0.6180339887498949, 0.41421356237309515, 0.7320508075688772,
             0.2360679774997898, 0.6457513110645906)

    def __init__(self, seed: int):
        self.offsets = _rng(seed, 1).random(len(self.STEPS))

    def u(self, index: int, k: int) -> float:
        return float((self.offsets[k] + index * self.STEPS[k]) % 1.0)

    def alpha(self, index: int, k: int) -> float:
        lo, hi = ALPHA_RANGE
        return lo + (hi - lo) * self.u(index, k)

    def choice(self, index: int, k: int, count: int) -> int:
        return min(int(self.u(index, k) * count), count - 1)

    def normal(self, index: int, k: int) -> float:
        return NormalDist().inv_cdf(min(max(self.u(index, k), 1e-9), 1.0 - 1e-9))


def _zx_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    """z ~ Binomial(4, .3), x | z ~ N(z, .7^2)."""
    z = rng.binomial(4, 0.3, n).astype(float)
    return np.column_stack([z, z + 0.7 * rng.standard_normal(n)])


ZX_SCHEMA = (jk.ColumnSchema("z", "discrete_ordered"), jk.ColumnSchema("x", "continuous"))


class Workload:
    """Base: subclasses fill in inputs, set-up, rounds and checks."""

    name = ""
    # (min samples, min seconds, max set-ups) of each of the two timed set-up bursts
    setup_repeats = (3, 0.25, 10000)
    rss_of_children = False

    def __init__(self, seed: int, tracer: Tracer, workdir: str, root: str):
        self.seed = seed
        self.tracer = tracer
        self.workdir = workdir
        self.root = root

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, index: int) -> list[Op]:
        raise NotImplementedError

    def check(self, result: OpResult, index: int) -> str | None:
        """None when the output is correct, else what is wrong."""
        raise NotImplementedError

    def checked_in_full(self, index: int) -> bool:
        return True

    def corrupt(self, result: OpResult):
        """A wrong copy of the output, which ``check`` must reject."""
        raise NotImplementedError

    def run_checks(self, results: list[OpResult]) -> list[str]:
        """Checks across ops or of the set-up, made on the outputs as the
        program gave them, before any per-op check; a list of failures."""
        return []

    def notes(self) -> dict:
        return {}

    def warm_up(self) -> None:
        for op in self.round(0):
            op.call()


def _estimate_ok(est) -> str | None:
    value = np.asarray(est.value, dtype=float)
    if not np.all(np.isfinite(value)):
        return f"non-finite value {est.value!r}"
    if not est.denominator_mass > 0.0:
        return f"denominator_mass {est.denominator_mass!r} is not positive"
    return None


class Functionals(Workload):
    """Conditional queries on a fitted KDE of (z, x, dummy-coded g)."""

    name = "functionals"
    n = 2000

    def __init__(self, seed, tracer, workdir, root):
        super().__init__(seed, tracer, workdir, root)
        rng = _rng(seed, 0)
        rows = _zx_rows(rng, self.n)
        x = rows[:, 1]
        logits = np.column_stack([np.zeros(self.n), x - 1.0, 2.0 * x - 4.0])
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        g = (rng.random(self.n)[:, None] > np.cumsum(probs, axis=1)[:, :2]).sum(axis=1)
        schema = ZX_SCHEMA + (jk.ColumnSchema("g", "categorical", ("a", "b", "c")),)
        self.raw = jk.MixedDataset(schema, np.column_stack([rows, g]))
        self.spec = jk.NoiseSpec(THETA, NU, dims=4)  # z plus three dummies
        self.class_columns = (2, 3, 4)
        self.ranges = {0: (0.0, 4.0), 1: (float(x.min()), float(x.max()))}
        self.sorted_x = np.sort(x)
        self.plan = QueryPlan(seed)
        w = tracer.wrap
        self.dummy_code = w("data.dummy_code", jk.dummy_code)
        self.fit_kde = w("estimators.fit_kde", jk.fit_kde)
        self.cond_mean = w("regression.cond_mean", jk.cond_mean)
        self.cond_cdf = w("regression.cond_cdf", jk.cond_cdf)
        self.quantile_discrete = w("regression.cond_quantile_discrete", jk.cond_quantile)
        self.quantile_continuous = w("regression.cond_quantile_continuous", jk.cond_quantile)
        self.classify = w("regression.classify", jk.classify)

    def setup(self):
        data = self.dummy_code(self.raw, "g")
        self.model = self.fit_kde(data, self.spec, jk.GAUSSIAN, num_jitters=JITTERS,
                                  seed=self.seed)

    def round(self, index):
        plan = self.plan
        x = float(self.sorted_x[plan.choice(index, 0, self.n)])
        a_disc, a_cont = plan.alpha(index, 1), plan.alpha(index, 2)
        z, t = plan.choice(index, 3, 4), plan.choice(index, 4, 4)
        m = self.model
        Q = jk.FunctionalQuery
        queries = [
            ("cond_mean_z|x", self.cond_mean, Q("mean", 0, "discrete", {1: x})),
            ("cond_cdf_z", self.cond_cdf, Q("cdf", 0, "discrete", threshold=t)),
            ("cond_quantile_z|x", self.quantile_discrete,
             Q("quantile", 0, "discrete", {1: x}, alpha=a_disc)),
            ("classify_g|x", self.classify,
             Q("class_probs", 2, "discrete", {1: x}, class_columns=self.class_columns)),
            ("cond_mean_x|z", self.cond_mean, Q("mean", 1, "continuous", {0: z})),
            ("cond_quantile_x|z", self.quantile_continuous,
             Q("quantile", 1, "continuous", {0: z}, alpha=a_cont)),
        ]
        return [Op(kind, lambda f=f, q=q: f(m, q), {"query": q}) for kind, f, q in queries]

    def warm_up(self):
        for op in self.round(0)[:-1]:  # all but the slow continuous quantile
            op.call()

    def _cdf(self, query, threshold) -> float:
        q = jk.FunctionalQuery("cdf", query.response_index, query.response_kind,
                               query.covariate_point, threshold=threshold)
        return jk.cond_cdf(self.model, q).value

    def check(self, result, index):
        est, q = result.output, result.op.args["query"]
        problem = _estimate_ok(est)
        if problem:
            return problem
        v = est.value
        if q.kind == "mean":
            lo, hi = self.ranges[q.response_index]
            if not lo - 1.0 <= v <= hi + 1.0:
                return f"mean {v!r} outside the response range [{lo}, {hi}] widened by 1"
        elif q.kind == "cdf":
            if not 0.0 <= v <= 1.0:
                return f"cdf {v!r} outside [0, 1]"
        elif q.kind == "class_probs":
            if np.any(v < 0.0) or abs(float(np.sum(v)) - 1.0) > PROB_SUM_TOL:
                return f"class probabilities {v.tolist()} negative or not summing to 1"
        elif q.response_kind == "discrete":
            if float(v) != math.floor(v):
                return f"discrete quantile {v!r} is not an integer"
            at, below = self._cdf(q, v), self._cdf(q, v - 1.0)
            if not (at >= q.alpha - CDF_SLACK and below < q.alpha):
                return f"quantile {v} at alpha {q.alpha}: cdf(q) = {at}, cdf(q-1) = {below}"
        else:
            at = self._cdf(q, v)
            if abs(at - q.alpha) > CONT_QUANTILE_CDF_TOL:
                return f"cdf at continuous quantile {v} is {at}, alpha {q.alpha}"
        return None

    def corrupt(self, result):
        est, q = result.output, result.op.args["query"]
        shift = {"mean": 100.0, "cdf": 2.0, "quantile": 1.0}
        value = est.value * 2.0 if q.kind == "class_probs" else est.value + shift[q.kind]
        return jk.ConditionalEstimate(value=value, denominator_mass=est.denominator_mass,
                                      query=q)


def _gaussian(u):
    return np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)


def _epanechnikov(u):
    return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)


def _reference_bandwidth(rows: np.ndarray) -> np.ndarray:
    """Normal-reference bandwidth times the sample sd, per column."""
    n, d = rows.shape
    b = (4.0 / (d + 2.0)) ** (1.0 / (d + 4.0)) * n ** (-1.0 / (d + 4.0))
    return b * rows.std(axis=0, ddof=1)


class PointEval(Workload):
    """Single-point kde_eval (both kernels) and loclin_eval at n = 200 000."""

    name = "point-eval"
    n = 200_000
    replicate_bytes = JITTERS * n * 2 * 8  # per model: R replicates of n rows, 2 columns
    spot_every = 4  # every 4th op is recomputed by the reference; 4 and 3 kinds are coprime

    def __init__(self, seed, tracer, workdir, root):
        super().__init__(seed, tracer, workdir, root)
        self.data = jk.MixedDataset(ZX_SCHEMA, _zx_rows(_rng(seed, 0), self.n))
        self.spec = jk.NoiseSpec(THETA, NU, dims=1)
        self.plan = QueryPlan(seed)
        w = tracer.wrap
        self.fit_kde = w("estimators.fit_kde", jk.fit_kde)
        self.fit_loclin = w("estimators.fit_loclin", jk.fit_loclin)
        self.kde_gauss = w("estimators.kde_eval_gaussian", jk.kde_eval)
        self.kde_epan = w("estimators.kde_eval_epanechnikov", jk.kde_eval)
        self.loclin_eval = w("estimators.loclin_eval", jk.loclin_eval)
        self.jitter = w("data.jitter", jk.jitter)
        self.sample_noise = w("noise.sample_noise", jk.sample_noise)
        self._stack = None

    def setup(self):
        kw = dict(num_jitters=JITTERS, seed=self.seed)
        self.gauss = self.fit_kde(self.data, self.spec, jk.GAUSSIAN, **kw)
        self.epan = self.fit_kde(self.data, self.spec, jk.EPANECHNIKOV, **kw)
        self.loclin = self.fit_loclin(self.data, 1, self.spec, jk.GAUSSIAN, **kw)

    def round(self, index):
        z = 4.0 * self.plan.u(index, 0)
        point = [z, z + 0.7 * self.plan.normal(index, 1)]
        return [
            Op("kde_eval_gaussian", lambda: self.kde_gauss(self.gauss, point),
               {"kernel": _gaussian, "point": point}),
            Op("kde_eval_epanechnikov", lambda: self.kde_epan(self.epan, point),
               {"kernel": _epanechnikov, "point": point}),
            Op("loclin_eval", lambda: self.loclin_eval(self.loclin, [z]), {"z": z}),
        ]

    def _replicates(self) -> np.ndarray:
        """(R, n, 2) stack of the public jitter replicates the fits average."""
        if self._stack is None:
            reps = [self.jitter(self.data, self.spec, self.seed, r) for r in range(JITTERS)]
            self._stack = np.stack([rep.rows for rep in reps])
        return self._stack

    def checked_in_full(self, index):
        return index % self.spot_every == 0

    def check(self, result, index):
        v, args = result.output, result.op.args
        if not math.isfinite(v) or ("kernel" in args and v < 0.0):
            return f"value {v!r} is not finite, or is a negative density"
        if not self.checked_in_full(index):
            return None
        reps = self._replicates()
        if "kernel" in args:
            h = _reference_bandwidth(reps[0])
            k = args["kernel"]((reps - np.asarray(args["point"])) / h).prod(axis=2)
            ref = float(np.mean(k.sum(axis=1) / (self.n * np.prod(h))))
            scale = abs(ref)
        else:
            dz = reps[:, :, 0] - args["z"]
            h = _reference_bandwidth(reps[0][:, :1])[0]
            wt = _gaussian(dz / h)
            y = self.data.rows[:, 1]
            s0, s1, s2 = wt.sum(axis=1), (wt * dz).sum(axis=1), (wt * dz * dz).sum(axis=1)
            t0, t1 = (wt * y).sum(axis=1), (wt * dz * y).sum(axis=1)
            ref = float(np.mean((s2 * t0 - s1 * t1) / (s0 * s2 - s1 * s1)))
            scale = max(abs(ref), 1.0)  # the mean of x can sit near 0
        if abs(v - ref) > POINT_EVAL_RTOL * scale:
            return f"{result.op.kind} = {v!r}, numpy reference {ref!r}"
        return None

    def corrupt(self, result):
        return result.output * (1.0 + 1e-6) + 1e-6

    def run_checks(self, results):
        reps = self._replicates()
        failures = []
        for r in range(JITTERS):
            eps = self.sample_noise(self.spec, self.seed, self.n, r)
            if not np.array_equal(reps[r][:, 0], self.data.rows[:, 0] + eps[:, 0]):
                failures.append(f"replicate {r} is not origin + sample_noise")
            if not np.array_equal(reps[r][:, 1], self.data.rows[:, 1]):
                failures.append(f"replicate {r} changed the continuous column")
        return failures

    def notes(self):
        return {"replicate_bytes_per_model (computed)": self.replicate_bytes,
                "kde_bytes_read_per_point (computed)": self.replicate_bytes}


class _TracedSlices:
    """Forwards ``response_slice`` under a span, so a traced run sees the
    regression layer's calls into the oracle."""

    def __init__(self, density, tracer: Tracer):
        self.response_slice = tracer.wrap("oracle.response_slice", density.response_slice)


class Oracle(Workload):
    """The regression layer over the exact jittered density, across the
    battery theta in {0, .4, .8} x nu in {1, 2, 5}."""

    name = "oracle"
    battery = [(t, v) for t in (0.0, 0.4, 0.8) for v in (1, 2, 5)]

    def __init__(self, seed, tracer, workdir, root):
        super().__init__(seed, tracer, workdir, root)
        self.plan = QueryPlan(seed)
        self.sorted_x = np.sort(_zx_rows(_rng(seed, 0), 4096)[:, 1])
        w = tracer.wrap
        self.verify_membership = w("noise.verify_membership", jk.verify_membership)
        self.eta_density = w("noise.eta_density", jk.eta_density)
        self.convolve_density = w("oracle.convolve_density", jk.convolve_density)
        self.adaptive_integral = w("quadrature.adaptive_integral", jk.adaptive_integral)
        self.cond_mean = w("regression.cond_mean", jk.cond_mean)
        self.cond_cdf = w("regression.cond_cdf", jk.cond_cdf)
        self.quantile_discrete = w("regression.cond_quantile_discrete", jk.cond_quantile)
        self.quantile_continuous = w("regression.cond_quantile_continuous", jk.cond_quantile)

    def setup(self):
        pmf = jk.DiscretePmf.binomial(4, 0.3)
        self.model = jk.SyntheticMixedModel(pmf, jk.GaussianConditional(0.0, 1.0, 0.7, 0.0))
        self.densities = [jk.AnalyticJitteredDensity(self.model, jk.NoiseSpec(t, v, dims=1))
                          for t, v in self.battery]

    def _identity(self, spec):
        pmf = self.model.margin
        report = self.verify_membership(spec)
        atoms = [self.convolve_density(pmf, spec, float(k)) for k in pmf.support]
        g1, g2 = spec.gamma1, spec.gamma2
        mass = self.adaptive_integral(lambda s: self.eta_density(spec, s), -1.0, 1.0,
                                      tol=1e-10, breakpoints=(-g2, -g1, g1, g2))
        return report, atoms, mass

    def round(self, index):
        """Six ops on every spec of the battery: spec costs differ by up to
        4x, so a round covers them all and every run has the same mix."""
        n = len(self.densities)
        return [op for k in range(n) for op in self._spec_ops(self.densities[k], index * n + k)]

    def _spec_ops(self, density, index):
        plan = self.plan
        spec = density.spec
        src = _TracedSlices(density, self.tracer) if self.tracer.available else density
        x = float(self.sorted_x[plan.choice(index, 0, len(self.sorted_x))])
        a_disc, a_cont = plan.alpha(index, 1), plan.alpha(index, 2)
        z, t = plan.choice(index, 3, 5), plan.choice(index, 4, 4)
        Q = jk.FunctionalQuery
        queries = [
            ("cond_mean_z|x", self.cond_mean, Q("mean", 0, "discrete", {1: x})),
            ("cond_cdf_z|x", self.cond_cdf, Q("cdf", 0, "discrete", {1: x}, threshold=t)),
            ("cond_quantile_z|x", self.quantile_discrete,
             Q("quantile", 0, "discrete", {1: x}, alpha=a_disc)),
            ("cond_mean_x|z", self.cond_mean, Q("mean", 1, "continuous", {0: z})),
            ("cond_quantile_x|z", self.quantile_continuous,
             Q("quantile", 1, "continuous", {0: z}, alpha=a_cont)),
        ]
        ops = [Op("identity", lambda: self._identity(spec), {"spec": spec})]
        ops += [Op(kind, lambda f=f, q=q: f(src, q), {"query": q}) for kind, f, q in queries]
        return ops

    def _truth(self, q) -> float:
        pmf, cont = self.model.margin, self.model.continuous
        if q.response_index == 1:  # x given an integer z, where eta(z - k) is 0 or 1
            z = q.covariate_point[0]
            if q.kind == "mean":
                return jk.true_conditional(self.model, "mean", given_z=z)
            return jk.true_conditional(self.model, "quantile", alpha=q.alpha, given_z=z)
        x = q.covariate_point[1]
        weights = [p * cont.density(x, float(k)) for k, p in zip(pmf.support, pmf.probabilities)]
        total = sum(weights)
        post = jk.DiscretePmf(pmf.support_min, tuple(wk / total for wk in weights))
        if q.kind == "mean":
            return post.mean()
        if q.kind == "cdf":
            return post.cdf(q.threshold)
        return float(post.quantile(q.alpha))

    def check(self, result, index):
        if result.op.kind == "identity":
            report, atoms, mass = result.output
            pmf = self.model.margin
            err = max(abs(a - pmf.mass(int(k))) for a, k in zip(atoms, pmf.support))
            if not report.passed or err > 1e-10 or abs(mass - 1.0) > ORACLE_TOL:
                return (f"identities fail for {result.op.args['spec']}: passed={report.passed}, "
                        f"atom error {err}, mass {mass!r}")
            return None
        est, q = result.output, result.op.args["query"]
        problem = _estimate_ok(est)
        if problem:
            return problem
        truth = self._truth(q)
        exact = q.kind == "quantile" and q.response_kind == "discrete"
        if (est.value != truth) if exact else abs(est.value - truth) > ORACLE_TOL:
            return f"{result.op.kind} = {est.value!r}, exact {truth!r}"
        return None

    def corrupt(self, result):
        if result.op.kind == "identity":
            report, atoms, mass = result.output
            return report, atoms, mass + 1e-6
        est = result.output
        return jk.ConditionalEstimate(value=est.value + 1e-6,
                                      denominator_mass=est.denominator_mass, query=est.query)


class Cli(Workload):
    """One process per op: fit, eval, jitter and benchmark on CSV inputs."""

    name = "cli"
    n = 20_000
    setup_repeats = (2, 0.0, 2)
    rss_of_children = True
    timeout_s = 60.0
    import_probes = 3

    def __init__(self, seed, tracer, workdir, root):
        super().__init__(seed, tracer, workdir, root)
        self.prog, self.env = python_command(root)
        self.spec = jk.NoiseSpec(THETA, NU, dims=1)
        self.csv = os.path.join(workdir, "data.csv")
        self.kde_path = os.path.join(workdir, "kde.model")
        self.loclin_path = os.path.join(workdir, "loclin.model")
        self.model_config = os.path.join(workdir, "model.json")
        w = tracer.wrap
        self.write_csv = w("data.write_csv", jk.write_csv)
        self.load_csv = w("data.load_csv", jk.load_csv)
        self.load_model = w("estimators.load_model", jk.load_model)
        self.save_model = w("estimators.save_model", jk.save_model)
        self.fit = w("cli.fit", self._run)
        self.jitter = w("cli.jitter", self._run)
        self.benchmark = w("cli.benchmark", self._run)
        self.evals = {kind: w(f"cli.eval_{kind}", self._run)
                      for kind in ("density", "mean", "cdf", "quantile", "loclin")}
        self.write_csv(jk.MixedDataset(ZX_SCHEMA, _zx_rows(_rng(seed, 0), self.n)), self.csv)
        with open(self.model_config, "w", encoding="utf-8") as fh:
            json.dump({"margin": {"family": "binomial", "n": 4, "p": 0.3},
                       "continuous": {"family": "gaussian", "mean": [0.0, 1.0],
                                      "scale": [0.7, 0.0]}}, fh)
        rng = _rng(seed, 1)
        z = float(rng.uniform(0.0, 4.0))
        self.at = {"z": f"{z:.6f}", "x": f"{z + 0.7 * float(rng.standard_normal()):.6f}",
                   "z_loclin": f"{float(rng.uniform(0.0, 4.0)):.6f}"}
        self.threshold = str(int(rng.integers(0, 4)))
        self.alpha = f"{float(rng.uniform(*ALPHA_RANGE)):.6f}"
        self.noise_args = ["--theta", str(THETA), "--nu", str(NU), "--seed", str(seed)]
        self.schema_args = ["--discrete", "z", "--continuous", "x"]
        self._library = {}
        self._first = {}

    def _run(self, args: list[str]) -> bytes:
        done = subprocess.run(self.prog + args, env=self.env, capture_output=True,
                              timeout=self.timeout_s, cwd=self.workdir)
        if done.returncode != 0:
            tail = done.stderr.decode(errors="replace").strip()[-300:]
            raise RuntimeError(f"exit code {done.returncode}: {tail}")
        return done.stdout

    def setup(self):
        common = ["--input", self.csv, "--jitters", str(JITTERS)] + self.schema_args
        self.fit(["fit", "--output", self.kde_path] + common + self.noise_args)
        self.fit(["fit", "--output", self.loclin_path, "--estimator", "loclin",
                  "--response", "x"] + common + self.noise_args)
        if self.tracer.enabled and self.import_probes:
            probe = self.tracer.wrap("cli.import", subprocess.run)
            for _ in range(self.import_probes):
                probe([self.prog[0], "-c", "import jitterkit"], env=self.env, check=True,
                      timeout=self.timeout_s)
            self.import_probes = 0

    def warm_up(self):
        pass  # every op is a fresh process; nothing in this one warms up

    def _file_op(self, run, args, path) -> bytes:
        run(args)
        with open(path, "rb") as fh:
            data = fh.read()
        os.remove(path)
        return data

    def round(self, index):
        at, kde = self.at, ["eval", "--model", self.kde_path]
        z_given_x = kde + ["--response", "z", "--at", f"x={at['x']}"]
        evals = {
            "density": kde + ["--functional", "density", "--at", f"z={at['z']},x={at['x']}"],
            "mean": z_given_x + ["--functional", "mean"],
            "cdf": z_given_x + ["--functional", "cdf", "--threshold", self.threshold],
            "quantile": z_given_x + ["--functional", "quantile", "--alpha", self.alpha],
            "loclin": ["eval", "--model", self.loclin_path, "--functional", "mean",
                       "--at", f"z={at['z_loclin']}"],
        }
        ops = [Op(f"eval_{k}", lambda f=self.evals[k], a=a: f(a), {"eval": k})
               for k, a in evals.items()]
        jit_out = os.path.join(self.workdir, f"jitter-{index}.csv")
        jit_args = (["jitter", "--input", self.csv, "--output", jit_out, "--replicate", "1"]
                    + self.schema_args + self.noise_args)
        ops.append(Op("jitter", lambda: self._file_op(self.jitter, jit_args, jit_out)))
        bench_out = os.path.join(self.workdir, f"benchmark-{index}.csv")
        bench_args = ["benchmark", "--model-config", self.model_config, "--n-grid",
                      "500,2000,8000", "--seeds", "6", "--workers", "2", "--output", bench_out,
                      "--theta", str(THETA), "--nu", str(NU), "--seed", str(self.seed)]
        ops.append(Op("benchmark", lambda: self._file_op(self.benchmark, bench_args, bench_out)))
        return ops

    def _library_value(self, kind: str) -> float:
        """The value the library computes from the same artifact and inputs."""
        model = self.load_model(self.loclin_path if kind == "loclin" else self.kde_path)
        if kind not in self._library:
            at = self.at
            if kind == "loclin":
                value = jk.loclin_eval(model, [float(at["z_loclin"])])
            elif kind == "density":
                value = jk.kde_eval(model, [float(at["z"]), float(at["x"])])
            else:
                q = jk.FunctionalQuery(kind, 0, "discrete", {1: float(at["x"])},
                                       threshold=float(self.threshold) if kind == "cdf" else None,
                                       alpha=float(self.alpha) if kind == "quantile" else None)
                value = {"mean": jk.cond_mean, "cdf": jk.cond_cdf,
                         "quantile": jk.cond_quantile}[kind](model, q).value
            self._library[kind] = float(value)
        return self._library[kind]

    def _expected_jitter(self) -> bytes:
        if "jitter" not in self._library:
            data = self.load_csv(self.csv, ZX_SCHEMA)
            path = os.path.join(self.workdir, "jitter-reference.csv")
            self.write_csv(jk.jitter(data, self.spec, self.seed, 1), path)
            with open(path, "rb") as fh:
                self._library["jitter"] = fh.read()
        return self._library["jitter"]

    def check(self, result, index):
        kind, out = result.op.kind, result.output
        if out != self._first[kind]:
            return f"{kind} output differs from the first, identical {kind} op"
        if kind == "jitter":
            return None if out == self._expected_jitter() else "jitter CSV differs from library"
        if kind == "benchmark":
            rows = list(csv.reader(io.StringIO(out.decode())))
            cells = {(int(r[0]), int(r[1])) for r in rows[1:]}
            errors = [float(r[3]) for r in rows[1:]]
            want = {(n, s) for n in (500, 2000, 8000) for s in range(6)}
            if (rows[0] != ["n", "seed", "functional", "error"] or cells != want
                    or len(rows) != 19 or not all(0.0 <= e < 0.2 for e in errors)):
                return f"benchmark CSV malformed or errors out of [0, 0.2): {rows[:3]}"
            return None
        rows = list(csv.reader(io.StringIO(out.decode())))
        value = float(rows[1][4])
        expected = self._library_value(result.op.args["eval"])
        if abs(value - expected) > CLI_RTOL * max(abs(expected), 1.0):
            return f"{kind} printed {value!r}, library gives {expected!r}"
        return None

    def corrupt(self, result):
        out = result.output
        if result.op.kind in ("jitter", "benchmark"):
            return out[:-3] + b"9" + out[-2:] if out[-3:-2] != b"9" else out[:-3] + b"1" + out[-2:]
        head, row = out.decode().splitlines()[:2]
        cells = next(csv.reader([row]))
        cells[4] = repr(float(cells[4]) * (1.0 + 1e-9) + 1e-9)
        buf = io.StringIO()
        csv.writer(buf).writerows([head.split(","), cells])
        return buf.getvalue().encode()

    def run_checks(self, results):
        for r in results:  # repeated identical ops must print identical bytes
            if r.error is None:
                self._first.setdefault(r.op.kind, r.output)
        data = self.load_csv(self.csv, ZX_SCHEMA)
        kw = dict(num_jitters=JITTERS, seed=self.seed)
        refits = {self.kde_path: jk.fit_kde(data, self.spec, jk.GAUSSIAN, **kw),
                  self.loclin_path: jk.fit_loclin(data, 1, self.spec, jk.GAUSSIAN, **kw)}
        failures = []
        for path, model in refits.items():
            ref = path + ".reference"
            self.save_model(model, ref)
            with open(path, "rb") as a, open(ref, "rb") as b:
                if a.read() != b.read():
                    failures.append(f"{os.path.basename(path)} differs from an in-process refit")
        return failures

    def notes(self):
        return {"artifact_mb": os.path.getsize(self.kde_path) / 1e6}


WORKLOADS = {cls.name: cls for cls in (Functionals, PointEval, Oracle, Cli)}
