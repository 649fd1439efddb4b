"""Span tracer for the traced benchmark run.

The tracer wraps gradal's public functions where they are looked up: every
module attribute of the ``gradal`` package that is bound to a target
function (by-name imports included) is replaced by a wrapper, and class
attributes (``Rng.__init__``, ``PoolState.acquire``) are replaced on the
class. Each call records one span -- name, start, end, parent -- in memory.
``uninstall`` puts every original object back.

``layer_metrics`` turns the spans of one traced job into the per-layer
metrics listed in ``PER_LAYER``. A span's self time is its duration minus
the durations of its direct child spans.
"""

import inspect
import math
import os
import statistics
import sys
import time
from collections import defaultdict

SELECTORS = ("grad", "entropy", "badge", "kcenter", "random")

# (module, attribute) pairs wrapped in the traced run; "Class.method" wraps
# the class attribute so that every instance and every importer sees it.
TARGETS = (
    ("cli", "main"), ("cli", "cmd_run"), ("cli", "cmd_compare"),
    ("cli", "load_config"), ("cli", "fingerprint_of"),
    ("cli", "write_json"), ("cli", "write_table"),
    ("al_loop", "run_experiment"), ("al_loop", "evaluate_accuracy"),
    ("acquisition", "timed_select"), ("acquisition", "select_batch"),
    ("acquisition", "select_grad"), ("acquisition", "select_entropy"),
    ("acquisition", "select_badge"), ("acquisition", "select_kcenter"),
    ("acquisition", "select_random"), ("acquisition", "df_scores"),
    ("acquisition", "pseudo_labels"), ("acquisition", "kmeans_pp_indices"),
    ("model", "init_model"), ("model", "train"), ("model", "predict_proba"),
    ("model", "penultimate"), ("model", "grad_embeddings"),
    ("model", "mean_grad_embedding"),
    ("contraction", "run_contraction_trace"),
    ("evaluation", "paired_t_test"), ("evaluation", "bh_fdr"),
    ("evaluation", "build_ppm"), ("evaluation", "curves_from_results"),
    ("evaluation", "loss_scores"),
    ("numerics", "Rng.__init__"), ("numerics", "derive_seed"),
    ("numerics", "student_t_sf"),
    ("data", "make_blobs"), ("data", "split"), ("data", "init_pool"),
    ("data", "PoolState.acquire"),
)


def _span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.replace('.__init__', '')}"


# Per-span numbers taken from the call's arguments or result. Extractors
# that need named arguments get them bound through the original signature.
def _rows(_args, result):
    return {"rows": int(result.shape[0])}


def _grad_embeddings(_args, result):
    rows, dim = result.shape
    return {"rows": int(rows), "bytes": int(rows) * int(dim) * 8}


def _mean_grad_embedding(args, _result):
    return {"rows": len(args["indices"])}


def _train(args, _result):
    cfg = args["cfg"]
    steps = math.ceil(len(args["indices"]) / cfg.minibatch_size) * cfg.epochs
    return {"steps": steps}


def _select_batch(args, result):
    return {"returned": int(result.indices.size),
            "expected": min(int(args["b"]), int(args["pool"].unlabeled.size))}


def _picks(_args, result):
    return {"picks": int(result.indices.size)}


def _centers(_args, result):
    return {"centers": len(result)}


def _written(args, _result):
    return {"bytes": os.path.getsize(args["path"])}


def _epochs(_args, result):
    return {"epochs": int(result.df_norms.size)}


EXTRACTORS = {
    "model.predict_proba": (_rows, False),
    "model.penultimate": (_rows, False),
    "model.grad_embeddings": (_grad_embeddings, False),
    "model.mean_grad_embedding": (_mean_grad_embedding, True),
    "model.train": (_train, True),
    "acquisition.select_batch": (_select_batch, True),
    "acquisition.select_kcenter": (_picks, False),
    "acquisition.kmeans_pp_indices": (_centers, False),
    "cli.write_json": (_written, True),
    "cli.write_table": (_written, True),
    "contraction.run_contraction_trace": (_epochs, False),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.info = None

    def as_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "info": self.info}


class Tracer:
    """Installs span-recording wrappers on gradal's public functions."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        extractor, needs_binding = EXTRACTORS.get(name, (None, False))
        signature = inspect.signature(fn) if needs_binding else None
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if extractor is not None:
                bound = (signature.bind(*args, **kwargs).arguments
                         if signature is not None else args)
                span.info = extractor(bound, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "gradal" or n.startswith("gradal."))]
        for module_name, attr in TARGETS:
            module = sys.modules[f"gradal.{module_name}"]
            name = _span_name(module_name, attr)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._patches.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def uninstall(self):
        while self._patches:
            obj, key, original = self._patches.pop()
            setattr(obj, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# Per-layer metrics: (name, unit, better). Every traced run reports all of
# them; a layer a workload never calls reads 0.
PER_LAYER = (
    ("al_loop.rounds", "count", "lower"),
    ("al_loop.train.calls", "count", "lower"),
    ("al_loop.phase.train_s", "s", "lower"),
    ("al_loop.phase.eval_s", "s", "lower"),
    ("al_loop.phase.select_s", "s", "lower"),
    ("al_loop.self_s", "s", "lower"),
    ("al_loop.round_s_p50", "s", "lower"),
    ("al_loop.round_s_p90", "s", "lower"),
    ("model.train.calls", "count", "lower"),
    ("model.train.busy_s", "s", "lower"),
    ("model.train.sgd_steps", "count", "lower"),
    ("model.train.us_per_step", "us", "lower"),
    ("model.predict_proba.calls", "count", "lower"),
    ("model.predict_proba.rows", "count", "lower"),
    ("model.predict_proba.busy_s", "s", "lower"),
    ("model.penultimate.calls", "count", "lower"),
    ("model.penultimate.rows", "count", "lower"),
    ("model.penultimate.busy_s", "s", "lower"),
    ("model.forward_rows_per_s", "rows/s", "higher"),
    ("model.grad_embeddings.calls", "count", "lower"),
    ("model.grad_embeddings.rows", "count", "lower"),
    ("model.grad_embeddings.busy_s", "s", "lower"),
    ("model.grad_embeddings.bytes_computed", "B", "lower"),
    ("model.mean_grad_embedding.calls", "count", "lower"),
    ("model.mean_grad_embedding.rows", "count", "lower"),
    ("model.mean_grad_embedding.busy_s", "s", "lower"),
    *((f"acquisition.{m}.{field}", unit, "lower")
      for m in SELECTORS
      for field, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"),
                          ("forward_passes_per_call", "count"))),
    ("acquisition.df_scores.busy_s", "s", "lower"),
    ("acquisition.kmeans_pp.ms_per_center", "ms", "lower"),
    ("acquisition.kcenter.ms_per_pick", "ms", "lower"),
    ("acquisition.batch_fill_ratio", "ratio", "higher"),
    ("contraction.epochs", "count", "lower"),
    ("contraction.ms_per_epoch", "ms", "lower"),
    ("contraction.monitor_s", "s", "lower"),
    ("contraction.step_s", "s", "lower"),
    ("evaluation.build_ppm.busy_s", "s", "lower"),
    ("evaluation.paired_t_test.calls", "count", "lower"),
    ("evaluation.bh_fdr.calls", "count", "lower"),
    ("numerics.Rng.calls", "count", "lower"),
    ("numerics.Rng.busy_s", "s", "lower"),
    ("numerics.student_t_sf.calls", "count", "lower"),
    ("data.PoolState.acquire.calls", "count", "lower"),
    ("data.PoolState.acquire.busy_s", "s", "lower"),
    ("data.make_blobs.busy_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.bytes_written", "B", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# Counts that must repeat exactly between traced runs of one workload.
EXACT_COUNTS = ("al_loop.train.calls", "model.train.sgd_steps",
                *(f"acquisition.{m}.forward_passes_per_call" for m in SELECTORS))


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced job (``trace.*`` excepted)."""
    duration = [s.end - s.start for s in spans]
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    self_time = [duration[i] - sum(duration[c] for c in children[i])
                 for i in range(len(spans))]
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return sum(duration[i] for i in by_name[name])

    def own(name):
        return sum(self_time[i] for i in by_name[name])

    def info(name, key):
        return sum(spans[i].info[key] for i in by_name[name])

    out = {}

    # al_loop: phases are the direct train / evaluate / select children of
    # run_experiment; a round runs from one init_model call to the next.
    phases = {"model.train": "train", "al_loop.evaluate_accuracy": "eval",
              "acquisition.timed_select": "select"}
    phase_s = dict.fromkeys(phases.values(), 0.0)
    phase_calls = dict.fromkeys(phases.values(), 0)
    rounds = []
    run_total = 0.0
    for r in by_name["al_loop.run_experiment"]:
        run_total += duration[r]
        starts = []
        for c in children[r]:
            phase = phases.get(spans[c].name)
            if phase is not None:
                phase_s[phase] += duration[c]
                phase_calls[phase] += 1
            elif spans[c].name == "model.init_model":
                starts.append(spans[c].start)
        ends = starts[1:] + [spans[r].end]
        rounds.extend(e - s for s, e in zip(starts, ends))
    out["al_loop.rounds"] = phase_calls["eval"]
    out["al_loop.train.calls"] = phase_calls["train"]
    out["al_loop.phase.train_s"] = phase_s["train"]
    out["al_loop.phase.eval_s"] = phase_s["eval"]
    out["al_loop.phase.select_s"] = phase_s["select"]
    out["al_loop.self_s"] = run_total - sum(phase_s.values())
    if len(rounds) >= 2:
        deciles = statistics.quantiles(rounds, n=10)
        out["al_loop.round_s_p50"] = statistics.median(rounds)
        out["al_loop.round_s_p90"] = deciles[8]
    else:
        out["al_loop.round_s_p50"] = out["al_loop.round_s_p90"] = sum(rounds)

    # model
    steps = info("model.train", "steps")
    out["model.train.calls"] = calls("model.train")
    out["model.train.busy_s"] = busy("model.train")
    out["model.train.sgd_steps"] = steps
    out["model.train.us_per_step"] = _ratio(busy("model.train"), steps, 1e6)
    for fn in ("predict_proba", "penultimate"):
        out[f"model.{fn}.calls"] = calls(f"model.{fn}")
        out[f"model.{fn}.rows"] = info(f"model.{fn}", "rows")
        out[f"model.{fn}.busy_s"] = busy(f"model.{fn}")
    out["model.forward_rows_per_s"] = _ratio(
        out["model.predict_proba.rows"] + out["model.penultimate.rows"],
        out["model.predict_proba.busy_s"] + out["model.penultimate.busy_s"])
    out["model.grad_embeddings.calls"] = calls("model.grad_embeddings")
    out["model.grad_embeddings.rows"] = info("model.grad_embeddings", "rows")
    out["model.grad_embeddings.busy_s"] = busy("model.grad_embeddings")
    out["model.grad_embeddings.bytes_computed"] = info("model.grad_embeddings", "bytes")
    out["model.mean_grad_embedding.calls"] = calls("model.mean_grad_embedding")
    out["model.mean_grad_embedding.rows"] = info("model.mean_grad_embedding", "rows")
    out["model.mean_grad_embedding.busy_s"] = busy("model.mean_grad_embedding")

    # acquisition: a forward pass belongs to the nearest enclosing selector
    passes = dict.fromkeys(SELECTORS, 0)
    selector_of = {f"acquisition.select_{m}": m for m in SELECTORS}
    for fn in ("model.predict_proba", "model.penultimate"):
        for i in by_name[fn]:
            p = spans[i].parent
            while p >= 0 and spans[p].name not in selector_of:
                p = spans[p].parent
            if p >= 0:
                passes[selector_of[spans[p].name]] += 1
    for m in SELECTORS:
        name = f"acquisition.select_{m}"
        out[f"acquisition.{m}.calls"] = calls(name)
        out[f"acquisition.{m}.busy_s"] = busy(name)
        out[f"acquisition.{m}.self_s"] = own(name)
        out[f"acquisition.{m}.forward_passes_per_call"] = _ratio(passes[m], calls(name))
    out["acquisition.df_scores.busy_s"] = busy("acquisition.df_scores")
    out["acquisition.kmeans_pp.ms_per_center"] = _ratio(
        busy("acquisition.kmeans_pp_indices"),
        info("acquisition.kmeans_pp_indices", "centers"), 1e3)
    # k-center's self time also holds the first distance pass to the labeled set
    out["acquisition.kcenter.ms_per_pick"] = _ratio(
        own("acquisition.select_kcenter"), info("acquisition.select_kcenter", "picks"), 1e3)
    out["acquisition.batch_fill_ratio"] = _ratio(
        info("acquisition.select_batch", "returned"),
        info("acquisition.select_batch", "expected"))

    # contraction, per trace: the monitor is the mean_grad_embedding calls
    # inside a trace; the trace's self time is its SGD steps and norms
    traces = calls("contraction.run_contraction_trace")
    epochs = info("contraction.run_contraction_trace", "epochs")
    out["contraction.epochs"] = _ratio(epochs, traces)
    out["contraction.ms_per_epoch"] = _ratio(
        busy("contraction.run_contraction_trace"), epochs, 1e3)
    out["contraction.monitor_s"] = _ratio(sum(
        duration[c] for t in by_name["contraction.run_contraction_trace"]
        for c in children[t] if spans[c].name == "model.mean_grad_embedding"), traces)
    out["contraction.step_s"] = _ratio(own("contraction.run_contraction_trace"), traces)

    out["evaluation.build_ppm.busy_s"] = busy("evaluation.build_ppm")
    out["evaluation.paired_t_test.calls"] = calls("evaluation.paired_t_test")
    out["evaluation.bh_fdr.calls"] = calls("evaluation.bh_fdr")
    out["numerics.Rng.calls"] = calls("numerics.Rng")
    out["numerics.Rng.busy_s"] = busy("numerics.Rng")
    out["numerics.student_t_sf.calls"] = calls("numerics.student_t_sf")
    out["data.PoolState.acquire.calls"] = calls("data.PoolState.acquire")
    out["data.PoolState.acquire.busy_s"] = busy("data.PoolState.acquire")
    out["data.make_blobs.busy_s"] = busy("data.make_blobs")
    out["cli.self_s"] = sum(self_time[i] for i, s in enumerate(spans)
                            if s.name.startswith("cli."))
    out["cli.bytes_written"] = (info("cli.write_json", "bytes")
                                + info("cli.write_table", "bytes"))
    return out
