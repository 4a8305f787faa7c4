"""Span tracing of ness_sdp from outside the package.

The tracer wraps public functions of the package modules, records one span
per call (name, start, end, parent span, operation id) in memory, and turns
the spans into per-layer metrics. Nothing under ``src/`` is edited: every
hook is installed on each module attribute (or class attribute) that holds
the original function, because callers look functions up there; for
example ``overlaps.apply_to_columns`` and ``oracle.apply_to_columns`` are
separate bindings of ``states.apply_to_columns``. ``restore`` puts every
original back.

One global span stack is kept rather than one per thread: ``ness-sdp
sweep`` runs its points on a worker thread, and with ``--workers 1`` only
one thread runs package code at a time, so nesting stays exact.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

PACKAGE = "ness_sdp"


class Tracer:
    """In-memory spans plus counters filled by hook callbacks."""

    def __init__(self):
        self.spans: list[tuple] = []   # (id, name, start, end, parent, op, self_s)
        self.counts: Counter = Counter()
        self.ness_models: set = set()      # distinct models passed to oracle.exact_ness
        self.op: str | None = None
        self._stack: list[list] = []   # [id, name, start, child_s]
        self._installed: list[tuple] = []
        self.absent: set[str] = set()      # span names whose hook is missing or broken

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> list:
        frame = [len(self.spans) + len(self._stack), name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[2]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((frame[0], frame[1], frame[2], end,
                           None if parent is None else parent[0], self.op,
                           duration - frame[3]))

    def wrap(self, name: str, fn, on_call=None):
        tracer = self

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            frame = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(frame)
            if on_call is not None:
                try:
                    on_call(tracer, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    tracer.absent.add(name)  # the signature or the result changed
            return result

        return hooked

    # -- hooks -------------------------------------------------------------

    def install(self, specs) -> None:
        """Hook every binding of each ``module:name`` in ``specs``; missing ones go to ``absent``."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for target, on_call in specs:
            module_name, _, attr = target.partition(":")
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            owner_name, _, method = attr.rpartition(".")
            if owner_name:  # a method: hook it on its class only
                cls = getattr(module, owner_name, None)
                original = None if cls is None else cls.__dict__.get(method)
                bindings = [] if original is None else [(cls, method)]
            else:
                original = getattr(module, attr, None)
                bindings = [(m, key) for m in modules
                            for key, value in vars(m).items() if value is original]
            name = f"{module_name}.{attr}"
            if original is None or not callable(original):
                self.absent.add(name)
                continue
            hooked = self.wrap(name, original, on_call)
            for owner, key in bindings:
                self._installed.append((owner, key, original))
                setattr(owner, key, hooked)

    def restore(self) -> None:
        while self._installed:
            owner, key, original = self._installed.pop()
            setattr(owner, key, original)

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, op, self_s in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "self_s": self_s}) + "\n")


# -- hook callbacks: counts derived from arguments and results ----------------

def _amp_ops(tracer, args, kwargs, result):
    """Computed, not measured: terms x rows x columns of one Pauli-sum apply."""
    op, matrix = args[0], args[1]
    cols = matrix.shape[1] if matrix.ndim > 1 else 1
    tracer.counts["states.amp_ops"] += op.n_terms * matrix.shape[0] * cols


def _dedup(random_subset: bool):
    """Kept and candidate counts of a moment-state call, from the returned words.

    Level j tries every one-step extension of the states kept at level j-1
    (at most q of them in the random variant); generation stops after the
    first level that keeps nothing new. The seed is one kept candidate.
    """
    def on_call(tracer, args, kwargs, result):
        named = dict(zip(("hamiltonian", "seed", "order", "q"), args), **kwargs)
        r = named["hamiltonian"].n_terms
        order = named["order"]
        q = named["q"] if random_subset else None
        per_level = Counter(len(w) for w in result.words)
        candidates = 1
        for level in range(1, order + 1):
            tried = per_level[level - 1] * r
            candidates += tried if q is None else min(q, tried)
            if per_level[level] == 0:
                break
        tracer.counts["states.ansatz_size"] += result.size
        tracer.counts["states.dedup_candidates"] += candidates
    return on_call


def _whitened_dim(tracer, args, kwargs, result):
    tracer.counts["sdp.whitened_dim"] += result[1].shape[1]


def _ls_iterations(tracer, args, kwargs, result):
    tracer.counts["sdp.ls_iterations"] += result.iterations


def _exact_ness_model(tracer, args, kwargs, result):
    model = args[0] if args else kwargs["model"]
    try:
        tracer.ness_models.add(model)
    except TypeError:  # an unhashable model type
        tracer.ness_models.add(repr(model))


HOOKS = (
    ("pauli:PauliSum.__mul__", None),
    ("pauli:PauliSum.dagger", None),
    ("pauli:PauliSum.to_dense", None),
    ("states:apply_to_columns", _amp_ops),
    ("states:moment_states", _dedup(False)),
    ("states:moment_states_random", _dedup(True)),
    ("overlaps:assemble", None),
    ("overlaps:observable_matrix", None),
    ("overlaps:add_shot_noise", None),
    ("sdp:whiten", _whitened_dim),
    ("sdp:project_affine", None),
    ("sdp:project_psd", None),
    ("sdp:residuals", None),
    ("sdp:solve_feasibility", None),
    ("sdp:solve_least_squares", _ls_iterations),
    ("oracle:build_liouvillian", None),
    ("oracle:steady_states", None),
    ("oracle:exact_ness", _exact_ness_model),
    ("oracle:sparse_steady_state", None),
    ("oracle:true_residual", None),
    ("oracle:fidelity", None),
    ("symmetry:SymmetrySpec.validate", None),
    ("symmetry:extract_all_ness", None),
    ("symmetry:twirl_eliminate_all", None),
    ("symmetry:vandermonde_extract", None),
)

CLI_SPAN = "cli.main"


# Each metric: (unit, span names it reads, value(names, self_s, calls, tracer)),
# where self_s and calls map a span name to its summed self time and call count.
def _self(names, self_s, calls, tracer):
    return sum(self_s[n] for n in names)


def _calls(names, self_s, calls, tracer):
    return sum(calls[n] for n in names)


def _count(key):
    return lambda names, self_s, calls, tracer: tracer.counts[key]


def _keep_ratio(names, self_s, calls, tracer):
    cand = tracer.counts["states.dedup_candidates"]
    return tracer.counts["states.ansatz_size"] / cand if cand else 0.0


def _per_model(names, self_s, calls, tracer):
    distinct = len(tracer.ness_models)
    return calls["oracle.exact_ness"] / distinct if distinct else 0.0


def _extract_attempts(names, self_s, calls, tracer):
    """Feasibility solves made inside ``extract_all_ness``: its first try plus retries."""
    extract_ids = {s[0] for s in tracer.spans if s[1] == "symmetry.extract_all_ness"}
    return sum(1 for s in tracer.spans
               if s[1] == "sdp.solve_feasibility" and s[4] in extract_ids)


_MOMENTS = ["states.moment_states", "states.moment_states_random"]

LAYER_METRICS = {
    "pauli.dagger_calls": ("count", ["pauli.PauliSum.dagger"], _calls),
    "pauli.s": ("s", ["pauli.PauliSum.__mul__", "pauli.PauliSum.dagger",
                      "pauli.PauliSum.to_dense"], _self),
    "states.apply_to_columns_calls": ("count", ["states.apply_to_columns"], _calls),
    "states.apply_to_columns_s": ("s", ["states.apply_to_columns"], _self),
    "states.amp_ops": ("count", ["states.apply_to_columns"], _count("states.amp_ops")),
    "states.moment_states_s": ("s", _MOMENTS, _self),
    "states.ansatz_size": ("count", _MOMENTS, _count("states.ansatz_size")),
    "states.dedup_keep_ratio": ("ratio", _MOMENTS, _keep_ratio),
    "overlaps.assemble_s": ("s", ["overlaps.assemble"], _self),
    "overlaps.observable_matrix_calls": ("count", ["overlaps.observable_matrix"], _calls),
    "overlaps.observable_matrix_s": ("s", ["overlaps.observable_matrix"], _self),
    "overlaps.add_shot_noise_s": ("s", ["overlaps.add_shot_noise"], _self),
    "sdp.whiten_s": ("s", ["sdp.whiten"], _self),
    "sdp.whitened_dim": ("count", ["sdp.whiten"], _count("sdp.whitened_dim")),
    "sdp.outer_iterations": ("count", ["sdp.project_affine"], _calls),
    "sdp.project_affine_s": ("s", ["sdp.project_affine"], _self),
    "sdp.project_psd_calls": ("count", ["sdp.project_psd"], _calls),
    "sdp.project_psd_s": ("s", ["sdp.project_psd"], _self),
    "sdp.solve_feasibility_s": ("s", ["sdp.solve_feasibility"], _self),
    "sdp.finalize_s": ("s", ["sdp.residuals"], _self),
    "sdp.least_squares_s": ("s", ["sdp.solve_least_squares"], _self),
    "sdp.ls_iterations": ("count", ["sdp.solve_least_squares"], _count("sdp.ls_iterations")),
    "oracle.build_liouvillian_s": ("s", ["oracle.build_liouvillian"], _self),
    "oracle.null_space_s": ("s", ["oracle.steady_states"], _self),
    "oracle.exact_ness_calls": ("count", ["oracle.exact_ness"], _calls),
    "oracle.exact_ness_per_model": ("ratio", ["oracle.exact_ness"], _per_model),
    "oracle.sparse_steady_state_s": ("s", ["oracle.sparse_steady_state"], _self),
    "oracle.true_residual_s": ("s", ["oracle.true_residual"], _self),
    "oracle.fidelity_s": ("s", ["oracle.fidelity"], _self),
    "symmetry.validate_s": ("s", ["symmetry.SymmetrySpec.validate"], _self),
    "symmetry.extract_attempts": ("count", ["symmetry.extract_all_ness", "sdp.solve_feasibility"],
                                  _extract_attempts),
    "symmetry.twirl_vandermonde_s": ("s", ["symmetry.twirl_eliminate_all",
                                           "symmetry.vandermonde_extract"], _self),
    "cli.self_s": ("s", [CLI_SPAN], _self),
}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass; a metric whose hook is gone is left out."""
    self_s: Counter = Counter()
    calls: Counter = Counter()
    for span in tracer.spans:
        self_s[span[1]] += span[6]
        calls[span[1]] += 1
    out = {}
    for name, (unit, needs, value) in LAYER_METRICS.items():
        if any(n in tracer.absent for n in needs):
            continue
        out[name] = {"value": value(needs, self_s, calls, tracer), "unit": unit}
    return out
