"""Per-layer spans for a traced pass, recorded from outside the program.

``install`` wraps the public functions of pqcalc's five layers (the
``laurent`` kernel, ``qnumbers``, ``skein``, ``torus`` and ``cli``) in the
running interpreter.  Every binding of a module-level function across the
``pqcalc`` modules is replaced, so ``pqcalc.torus.exact_div`` and
``pqcalc.qnumbers.poly_sum`` are traced as well as the kernel's own names;
``LaurentPoly`` methods are replaced under each attribute name, aliases
such as ``__rmul__`` included.  A target that is missing stops the pass, so
a refactor cannot drop a layer from the trace unnoticed.

A span is the time inside one wrapped call; its self time excludes the
spans it encloses.  Spans are aggregated per group as they close (the
verify workload makes close to a million kernel calls), together with
work counts that repeat exactly for a given input.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter


def _nterms(value) -> int:
    if isinstance(value, int):
        return 1 if value else 0
    return len(value.terms())


def _mul_pairs(stats, args, _result):
    stats["term_pairs"] += _nterms(args[0]) * _nterms(args[1])


def _quotient_terms(stats, _args, result):
    stats["steps"] += _nterms(result)


def _text_chars(stats, args, _result):
    stats["chars"] += len(args[0])


def _rendered_terms(stats, args, _result):
    stats["terms"] += _nterms(args[0])


def _out_terms(stats, _args, result):
    stats["out_terms"] += _nterms(result)


# (group, module, attribute, counter).  An attribute ``Class.name`` is a
# method; anything else is a module-level function.
TARGETS = (
    ("laurent.mul", "pqcalc.laurent", "LaurentPoly.__mul__", _mul_pairs),
    ("laurent.mul", "pqcalc.laurent", "LaurentPoly.__rmul__", _mul_pairs),
    ("laurent.addsub", "pqcalc.laurent", "LaurentPoly.__add__", None),
    ("laurent.addsub", "pqcalc.laurent", "LaurentPoly.__radd__", None),
    ("laurent.addsub", "pqcalc.laurent", "LaurentPoly.__sub__", None),
    ("laurent.addsub", "pqcalc.laurent", "LaurentPoly.__rsub__", None),
    ("laurent.addsub", "pqcalc.laurent", "LaurentPoly.__neg__", None),
    ("laurent.addsub", "pqcalc.laurent", "poly_sum", None),
    ("laurent.eq", "pqcalc.laurent", "LaurentPoly.__eq__", None),
    ("laurent.exact_div", "pqcalc.laurent", "exact_div", _quotient_terms),
    ("laurent.sqrt", "pqcalc.laurent", "sqrt_perfect_square", _quotient_terms),
    ("laurent.parse", "pqcalc.laurent", "parse", _text_chars),
    # text and to_json_obj count the terms; format_poly delegates to them
    ("laurent.render", "pqcalc.laurent", "LaurentPoly.text", _rendered_terms),
    ("laurent.render", "pqcalc.laurent", "LaurentPoly.to_json_obj", _rendered_terms),
    ("laurent.render", "pqcalc.laurent", "format_poly", None),
    ("qnumbers.pq_number", "pqcalc.qnumbers", "pq_number", None),
    ("qnumbers.number_sequence", "pqcalc.qnumbers", "number_sequence", None),
    ("qnumbers.homfly_factorization_check", "pqcalc.qnumbers",
     "homfly_factorization_check", None),
    ("skein.knot_to_link_coeffs", "pqcalc.skein", "knot_to_link_coeffs", None),
    ("skein.pq_from_link_coeffs", "pqcalc.skein", "pq_from_link_coeffs", None),
    ("skein.link_coeffs_from_pq", "pqcalc.skein", "link_coeffs_from_pq", None),
    ("skein.recurrence_generate", "pqcalc.skein", "recurrence_generate", None),
    ("torus.alexander_torus", "pqcalc.torus", "alexander_torus", _out_terms),
    ("torus.alexander_torus2", "pqcalc.torus", "alexander_torus2", None),
    ("cli.main", "pqcalc.cli", "main", None),
)

# Work counts per group, beside calls and self_s.
COUNTS = {
    "laurent.mul": ("term_pairs",),
    "laurent.exact_div": ("steps",),
    "laurent.sqrt": ("steps",),
    "laurent.parse": ("chars",),
    "laurent.render": ("terms",),
    "torus.alexander_torus": ("out_terms",),
}


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for group in dict.fromkeys(group for group, *_ in TARGETS):
        names += [f"{group}.calls", f"{group}.self_s"]
        names += [f"{group}.{count}" for count in COUNTS.get(group, ())]
        if group == "qnumbers.pq_number":
            names.append(f"{group}.repeat_frac")
    return names + ["trace.overhead_frac"]


class MissingTargetError(RuntimeError):
    """A function the trace must cover is not in the program."""


class Tracer:
    def __init__(self):
        self.stats = {group: {"calls": 0, "self_s": 0.0} for group, *_ in TARGETS}
        for group, counts in COUNTS.items():
            self.stats[group].update(dict.fromkeys(counts, 0))
        self._open: list[float] = []  # time spent in enclosed spans, per open span
        self._seen: set = set()
        self._repeats = 0

    def begin_job(self):
        """``repeat_frac`` counts repeats of ``(pair, n)`` within one job."""
        self._seen.clear()

    def wrap(self, group: str, fn, count=None):
        stats = self.stats[group]
        enclosed = self._open

        def traced(*args, **kwargs):
            entered = perf_counter()
            enclosed.append(0.0)
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                stats["calls"] += 1
                stats["self_s"] += perf_counter() - entered - enclosed.pop()
                if done and count is not None and result is not NotImplemented:
                    count(stats, args, result)
                # the enclosing span excludes this span and its bookkeeping
                if enclosed:
                    enclosed[-1] += perf_counter() - entered
            return result

        return traced

    def _pq_repeat(self, family_params):
        def count(_stats, args, _result):
            pair = family_params(args[0])
            key = (pair.P.terms(), pair.Q.terms(), args[1])
            self._repeats += key in self._seen
            self._seen.add(key)
        return count

    def report(self) -> dict:
        metrics = {}
        for group, stats in self.stats.items():
            for name, value in stats.items():
                metrics[f"{group}.{name}"] = value
        calls = self.stats["qnumbers.pq_number"]["calls"]
        metrics["qnumbers.pq_number.repeat_frac"] = self._repeats / calls if calls else 0.0
        return metrics


def _resolve(module, attr: str):
    """The owner, attribute name and function of one target."""
    owner, _, name = attr.rpartition(".")
    if owner:
        cls = getattr(module, owner, None)
        if cls is None or not any(name in k.__dict__ for k in cls.__mro__[:-1]):
            raise MissingTargetError(f"{module.__name__}.{attr} is missing")
        return cls, name, getattr(cls, name)
    function = getattr(module, name, None)
    if not callable(function):
        raise MissingTargetError(f"{module.__name__}.{attr} is missing")
    return module, name, function


def install() -> Tracer:
    """Wrap every target in the running interpreter and return the tracer.
    Raises ``MissingTargetError``, before wrapping anything, if a target is
    missing."""
    home = {name: importlib.import_module(name) for name in dict.fromkeys(m for _, m, *_ in TARGETS)}
    resolved = [_resolve(home[module], attr) for _, module, attr, _ in TARGETS]
    modules = [m for name, m in list(sys.modules.items())
               if name == "pqcalc" or name.startswith("pqcalc.")]
    tracer = Tracer()
    for (group, _, _, count), (owner, name, original) in zip(TARGETS, resolved):
        if group == "qnumbers.pq_number":
            count = tracer._pq_repeat(home["pqcalc.qnumbers"].family_params)
        traced = tracer.wrap(group, original, count)
        if isinstance(owner, type):
            setattr(owner, name, traced)
            continue
        for module in modules:
            for binding, value in list(vars(module).items()):
                if value is original:
                    setattr(module, binding, traced)
    return tracer
