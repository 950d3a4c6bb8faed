"""Per-layer spans for the traced benchmark run.

`Tracer.install` replaces every public function of the library's modules,
at every module binding that refers to it, with a wrapper that records a
span: name, start, end, parent span, request id and whether it raised.  So
calls made inside the package (`check_univalence` -> `validate_typoid`) are
seen too.  Spans stay in memory; `layer_metrics` turns one round of them
into the per-layer figures and `dump` writes them out at the end.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "dsl", "model", "univalence", "morphisms", "constructions")
LAWS = ("Groupoid", "Partition", "Typ1", "Typ2", "Typ3", "Typ4", "IdtoEqv")
GENERATORS = (
    "equality_typoid", "universe_typoid", "unit_typoid", "twoedge_typoid",
    "discrete_groupoid", "codiscrete_groupoid", "cyclic_groupoid",
)

# span record fields
NAME, START, END, PARENT, REQUEST, ERROR, DATA = range(7)


class Tracer:
    def __init__(self, package, modules: dict):
        """`modules` maps each layer name to its imported module."""
        self.package = package
        self.modules = modules
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1
        self.saved: list[tuple[object, str, object]] = []
        self.layer_of: dict[str, str] = {}

    def install(self) -> None:
        originals = {}
        for layer, mod in self.modules.items():
            for name, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_"):
                    originals[id(fn)] = (fn, self._wrap(fn, f"{layer}.{name}"))
                    self.layer_of[f"{layer}.{name}"] = layer
        for mod in (self.package, *self.modules.values()):
            for name, value in list(vars(mod).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self.saved.append((mod, name, value))
                    setattr(mod, name, originals[id(value)][1])

    def uninstall(self) -> None:
        for mod, name, value in self.saved:
            setattr(mod, name, value)
        self.saved.clear()

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        observe = _OBSERVERS.get(name.split(".", 1)[1])

        if inspect.isgeneratorfunction(fn):
            # one span per `next`, so time spent by the consumer between
            # items is not charged to the generator
            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.request, False, (args, False)]
                        stack.append(len(spans))
                        spans.append(rec)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        except BaseException:
                            rec[ERROR] = True
                            raise
                        finally:
                            rec[END] = clock()
                            stack.pop()
                        rec[DATA] = (args, True)
                        yield item
                finally:
                    inner.close()

            return traced_generator

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.request, False, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[ERROR] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if observe is not None:
                rec[DATA] = observe(args, result)
            return result

        return traced

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out

    def dump(self, path, rounds: list[list[list]]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for r, spans in enumerate(rounds):
                for i, s in enumerate(spans):
                    fh.write(json.dumps({
                        "round": r, "id": i, "name": s[NAME], "start": s[START], "end": s[END],
                        "parent": s[PARENT], "request": s[REQUEST], "error": s[ERROR],
                    }) + "\n")


# What each observed call contributes to the counters, taken from its
# arguments and result after the span has ended.
_OBSERVERS = {
    "parse": lambda args, r: (len(args[0]), len(r.diagnostics)),
    "serialize": lambda args, r: len(r),
    "validate_typoid": lambda args, r: (id(args[0]), r),
    "validate_groupoid": lambda args, r: r,
    "exponential_typoid": lambda args, r: (r[0].term_count, r[0].layer.edge_count),
}


def layer_metrics(spans: list[list], layer_of: dict[str, str]) -> dict[str, float]:
    """Per-layer figures of one round of spans."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    self_by_name: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    errors: Counter = Counter()
    for i, s in enumerate(spans):
        self_by_name[s[NAME]] += (s[END] - s[START]) - child_time[i]
        calls[layer_of[s[NAME]]] += 1
        errors[layer_of[s[NAME]]] += s[ERROR]

    def self_s(*names: str) -> float:
        return sum(self_by_name[n] for n in names)

    m: dict[str, float] = {}
    m["cli.self_s"] = sum(v for k, v in self_by_name.items() if layer_of[k] == "cli")
    for layer in LAYERS[1:]:
        m[f"{layer}.self_s"] = sum(v for k, v in self_by_name.items() if layer_of[k] == layer)
    m["trace.cli_main_s"] = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)

    parsed = [s[DATA] for s in spans if s[NAME] == "dsl.parse" and s[DATA]]
    m["dsl.parse_s"] = self_s("dsl.parse")
    m["dsl.parse_bytes_per_s"] = _ratio(sum(n for n, _ in parsed), m["dsl.parse_s"])
    m["dsl.diagnostics"] = sum(d for _, d in parsed)
    m["dsl.serialize_s"] = self_s("dsl.document_for", "dsl.serialize")
    m["dsl.serialize_bytes"] = sum(s[DATA] for s in spans if s[NAME] == "dsl.serialize" and s[DATA] is not None)

    # law instances: every validate_typoid report, plus validate_groupoid
    # reports not already folded into an enclosing validate_typoid
    laws: Counter = Counter()
    violations = 0
    validations: dict[int, list[int]] = defaultdict(list)
    for s in spans:
        if s[DATA] is None:
            continue
        if s[NAME] == "model.validate_typoid":
            structure, report = s[DATA]
            validations[s[REQUEST]].append(structure)
        elif s[NAME] == "model.validate_groupoid" and (
            s[PARENT] < 0 or spans[s[PARENT]][NAME] != "model.validate_typoid"
        ):
            report = s[DATA]
        else:
            continue
        laws.update({k: v for k, v in report.law_counts.items() if k in LAWS})
        violations += len(report.violations)
    m["model.validate_groupoid_s"] = self_s("model.validate_groupoid")
    m["model.validate_typoid_s"] = self_s("model.validate_typoid")
    for law in LAWS:
        m[f"model.law_instances.{law}"] = laws[law]
    m["model.law_instances_per_s"] = _ratio(
        sum(laws.values()), m["model.validate_groupoid_s"] + m["model.validate_typoid_s"]
    )
    m["model.validate_calls"] = sum(len(v) for v in validations.values())
    m["model.validations_per_structure"] = _ratio(
        m["model.validate_calls"], sum(len(set(v)) for v in validations.values())
    )
    m["model.violations"] = violations

    m["univalence.check_univalence_s"] = self_s("univalence.check_univalence")
    m["univalence.induce_morphism_s"] = self_s("univalence.induce_morphism")
    m["morphisms.validate_morphism_s"] = self_s("morphisms.validate_morphism")

    functor_spans = [s for s in spans if s[NAME] == "morphisms.iter_path_functors"]
    searches = {id(s[DATA][0]): s[DATA][0] for s in functor_spans}
    m["morphisms.iter_path_functors_s"] = self_s("morphisms.iter_path_functors")
    m["morphisms.path_functors_found"] = sum(s[DATA][1] for s in functor_spans)
    m["morphisms.path_functor_space"] = sum(_functor_space(*args) for args in searches.values())
    m["morphisms.functor_hit_ratio"] = _ratio(m["morphisms.path_functors_found"], m["morphisms.path_functor_space"])

    m["constructions.exponential_typoid_s"] = self_s("constructions.exponential_typoid")
    exps = [s[DATA] for s in spans if s[NAME] == "constructions.exponential_typoid" and s[DATA]]
    m["constructions.exp_terms"] = sum(t for t, _ in exps)
    m["constructions.exp_edges"] = sum(e for _, e in exps)
    m["constructions.product_typoid_s"] = self_s("constructions.product_typoid")
    m["constructions.truncate_s"] = self_s("constructions.truncate")
    m["constructions.univalent_completion_s"] = self_s("constructions.univalent_completion")
    m["constructions.generate_s"] = self_s(*(f"constructions.{g}" for g in GENERATORS))

    for layer in LAYERS:
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.errors"] = errors[layer]
    return m


def _functor_space(src, dst, term_map) -> int:
    """Candidate tables of a functor search: the product, over non-refl
    source paths, of the size of the target hom they may map to."""
    refl = set(src.refl)
    space = 1
    for p in range(src.path_count):
        if p not in refl:
            space *= len(dst.hom(term_map[src.path_src[p]], term_map[src.path_dst[p]]))
    return space


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
