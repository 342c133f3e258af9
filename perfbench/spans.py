"""Outside-in tracing of algforge: wrap public callables, record nested spans.

Nothing here edits the library.  ``Tracer.install`` replaces each target
callable by a timing wrapper at every algforge module that binds it by name
(``from .x import f`` copies the binding, so patching the defining module
alone would miss those call sites), and ``Tracer.restore`` puts every
original back.  Methods and constructors are patched on their class, which
all import sites share.

Spans are kept in memory as ``(id, parent_id, name, start, end)`` tuples;
self time is a span's duration minus the durations of its direct children.
A call that re-enters the span it is already inside (recursion) is folded
into the open span.  Targets marked ``boundary`` are left alone inside their
own module, so their spans count only the calls entering that module from
other modules.

A target that the library no longer has is reported as absent, with zero
calls, instead of failing the run.
"""

from __future__ import annotations

import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

PACKAGE = "algforge"
LAYERS = (
    "core", "parsing", "kp", "consequence", "linalg", "leibniz",
    "rightcomm", "systems", "fixtures", "checks", "cli",
)
SECTION_NAMES = (
    "ex2.4", "ex2.5", "thm3.2", "lem3.3", "sec4",
    "prop5.5", "thm6.3", "thm7.1", "thm7.3-deg5", "sec8",
)


# ----------------------------------------------------------------- counters
# Each hook runs after the wrapped call returns: hook(tracer, args, kwargs, result).

def _kernel_dim(tr, args, kwargs, result):
    tr.count("consequence.kernel_dim", len(result))


def _basis_columns(tr, args, kwargs, result):
    tr.count("consequence.basis_columns", len(args[0]))


def _pivot_add(tr, args, kwargs, result):
    tr.count("linalg.PivotTable.add.useful", 1 if result else 0)


def _certificate(tr, args, kwargs, result):
    if result.ok:
        tr.count("consequence.certificate.count", 1)
        tr.count("consequence.certificate.support", len(result.coefficients))


def _straighten(tr, args, kwargs, result):
    tr.distinct_straighten.add(args[0])


def _words_out(tr, args, kwargs, result):
    tr.count("leibniz.words_out", len(result.terms))


def _tuples(tr, args, kwargs, result):
    tr.count("systems.tuples_checked", args[0].dim ** 5)


def _triples(tr, args, kwargs, result):
    tr.count("systems.triples_checked", args[0].dim ** 3)


def _equations(tr, args, kwargs, result):
    tr.count("systems.equations", len(result.equations))


def _fp_candidates(tr, args, kwargs, result):
    p = args[1] if len(args) > 1 else kwargs["p"]
    free = args[2] if len(args) > 2 else kwargs["free"]
    tr.count("systems.fp_candidates", p ** len(free))


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``attr`` is ``name`` or ``Class.method``."""

    span: str
    module: str
    attr: str
    generator: bool = False
    boundary: bool = False
    hook: Optional[Callable] = None


def _t(span, module, attr, **kw) -> Target:
    return Target(span, f"{PACKAGE}.{module}", attr, **kw)


TARGETS: tuple[Target, ...] = (
    _t("core.relabel", "core", "relabel", boundary=True),
    _t("core.substitute", "core", "substitute", boundary=True),
    _t("core.apply_op", "core", "apply_op", boundary=True),
    _t("core.apply_rules", "core", "apply_rules", boundary=True),
    _t("parsing.parse_file", "parsing", "parse_file"),
    _t("kp.kp_apply", "kp", "kp_apply"),
    _t("consequence.iter_relabelings", "consequence", "iter_relabelings", generator=True),
    _t("consequence.iter_lifted", "consequence", "iter_lifted", generator=True),
    _t("consequence.MonomialBasis", "consequence", "MonomialBasis.__init__", hook=_basis_columns),
    _t("consequence.vector", "consequence", "MonomialBasis.vector"),
    _t("consequence.vector", "rightcomm", "RCBasis.vector"),
    _t("consequence.SpanChecker.build", "consequence", "SpanChecker.__init__"),
    _t("consequence.SpanChecker.check", "consequence", "SpanChecker.check", hook=_certificate),
    _t("consequence.certificate.verify", "consequence", "SpanCertificate.verify"),
    _t("consequence.kernel_of_expansion", "consequence", "kernel_of_expansion", hook=_kernel_dim),
    _t("consequence.sets_equivalent", "consequence", "sets_equivalent"),
    _t("linalg.PivotTable.add", "linalg", "PivotTable.add", hook=_pivot_add),
    _t("linalg.PivotTable.membership", "linalg", "PivotTable.membership"),
    _t("linalg.nullspace", "linalg", "nullspace"),
    _t("leibniz.expand_ternary", "leibniz", "expand_ternary", hook=_words_out),
    _t("rightcomm.rc_straighten", "rightcomm", "rc_straighten", hook=_straighten),
    _t("rightcomm.rc_expand", "rightcomm", "rc_expand"),
    _t("rightcomm.permuted_associator_expand", "rightcomm", "permuted_associator_expand"),
    _t("rightcomm.RCBasis", "rightcomm", "RCBasis.__init__"),
    _t("rightcomm.build_jordan_checker", "rightcomm", "build_jordan_checker"),
    _t("systems.check_lts", "systems", "check_lts", hook=_tuples),
    _t("systems.build_envelope", "systems", "build_envelope"),
    _t("systems.check_leibniz", "systems", "check_leibniz", hook=_triples),
    _t("systems.iterated_bracket_table", "systems", "iterated_bracket_table"),
    _t("systems.lts_equations", "systems", "lts_equations", hook=_equations),
    _t("systems.search_fp", "systems", "search_fp", hook=_fp_candidates),
    _t("fixtures.fixture", "fixtures", "fixture"),
    _t("fixtures.system_table", "fixtures", "system_table"),
    _t("checks.report_text", "checks", "report_text"),
    _t("cli.main", "cli", "main"),
)

# the targets whose spans must exist before the fixture corpus is parsed
EARLY = ("parsing.parse_file",)

SPAN_NAMES = tuple(dict.fromkeys(t.span for t in TARGETS))
COUNT_METRICS = (
    ("consequence.kernel_dim", "count"),
    ("consequence.instances_emitted", "count"),
    ("consequence.basis_columns", "count"),
    ("linalg.PivotTable.add.useful_ratio", "ratio"),
    ("consequence.certificate.support_mean", "count"),
    ("rightcomm.rc_straighten.distinct", "count"),
    ("rightcomm.rc_straighten.repeat_ratio", "ratio"),
    ("leibniz.words_out", "count"),
    ("systems.tuples_checked", "count"),
    ("systems.triples_checked", "count"),
    ("systems.equations", "count"),
    ("systems.fp_candidates", "count"),
)
SUMMARY_METRICS = (
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.spans", "count"),
    ("trace.absent_targets", "count"),
    ("checks.sections_total_s", "s"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for name in SPAN_NAMES:
        out += [(f"{name}.self_s", "s"), (f"{name}.calls", "count")]
    out += [(f"checks.section.{s}.total_s", "s") for s in SECTION_NAMES]
    out += [(f"layer.{m}.self_s", "s") for m in LAYERS]
    return out + list(COUNT_METRICS) + list(SUMMARY_METRICS)


# ------------------------------------------------------------------- tracer

def _library_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _resolve(target: Target):
    """Return (owner, attribute name, original) or None if absent."""
    module = sys.modules.get(target.module)
    if module is None:
        return None
    owner, _, attr = target.attr.rpartition(".")
    if owner:
        cls = getattr(module, owner, None)
        if not isinstance(cls, type) or attr not in cls.__dict__:
            return None
        return cls, attr, cls.__dict__[attr]
    fn = getattr(module, attr, None)
    return (module, attr, fn) if callable(fn) else None


class Tracer:
    """In-memory span recorder with install/restore of wrappers."""

    def __init__(self):
        # the worker sets the speed clock, which leaves out speed samples
        self.clock: Callable[[], float] = time.perf_counter
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.distinct_straighten: set = set()
        self.stack: list[list] = []  # [span id, name, start]
        self._next_id = 1
        self.installed: list[tuple[Target, object, str, object, object]] = []
        self.sections: dict[str, object] = {}
        self.absent: list[str] = []

    # -- recording
    def count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _open(self, name: str) -> list:
        frame = [self._next_id, name, self.clock()]
        self._next_id += 1
        self.stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = self.clock()
        self.stack.pop()
        parent = self.stack[-1][0] if self.stack else 0
        self.spans.append((frame[0], parent, frame[1], frame[2], end))

    def _wrap(self, target: Target, fn):
        name, hook, tracer = target.span, target.hook, self

        if target.generator:
            def wrapper(*args, **kwargs):
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                it = fn(*args, **kwargs)
                while True:
                    frame = tracer._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(frame)
                    tracer.count("consequence.instances_emitted", 1)
                    yield item
        else:
            def wrapper(*args, **kwargs):
                stack = tracer.stack
                if stack and stack[-1][1] == name:
                    return fn(*args, **kwargs)
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                frame = tracer._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(frame)
                if hook is not None:
                    hook(tracer, args, kwargs, result)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- install / restore
    def install(self, only: tuple[str, ...] | None = None) -> None:
        """Wrap every target (or those whose span is in ``only``) not yet wrapped."""
        done = {(t.module, t.attr) for t, *_ in self.installed}
        for target in TARGETS:
            if only is not None and target.span not in only:
                continue
            if (target.module, target.attr) in done:
                continue
            found = _resolve(target)
            if found is None:
                if target.span not in self.absent:
                    self.absent.append(target.span)
                continue
            owner, attr, original = found
            wrapper = self._wrap(target, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
            else:
                for module in _library_modules():
                    if module.__dict__.get(attr) is not original:
                        continue
                    if target.boundary and module is owner:
                        continue
                    setattr(module, attr, wrapper)
            self.installed.append((target, owner, attr, original, wrapper))
        checks = sys.modules.get(f"{PACKAGE}.checks")
        registry = getattr(checks, "SECTIONS", None)
        if only is None and isinstance(registry, dict) and not self.sections:
            for section, fn in list(registry.items()):
                self.sections[section] = fn
                registry[section] = self._wrap(
                    Target(f"checks.section.{section}", f"{PACKAGE}.checks", section), fn
                )

    def restore(self) -> None:
        """Put every original back at every binding that holds a wrapper."""
        for target, owner, attr, original, wrapper in reversed(self.installed):
            if isinstance(owner, type):
                setattr(owner, attr, original)
                continue
            for module in _library_modules():
                if module.__dict__.get(attr) is wrapper:
                    setattr(module, attr, original)
        self.installed.clear()
        checks = sys.modules.get(f"{PACKAGE}.checks")
        registry = getattr(checks, "SECTIONS", None)
        if isinstance(registry, dict):
            for section, fn in self.sections.items():
                registry[section] = fn
        self.sections.clear()

    # -- results
    def summary(self, since: float, wall_s: float) -> dict[str, float]:
        """Per-layer metrics over all spans, including those recorded while
        the corpus was parsed at import; ``since`` and ``wall_s`` delimit the
        timed region, whose time outside any span is ``trace.unattributed_s``."""
        spans = self.spans
        child: dict[int, float] = {}
        for sid, parent, _, t0, t1 in spans:
            child[parent] = child.get(parent, 0.0) + (t1 - t0)
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        root_s = 0.0
        for sid, parent, name, t0, t1 in spans:
            dur = t1 - t0
            self_s[name] = self_s.get(name, 0.0) + dur - child.get(sid, 0.0)
            total_s[name] = total_s.get(name, 0.0) + dur
            if parent == 0 and t0 >= since:
                root_s += dur
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
            out[f"{name}.calls"] = self.calls.get(name, 0)
        sections_total = 0.0
        for s in SECTION_NAMES:
            v = total_s.get(f"checks.section.{s}", 0.0)
            out[f"checks.section.{s}.total_s"] = v
            sections_total += v
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = sum(
                v for k, v in self_s.items() if k.split(".", 1)[0] == layer
            )
        c = self.counts
        adds = self.calls.get("linalg.PivotTable.add", 0)
        certs = c.get("consequence.certificate.count", 0)
        straighten = self.calls.get("rightcomm.rc_straighten", 0)
        distinct = len(self.distinct_straighten)
        out.update({
            "consequence.kernel_dim": c.get("consequence.kernel_dim", 0),
            "consequence.instances_emitted": c.get("consequence.instances_emitted", 0),
            "consequence.basis_columns": c.get("consequence.basis_columns", 0),
            "linalg.PivotTable.add.useful_ratio":
                c.get("linalg.PivotTable.add.useful", 0) / adds if adds else 0.0,
            "consequence.certificate.support_mean":
                c.get("consequence.certificate.support", 0) / certs if certs else 0.0,
            "rightcomm.rc_straighten.distinct": distinct,
            "rightcomm.rc_straighten.repeat_ratio":
                1 - distinct / straighten if straighten else 0.0,
            "leibniz.words_out": c.get("leibniz.words_out", 0),
            "systems.tuples_checked": c.get("systems.tuples_checked", 0),
            "systems.triples_checked": c.get("systems.triples_checked", 0),
            "systems.equations": c.get("systems.equations", 0),
            "systems.fp_candidates": c.get("systems.fp_candidates", 0),
            "trace.wall_s": wall_s,
            "trace.unattributed_s": wall_s - root_s,
            "trace.spans": len(spans),
            "trace.absent_targets": len(self.absent),
            "checks.sections_total_s": sections_total,
        })
        return out


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Per-key median over passes."""
    keys = samples[0].keys()
    return {k: statistics.median(s[k] for s in samples) for k in keys}
