"""Outside-in tracing of the hankelforge layers.

The tracer wraps public functions at the names their callers look up, so no
file of the package changes.  Each wrapped call records a span (name, tag,
start, end, parent); counters are kept at the same points.  After a pass the
spans reduce to per-layer metrics, with self time taken as a span's duration
minus the time its child spans cover.

Wrap points, and why each is where it is:

* ``verify.Claim.run``: every claim, whether reached by ``run_claim`` or by
  ``run_all``, goes through this method.
* ``verify.prefix``: ``verify`` imports ``prefix`` by name.
* ``transforms.*``: ``verify`` calls them through the module, and
  ``iterated_transform`` calls ``binomial_transform`` through the module too,
  so nested applications are seen.
* ``hankel.build_hankel``, ``hankel.leading_principal_minors`` and
  ``hankel.quotient_check``: ``verify`` calls them through the module.
* ``hankel.kernels``: ``hankel`` looks kernels up on this object, so it is
  replaced by a namespace of wrapped kernels whose returned ``steps`` and
  ``max_bits`` are read.
* ``numtheory.parity_matrix_B`` and ``numtheory.lemma23_hypothesis_check``.
* ``binomial.row`` and ``binomial.binom``: counted only.  They are called
  millions of times per pass, too often to time from outside without
  distorting them; their time shows in their callers' self time.
* ``ReportBuilder.check`` (the class attribute) and ``cli.emit_reports``.

A wrap point that a later version of the package no longer has is skipped
and listed in ``Tracer.missing``; the metrics it feeds then read 0.
"""
from __future__ import annotations

import time
import types
from collections import Counter, defaultdict

_KERNELS = ("bareiss_det", "bareiss_leading_minors", "dodgson_det")
_TRANSFORMS = (
    "binomial_transform",
    "inverse_binomial_transform",
    "iterated_transform",
    "binom_sq_convolution",
    "binom_convolution",
)

# Span names whose self time is reported as "<name>.self_s".
SELF_TIMED = (
    "sequences.prefix",
    "transforms",
    "hankel.build",
    "hankel.minors",
    "hankel.kernel",
    "hankel.quotient",
    "numtheory.parity",
    "verify",
    "reports.check",
    "cli.render",
)


def _bits(x: int) -> int:
    return x.bit_length() if x >= 0 else (-x).bit_length()


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, tag, start, end, parent index]
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        """Wrap the package's public functions; ``uninstall`` undoes it."""
        from hankelforge import binomial, cli, hankel, numtheory, reports, transforms, verify

        self._wrap(getattr(verify, "Claim", None), "run", "verify", tag=lambda a: a[0].claim_id,
                   post=self._after_claim)
        self._wrap(verify, "prefix", "sequences.prefix", post=self._after_prefix)
        for fn in _TRANSFORMS:
            post = None if fn == "iterated_transform" else self._after_transform
            self._wrap(transforms, fn, "transforms", tag=lambda a, fn=fn: fn, post=post)
        self._wrap(hankel, "build_hankel", "hankel.build")
        self._wrap(hankel, "leading_principal_minors", "hankel.minors",
                   post=lambda a, out: self.counts.update(("hankel.minors.calls",)))
        self._wrap(hankel, "quotient_check", "hankel.quotient")
        self._wrap_kernels(hankel)
        for fn in ("parity_matrix_B", "lemma23_hypothesis_check"):
            self._wrap(numtheory, fn, "numtheory.parity", tag=lambda a, fn=fn: fn)
        self._wrap(getattr(reports, "ReportBuilder", None), "check", "reports.check",
                   post=lambda a, out: self.counts.update(("reports.check.calls",)))
        self._wrap(cli, "emit_reports", "cli.render", post=self._after_render)
        self._count_binomial(binomial)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, owner, attr, name, tag=None, post=None) -> None:
        fn = getattr(owner, attr, None)
        if not callable(fn):
            self.missing.append(f"{getattr(owner, '__name__', name)}.{attr}")
            return
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, tag(args) if tag else None, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if post is not None:
                post(args, out)
            return out

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, fn))

    def _wrap_kernels(self, hankel) -> None:
        kernels = getattr(hankel, "kernels", None)
        if kernels is None:
            self.missing.append("hankel.kernels")
            return
        proxy = types.SimpleNamespace(
            **{k: getattr(kernels, k) for k in dir(kernels) if not k.startswith("_")}
        )
        for fn in _KERNELS:
            self._wrap(proxy, fn, "hankel.kernel", tag=lambda a, fn=fn: fn,
                       post=lambda a, out, fn=fn: self._after_kernel(fn, out))
        hankel.kernels = proxy
        self._restore.append((hankel, "kernels", kernels))

    def _count_binomial(self, binomial) -> None:
        row, binom = getattr(binomial, "row", None), getattr(binomial, "binom", None)
        limit_fn = getattr(binomial, "cache_limit", None)
        table = getattr(binomial, "_rows", None)
        if row is None or binom is None or limit_fn is None or table is None:
            self.missing.append("binomial.row/binom/cache_limit/_rows")
            return
        limit = limit_fn()
        c = self.counts
        in_binom = [False]  # row lookups made by binom itself are not counted again

        def counted_row(n):
            if not in_binom[0]:
                c["binomial.row.calls"] += 1
                if n > limit:
                    c["binomial.row.above_cap"] += 1
                elif n < len(table):
                    c["binomial.hits"] += 1
            return row(n)

        def counted_binom(n, k):
            c["binomial.binom.calls"] += 1
            if 0 <= k <= n:
                if n > limit:
                    c["binomial.binom.above_cap"] += 1
                elif n < len(table):
                    c["binomial.hits"] += 1
            in_binom[0] = True
            try:
                return binom(n, k)
            finally:
                in_binom[0] = False

        for attr, fn, wrapped in (("row", row, counted_row), ("binom", binom, counted_binom)):
            setattr(binomial, attr, wrapped)
            self._restore.append((binomial, attr, fn))

    # -- counters read from results -------------------------------------------

    def _after_claim(self, args, report) -> None:
        self.counts["verify.checks"] += len(report.entries)
        self.counts["reports.value_digits"] += sum(len(e.value) for e in report.entries)

    def _after_prefix(self, args, out) -> None:
        self.counts["sequences.prefix.calls"] += 1
        self.counts["sequences.prefix.terms"] += len(out.terms)
        top = max((_bits(t) for t in out.terms), default=0)
        self.maxima["sequences.prefix.max_bits"] = max(self.maxima["sequences.prefix.max_bits"], top)

    def _after_transform(self, args, out) -> None:
        self.counts["transforms.calls"] += 1
        self.counts["transforms.terms"] += len(out)

    def _after_kernel(self, fn, out) -> None:
        self.counts["hankel.kernel.calls"] += 1
        self.counts["hankel.kernel.steps"] += out[1]
        self.maxima["hankel.kernel.max_bits"] = max(self.maxima["hankel.kernel.max_bits"], out[2])
        if fn == "bareiss_leading_minors" and not out[3]:
            # bareiss_leading_minors stopped at a zero pivot: the caller
            # finishes the sweep block by block.
            self.counts["hankel.minors.fallback"] += 1

    def _after_render(self, args, out) -> None:
        self.counts["cli.render.bytes"] += len(out)

    # -- reduction ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since construction."""
        covered = [0.0] * len(self.spans)
        for name, tag, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: defaultdict[str, float] = defaultdict(float)
        claim_s: defaultdict[str, float] = defaultdict(float)
        for i, (name, tag, start, end, parent) in enumerate(self.spans):
            self_s[name] += (end - start) - covered[i]
            if name == "verify":
                claim_s[tag] += end - start
        out: dict[str, float] = {f"{name}.self_s": self_s[name] for name in SELF_TIMED}
        out.update({f"verify.claim.{cid}.s": s for cid, s in claim_s.items()})
        out.update(self.counts)
        out.update(self.maxima)
        lookups = self.counts["binomial.row.calls"] + self.counts["binomial.binom.calls"]
        out["binomial.hit_ratio"] = self.counts["binomial.hits"] / lookups if lookups else 0.0
        out.pop("binomial.hits", None)
        return out

    def span_records(self, pass_id: int) -> list[dict]:
        return [
            {"pass": pass_id, "span": i, "name": name, "tag": tag, "start": start,
             "end": end, "parent": parent}
            for i, (name, tag, start, end, parent) in enumerate(self.spans)
        ]
