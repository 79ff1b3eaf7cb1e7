"""Span tracing of codecert's public functions, installed from outside the program.

A `Tracer` replaces each traced function with a wrapper that records one
span per call (name, start, end, parent span), in every codecert module
that holds the function under some name, and in the class for methods.
Spans are kept in flat arrays in memory; self time, call counts and
ratios are derived from them after the round.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

#: (metric name, module, attribute path) of every traced function.
#: `source.Source.validate` is the validation that runs on every Source built.
TARGETS = (
    ("cli.main", "cli", "main"),
    ("cli.parse_source_file", "cli", "parse_source_file"),
    ("cli.parse_code_file", "cli", "parse_code_file"),
    ("source.Source.validate", "source", "Source.__post_init__"),
    ("source.sample_stream", "source", "sample_stream"),
    ("source.entropy", "source", "entropy"),
    ("codes.Code.codewords", "codes", "Code.codewords"),
    ("codes.acl_exact", "codes", "acl_exact"),
    ("codes.minimal_reduction", "codes", "minimal_reduction"),
    ("codes.empirical_acl", "codes", "empirical_acl"),
    ("decipher.is_prefix_free", "decipher", "is_prefix_free"),
    ("decipher.is_uniquely_decipherable", "decipher", "is_uniquely_decipherable"),
    ("decipher.ud_counterexample", "decipher", "ud_counterexample"),
    ("decipher.huffman", "decipher", "huffman"),
    ("decipher.construct_instantaneous", "decipher", "construct_instantaneous"),
    ("tree.to_tree", "tree", "to_tree"),
    ("tree.compact_standalone", "tree", "compact_standalone"),
    ("tree.CodeTree.leaves", "tree", "CodeTree.leaves"),
    ("tree.find_sibling_group", "tree", "find_sibling_group"),
    ("tree.is_compact", "tree", "is_compact"),
    ("tree.replace_group_with_leaf", "tree", "replace_group_with_leaf"),
    ("tree.tree_source", "tree", "tree_source"),
    ("tree.from_tree", "tree", "from_tree"),
    ("proof.certify", "proof", "certify"),
    ("proof.reduction_step", "proof", "reduction_step"),
    ("proof.equality_condition", "proof", "equality_condition"),
    ("proof.format_certificate", "proof", "format_certificate"),
    ("proof.check_group_inequality", "proof", "check_group_inequality"),
    ("proof.check_rational_ghm", "proof", "check_rational_ghm"),
    ("proof.check_pp_inequalities", "proof", "check_pp_inequalities"),
    ("randgen.random_source", "randgen", "random_source"),
    ("randgen.random_prefix_code", "randgen", "random_prefix_code"),
    ("randgen.grow_full_tree", "randgen", "grow_full_tree"),
    ("rng.SplitMix64.randbelow", "rng", "SplitMix64.randbelow"),
    ("rng.SplitMix64.bits", "rng", "SplitMix64.bits"),
    ("rng.SplitMix64.next_u64", "rng", "SplitMix64.next_u64"),
)

NAMES = tuple(name for name, _, _ in TARGETS)
LAYERS = tuple(dict.fromkeys(name.split(".")[0] for name in NAMES))

#: name -> (numerator, denominator) of the ratios derived from call counts.
RATIOS = {
    "tree.leaves_per_merge": ("tree.CodeTree.leaves", "proof.reduction_step"),
    "source.validations_per_merge": ("source.Source.validate", "proof.reduction_step"),
    "rng.accept_ratio": ("rng.SplitMix64.randbelow", "rng.SplitMix64.bits"),
}


class Tracer:
    """Records spans of the TARGETS while installed; one instance per run."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def clear(self) -> None:
        for column in (self.name, self.parent, self.start, self.end):
            del column[:]

    def _wrap(self, fn, nid: int):
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every target wherever codecert holds it."""
        modules = [m for key, m in sys.modules.items() if key == "codecert" or key.startswith("codecert.")]
        for nid, (_, module, path) in enumerate(TARGETS):
            owner = importlib.import_module(f"codecert.{module}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = vars(owner)[attr]
            wrapped = self._wrap(fn, nid)
            if outer:  # a method: the class is the only holder
                self._patch(owner, attr, fn, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._patch(m, key, fn, wrapped)

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def summary(self) -> tuple[Counter, dict[str, float]]:
        """Calls and self time per traced name, over the spans recorded since `clear`.

        Self time is a span's duration minus the durations of its child
        spans; calls run one at a time, so children never overlap.
        """
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        self_s = dict.fromkeys(NAMES, 0.0)
        for i in range(n):
            key = NAMES[self.name[i]]
            calls[key] += 1
            self_s[key] += self.end[i] - self.start[i] - child[i]
        return calls, self_s

    def write(self, path: Path) -> None:
        """Write the recorded spans as tab-separated name, start, end, parent rows."""
        origin = self.start[0] if len(self.start) else 0.0
        rows = ["span\tname\tstart_s\tend_s\tparent"]
        for i in range(len(self.name)):
            rows.append(
                f"{i}\t{NAMES[self.name[i]]}\t{self.start[i] - origin:.9f}\t{self.end[i] - origin:.9f}\t{self.parent[i]}"
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(rows) + "\n")


def layer_metrics(calls: Counter, self_s: dict[str, float]) -> dict[str, float]:
    """Per-function calls and self time, per-layer self time, and the ratios."""
    out: dict[str, float] = {}
    for name in NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
    for ratio, (num, den) in RATIOS.items():
        out[ratio] = calls[num] / calls[den] if calls[den] else 0.0
    return out
