"""Spans around the calls into each blindvote layer, recorded from outside.

Each traced function is replaced, while a ``Tracer`` is active, at every
place its callers look it up: the defining module, every module that
imported it by name, and the ``ATTACKS`` table. Methods are replaced on
their class. ``Ledger.log`` is wrapped so it counts accesses and the
transactions each access copies. A span is (name, start, end, parent
index); spans stay in memory and self time is derived from them at the
end.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

from blindvote import actors, attacks, blindsig, contract, ledger, messages, scenario

FUNCTIONS = [
    (blindsig, "keygen"),
    (blindsig, "sign_blinded"),
    (blindsig, "blind"),
    (blindsig, "unblind"),
    (blindsig, "fdh"),
    (messages, "encode_payload"),
    (messages, "decode_payload"),
    (contract, "seal_ballot"),
    (contract, "unseal_ballot"),
    (ledger, "export_log"),
    (ledger, "import_log"),
    (ledger, "replay"),
    (actors, "voter_prepare"),
    (actors, "voter_obtain_signature"),
    (actors, "voter_cast"),
    (actors, "verify_receipt"),
    (scenario, "recount"),
]

METHODS = [
    (ledger.Ledger, "submit"),
    (ledger.Ledger, "export"),
    (actors.Organizer, "process_requests"),
    (contract.ElectionContract, "check_signature"),
    (contract.ElectionContract, "cast"),
    (contract.ElectionContract, "tally"),
    (scenario.Election, "setup_stage"),
    (scenario.Election, "sign_stage"),
    (scenario.Election, "vote_stage"),
    (scenario.Election, "count_stage"),
    (scenario.Election, "build_report"),
]

#: The grader's row functions, named after the property each one grades.
GRADER_ROWS = {
    "_privacy_row": "privacy",
    "_receipt_row": "receipt-freeness",
    "_robustness_row": "robustness",
    "_verifiability_row": "verifiability",
    "_eligibility_row": "democracy-eligibility",
    "_pmv_row": "democracy-pmv",
    "_fairness_row": "fairness",
    "_correctness_row": "correctness",
}


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.log_calls = 0
        self.log_items = 0
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()

        return traced

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        replacements = {}
        for module, attr in FUNCTIONS:
            fn = getattr(module, attr)
            replacements[id(fn)] = self._wrap(fn, f"{_layer(module.__name__)}.{attr}")
        for attr, prop in GRADER_ROWS.items():
            fn = getattr(scenario, attr)
            replacements[id(fn)] = self._wrap(fn, f"scenario.grade.{prop}")
        for name, fn in attacks.ATTACKS.items():
            replacements[id(fn)] = self._wrap(fn, f"attacks.{name}")
        # patch every binding of a traced function, wherever it is looked up
        for modname, module in list(sys.modules.items()):
            if modname != "blindvote" and not modname.startswith("blindvote."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    self._set(module, attr, replacements[id(value)])
        for name, fn in list(attacks.ATTACKS.items()):
            self._restore.append((attacks.ATTACKS, name, fn))
            attacks.ATTACKS[name] = replacements[id(fn)]
        for cls, attr in METHODS:
            name = f"{_layer(cls.__module__)}.{cls.__name__}.{attr}"
            self._set(cls, attr, self._wrap(vars(cls)[attr], name))
        original_log = vars(ledger.Ledger)["log"]

        def log(ledger_self):
            self.log_calls += 1
            self.log_items += len(ledger_self._log)
            return original_log.fget(ledger_self)

        self._set(ledger.Ledger, "log", property(log))
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._restore.clear()
        return False

    def totals(self) -> dict[str, float]:
        """calls, total seconds and self seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, parent), inner in zip(self.spans, child):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - inner
        out["ledger.Ledger.log.calls"] = self.log_calls
        out["ledger.Ledger.log.items_copied"] = self.log_items
        return out

    def write(self, path) -> None:
        with open(path, "w") as out:
            for name, start, end, parent in self.spans:
                out.write(json.dumps([name, start, end, parent]) + "\n")
