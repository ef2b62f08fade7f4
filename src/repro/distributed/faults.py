"""Deterministic fault injection for the distributed fabric.

The chaos suite proves the fabric survives *random* kill schedules;
this module makes individual failure modes *reproducible*: a seeded
:class:`FaultPlan` names exact injection points (sites) in the
protocol, store, ledger, worker and coordinator code paths and fires a
scripted fault the Nth time execution crosses one.  The same plan +
the same workload replays the same failure, so a bug found by chaos
can be pinned as a deterministic regression test.

Sites currently wired into the fabric:

==========================  =================================================
``protocol.send``           one frame about to hit the wire (context: the
                            frame ``type``) -- supports ``drop`` (frame
                            silently discarded), ``torn`` (half the frame
                            written, then the transport is closed), ``delay``
``protocol.recv``           one decoded inbound frame (context: ``type``) --
                            ``drop`` discards it as if the wire ate it,
                            ``delay`` stalls the reader
``ledger.append``           one ledger record append (context:
                            ``<event>@<file>``) -- ``torn`` writes half the
                            line and raises ``EIO`` (the crashed-writer
                            artifact), ``drop`` loses the record, ``eio``
                            fails before any byte lands
``ledger.compact``          compaction phases (context: ``fold`` before the
                            snapshot is written, ``swap`` between snapshot
                            publish and shard deletion) -- ``exit`` here
                            simulates SIGKILL mid-compaction
``store.publish``           one atomic result publish (context: target file
                            name) -- ``eio``/``delay``
``worker.heartbeat``        one heartbeat about to be sent -- ``stall``
                            skips it (a wedged-but-connected worker),
                            ``delay`` lags it
``coordinator.result``      one RESULT/RESULT-REF arriving at the
                            coordinator (context: point key) -- ``exit``
                            kills the coordinator process mid-result
``coordinator.assign``      one assignment about to be sent (context: key)
==========================  =================================================

Actions ``delay``, ``eio`` and ``exit`` are generic and resolved here
(:func:`inject` sleeps, raises ``OSError(EIO)``, or ``os._exit``\\ s);
``drop``, ``torn`` and ``stall`` are returned to the call site, which
knows how to mangle its own I/O.  Unknown sites cost one dictionary
miss when a plan is active and a single ``None`` check when not --
cheap enough to leave compiled in.

Activation: :func:`install` for in-process use, or the
``REPRO_FAULTS`` environment variable pointing at a JSON plan file for
subprocesses (the chaos and CI schedules spawn real coordinators and
workers).  Every fired rule is appended to the plan's ``log`` file (if
configured) so a test can assert the schedule actually happened.
"""

from __future__ import annotations

import errno
import json
import os
import pathlib
import random
import threading
import time
from dataclasses import asdict, dataclass
from typing import Any, Iterable

__all__ = [
    "ENV_PLAN",
    "FaultPlan",
    "FaultRule",
    "active",
    "clear",
    "inject",
    "install",
]

#: Environment variable naming a JSON plan file; loaded lazily on the
#: first :func:`inject` call, so spawning a subprocess with it set is
#: all the wiring a chaos schedule needs.
ENV_PLAN = "REPRO_FAULTS"

ACTION_DROP = "drop"
ACTION_DELAY = "delay"
ACTION_TORN = "torn"
ACTION_EIO = "eio"
ACTION_STALL = "stall"
ACTION_EXIT = "exit"

_ACTIONS = {
    ACTION_DROP,
    ACTION_DELAY,
    ACTION_TORN,
    ACTION_EIO,
    ACTION_STALL,
    ACTION_EXIT,
}

#: Exit status of an injected ``exit`` -- distinguishable from real
#: crashes (which die on signals or tracebacks) in process tables.
DEFAULT_EXIT_CODE = 86


@dataclass
class FaultRule:
    """One scripted fault: fire ``action`` at ``site``.

    ``match`` narrows by substring of the site's context string (frame
    type, file name, point key -- whatever the site reports); ``after``
    skips that many matching crossings first; ``count`` caps how many
    times the rule fires (``None`` = forever); ``probability`` < 1
    fires on a per-rule seeded coin so a plan stays reproducible.
    """

    site: str
    action: str
    match: str = ""
    after: int = 0
    count: int | None = 1
    delay_seconds: float = 0.05
    probability: float = 1.0
    exit_code: int = DEFAULT_EXIT_CODE

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r} "
                f"(one of {sorted(_ACTIONS)})"
            )

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "FaultRule":
        known = {field for field in cls.__dataclass_fields__}
        extra = set(payload) - known
        if extra:
            raise ValueError(f"unknown fault rule fields {sorted(extra)}")
        return cls(**payload)


class FaultPlan:
    """A seeded, ordered set of :class:`FaultRule`\\ s.

    Thread-safe: rule counters live behind one lock because sites fire
    from the event loop, executor threads and HTTP handler threads
    alike.  ``seed`` only matters for rules with ``probability`` < 1;
    each rule draws from its own ``random.Random`` stream so adding a
    rule never perturbs another's coin flips.
    """

    def __init__(
        self,
        rules: Iterable[FaultRule],
        seed: int = 0,
        log_path: str | pathlib.Path | None = None,
    ) -> None:
        self._rules = list(rules)
        self._seed = int(seed)
        self._log_path = (
            pathlib.Path(log_path) if log_path is not None else None
        )
        self._lock = threading.Lock()
        self._crossings = [0] * len(self._rules)
        self._fired = [0] * len(self._rules)
        self._rngs = [
            random.Random(f"{self._seed}:{index}:{rule.site}")
            for index, rule in enumerate(self._rules)
        ]

    @property
    def rules(self) -> list[FaultRule]:
        return list(self._rules)

    def check(self, site: str, context: str) -> FaultRule | None:
        """The rule firing at this crossing of ``site``, if any."""
        with self._lock:
            for index, rule in enumerate(self._rules):
                if rule.site != site:
                    continue
                if rule.match and rule.match not in context:
                    continue
                if rule.count is not None and self._fired[index] >= rule.count:
                    continue
                self._crossings[index] += 1
                if self._crossings[index] <= rule.after:
                    continue
                if (
                    rule.probability < 1.0
                    and self._rngs[index].random() >= rule.probability
                ):
                    continue
                self._fired[index] += 1
                self._log(site, context, rule)
                return rule
        return None

    def _log(self, site: str, context: str, rule: FaultRule) -> None:
        if self._log_path is None:
            return
        line = (
            json.dumps(
                {
                    "site": site,
                    "context": context,
                    "action": rule.action,
                    "pid": os.getpid(),
                },
                sort_keys=True,
            )
            + "\n"
        ).encode()
        try:
            fd = os.open(
                self._log_path,
                os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                0o644,
            )
            try:
                os.write(fd, line)
            finally:
                os.close(fd)
        except OSError:
            pass  # the log is evidence, never load-bearing

    # -- (de)serialization ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "seed": self._seed,
            "rules": [asdict(rule) for rule in self._rules],
        }
        if self._log_path is not None:
            payload["log"] = str(self._log_path)
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "FaultPlan":
        rules = [
            FaultRule.from_dict(dict(rule))
            for rule in payload.get("rules", [])
        ]
        return cls(
            rules,
            seed=int(payload.get("seed", 0)),
            log_path=payload.get("log"),
        )

    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        """Write the plan as JSON (the ``REPRO_FAULTS`` file format)."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path


# -- process-global activation ------------------------------------------------

_active_plan: FaultPlan | None = None
_env_checked = False
_state_lock = threading.Lock()


def install(plan: FaultPlan | None) -> None:
    """Activate ``plan`` in this process (``None`` deactivates)."""
    global _active_plan, _env_checked
    with _state_lock:
        _active_plan = plan
        _env_checked = True


def clear() -> None:
    """Deactivate any plan and re-arm the ``REPRO_FAULTS`` probe."""
    global _active_plan, _env_checked
    with _state_lock:
        _active_plan = None
        _env_checked = False


def active() -> FaultPlan | None:
    """The installed plan, loading ``REPRO_FAULTS`` on first call."""
    global _active_plan, _env_checked
    if _env_checked:
        return _active_plan
    with _state_lock:
        if not _env_checked:
            _env_checked = True
            source = os.environ.get(ENV_PLAN)
            if source:
                try:
                    payload = json.loads(
                        pathlib.Path(source).read_text()
                    )
                    _active_plan = FaultPlan.from_dict(payload)
                except (OSError, ValueError) as error:
                    raise RuntimeError(
                        f"unloadable {ENV_PLAN} plan {source!r}: {error}"
                    ) from None
        return _active_plan


def inject(site: str, context: str = "") -> FaultRule | None:
    """Fire any rule scripted for this crossing of ``site``.

    Generic actions resolve here: ``delay`` sleeps and returns
    ``None`` (the call site proceeds normally afterwards), ``eio``
    raises ``OSError(EIO)``, ``exit`` is ``os._exit`` -- the closest
    in-process stand-in for SIGKILL (no finally blocks, no flushes).
    ``drop``/``torn``/``stall`` return the rule for the call site to
    interpret.  With no plan active this is one ``None`` check.
    """
    plan = active()
    if plan is None:
        return None
    rule = plan.check(site, context)
    if rule is None:
        return None
    if rule.action == ACTION_DELAY:
        time.sleep(rule.delay_seconds)
        return None
    if rule.action == ACTION_EXIT:
        os._exit(rule.exit_code)
    if rule.action == ACTION_EIO:
        raise OSError(
            errno.EIO, f"injected EIO at {site} ({context or 'no context'})"
        )
    return rule
