"""The supervised replay loop.

Glue between the scenario layer and the service layer:

* :class:`ServiceOptions` — one bag for everything a supervised run
  needs (supervisor config, optional chaos config, clock, checkpoint
  directory, read-traffic shape), so ``replay_trace``'s signature stays
  small.
* :class:`SupervisedDriver` — binds a :class:`ChaosInjector` to a
  :class:`SessionSupervisor` over one session and exposes the loop
  primitives: ``feed`` (submit + pump, with poison requests injected
  and *required* to be rejected), ``barrier`` (drain before snapshot
  marks — which is why supervised snapshots are byte-identical to
  unsupervised ones), reads, and the merged service report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.api.session import BatchValidationError, Session
from repro.service.chaos import ChaosConfig, ChaosInjector
from repro.service.clock import Clock, MonotonicClock
from repro.service.policy import SupervisorConfig
from repro.service.supervisor import ReadView, SessionSupervisor

__all__ = ["ServiceOptions", "SupervisedDriver"]


@dataclass(frozen=True)
class ServiceOptions:
    """Everything one supervised run needs, in one bag."""

    config: SupervisorConfig = field(default_factory=SupervisorConfig)
    chaos: ChaosConfig | None = None
    clock: Clock | None = None
    checkpoint_dir: Any = None
    #: Issue one deadline-bounded read every N feeds (0 = no read
    #: traffic during replay; snapshot marks still read via barrier).
    read_every: int = 0


class SupervisedDriver:
    """One supervised run: supervisor + chaos bound to one session."""

    def __init__(self, session: Session,
                 options: ServiceOptions | None = None) -> None:
        self.options = options or ServiceOptions()
        clock = self.options.clock or MonotonicClock()
        self.injector: ChaosInjector | None = None
        transport = None
        checkpoint_hook = None
        if self.options.chaos is not None:
            self.injector = ChaosInjector(self.options.chaos, clock)
            transport = self.injector.transport(session)
            checkpoint_hook = self.injector.on_checkpoint
        self.supervisor = SessionSupervisor(
            session, self.options.config, clock=clock,
            transport=transport,
            checkpoint_dir=self.options.checkpoint_dir,
            checkpoint_hook=checkpoint_hook)
        self._feeds = 0

    def feed(self, ops: Sequence[Any]) -> ReadView | None:
        """Admit one arrival batch and pump; maybe serve a read.

        When chaos is active, poison requests ride along with real
        traffic and *must* be rejected by the validation boundary — a
        poison batch slipping through would corrupt the digest-parity
        guarantee, so acceptance is a hard error here, not a counter.
        """
        if self.injector is not None:
            poison = self.injector.poison_request()
            if poison is not None:
                try:
                    self.supervisor.submit(poison)
                except BatchValidationError:
                    pass
                else:
                    raise AssertionError(
                        "chaos poison request was accepted by the "
                        "apply_batch validation boundary")
        self.supervisor.submit(ops)
        self.supervisor.pump()
        self._feeds += 1
        every = self.options.read_every
        if every > 0 and self._feeds % every == 0:
            return self.supervisor.read()
        return None

    def barrier(self) -> None:
        """Drain the queue — run before every snapshot mark, so the
        recorded result ids never depend on wave boundaries."""
        self.supervisor.drain()

    def service_report(self) -> dict[str, Any]:
        """Supervisor counters + chaos tallies + final state digest.

        Everything here stays outside ``determinism_digest()``.
        """
        out = self.supervisor.counters()
        if self.injector is not None:
            out["chaos"] = dict(self.injector.counters)
            out["chaos_active"] = list(self.options.chaos.active)
        digest = self.supervisor.state_digest()
        if digest is not None:
            out["final_state_digest"] = digest
        out["result_digest"] = self.supervisor.result_digest()
        return out

