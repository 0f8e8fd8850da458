"""MAC-address spoofing misbehavior and its countermeasure (§4.4).

The paper: "a misbehaving node may use different MAC addresses for
different packet transmissions.  A receiver monitoring such a sender
cannot effectively penalize the misbehaving node, as the receiver
associates different MAC addresses with different nodes.  The proposed
scheme can be augmented with authentication mechanisms provided by
higher layers to identify such misbehaving nodes."

:class:`SpoofingSenderMac` rotates the source address it advertises
across a set of aliases, one per packet.  Each alias gets a fresh
:class:`~repro.core.monitor.SenderMonitor` at the receiver, so:

* penalties don't accumulate — every alias's first packet is
  unjudged, and its deviation history restarts;
* the diagnosis window never fills for any single alias.

The countermeasure is an identity resolver: when the receiver's MAC is
given an ``identity_resolver`` (modelling a higher-layer
authentication service that maps addresses to principals), it monitors
by *principal*, collapsing the aliases back into one history.  See
``tests/test_spoofing.py`` for the attack succeeding without the
resolver and dying with it.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Optional, Sequence

from repro.mac.correct import CorrectMac
from repro.mac.dcf import _Responder
from repro.mac.frames import Frame


class SpoofingSenderMac(CorrectMac):
    """A CORRECT sender that rotates its advertised address per packet.

    Extra parameters
    ----------------
    aliases:
        Addresses to rotate through.  Must include addresses no other
        node uses.  The node still *receives* frames addressed to any
        of its aliases.
    """

    def __init__(self, *args, aliases: Sequence[int] = (), **kwargs):
        super().__init__(*args, **kwargs)
        if not aliases:
            raise ValueError("need at least one alias")
        self.aliases = list(aliases)
        self._alias_index = 0

    @property
    def current_alias(self) -> int:
        return self.aliases[self._alias_index % len(self.aliases)]

    def _try_dequeue(self) -> None:
        # Rotate to a fresh address for each new packet.
        if self._state == "idle":
            self._alias_index += 1
        super()._try_dequeue()

    # ------------------------------------------------------------------
    # Outbound frames advertise the alias instead of the true identity.
    # ------------------------------------------------------------------
    def _outbound(self, frame: Frame) -> Frame:
        if frame.src == self.node_id:
            return replace(frame, src=self.current_alias)
        return frame

    # ------------------------------------------------------------------
    # Inbound: accept frames addressed to any alias.
    # ------------------------------------------------------------------
    def on_frame(self, frame: Frame) -> None:
        if frame.dst in self.aliases and frame.dst != self.node_id:
            frame = replace(frame, dst=self.node_id)
        super().on_frame(frame)


class AuthenticatingReceiverMac(CorrectMac):
    """A CORRECT receiver with a higher-layer identity resolver.

    ``identity_resolver(address) -> principal`` models the paper's
    "authentication mechanisms provided by higher layers": all frames
    whose addresses resolve to the same principal share one monitor,
    one penalty state, and one diagnosis window.  Responses still go
    to the address the sender used (it is listening there).
    """

    def __init__(
        self,
        *args,
        identity_resolver: Optional[Callable[[int], int]] = None,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self.identity_resolver = identity_resolver

    def _principal(self, address: int) -> int:
        if self.identity_resolver is None:
            return address
        return self.identity_resolver(address)

    def _judge_sender(self, src: int, attempt: int, seq: int) -> Optional[_Responder]:
        principal = self._principal(src)
        response = super()._judge_sender(principal, attempt, seq)
        if response is not None and response.src != src:
            # Answer to the address actually used on the air.
            response.src = src
        return response

    def _on_response_sent(self, kind: str, resp: _Responder) -> None:
        monitor = self.monitor_for(self._principal(resp.src))
        idle_now = self.idle_slots()
        monitor.on_response_sent(kind, resp.attempt, idle_now)
