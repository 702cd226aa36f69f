"""Snort-like network intrusion detection (paper Table 3).

The hot loop of an IDS is multi-pattern string matching: an Aho-Corasick
automaton walked once per payload byte.  The automaton's hot states want to
live in L1/L2; random TCP/IP payloads (the paper's traffic) mostly bounce
around the root neighbourhood with occasional deep excursions.  Of the
three collocated NFs this has the largest working set, hence the largest
pollution-induced drop in Figure 12.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..classifier.flow import FiveTuple
from ..sim.hierarchy import MemoryHierarchy
from ..sim.trace import InstructionMix
from .base import NetworkFunction

#: Payload bytes scanned per packet (64B frames, paper's traffic).
SCAN_BYTES = 40
#: Automaton transitions that leave the register-cached root fan-out and
#: actually touch memory, per packet.
MEMORY_TRANSITIONS = 12


class PatternAutomaton:
    """A small real Aho-Corasick automaton (functional detection layer)."""

    def __init__(self, patterns: List[bytes]) -> None:
        self.patterns = list(patterns)
        # goto function as nested dicts; failure links by BFS.
        self._goto: List[Dict[int, int]] = [{}]
        self._output: List[List[bytes]] = [[]]
        self._fail: List[int] = [0]
        for pattern in self.patterns:
            self._add(pattern)
        self._build_failures()

    def _add(self, pattern: bytes) -> None:
        state = 0
        for symbol in pattern:
            nxt = self._goto[state].get(symbol)
            if nxt is None:
                nxt = len(self._goto)
                self._goto.append({})
                self._output.append([])
                self._fail.append(0)
                self._goto[state][symbol] = nxt
            state = nxt
        self._output[state].append(pattern)

    def _build_failures(self) -> None:
        from collections import deque
        queue = deque()
        for symbol, state in self._goto[0].items():
            self._fail[state] = 0
            queue.append(state)
        while queue:
            current = queue.popleft()
            for symbol, nxt in self._goto[current].items():
                queue.append(nxt)
                fallback = self._fail[current]
                while fallback and symbol not in self._goto[fallback]:
                    fallback = self._fail[fallback]
                self._fail[nxt] = self._goto[fallback].get(symbol, 0)
                if self._fail[nxt] == nxt:
                    self._fail[nxt] = 0
                self._output[nxt].extend(self._output[self._fail[nxt]])

    def scan(self, data: bytes) -> List[Tuple[int, bytes]]:
        """All (offset, pattern) matches in ``data``."""
        matches = []
        state = 0
        for offset, symbol in enumerate(data):
            while state and symbol not in self._goto[state]:
                state = self._fail[state]
            state = self._goto[state].get(symbol, 0)
            for pattern in self._output[state]:
                matches.append((offset, pattern))
        return matches


DEFAULT_PATTERNS = [
    b"GET /etc/passwd", b"cmd.exe", b"/bin/sh", b"SELECT * FROM",
    b"\x90\x90\x90\x90", b"union select", b"../..", b"<script>",
]


class IdsFunction(NetworkFunction):
    """Pattern-matching IDS with a real automaton and a big working set."""

    MIX = InstructionMix(loads=150, stores=30, arithmetic=120, others=120)
    DEPENDENT_TOUCHES = MEMORY_TRANSITIONS
    INDEPENDENT_TOUCHES = 2

    def __init__(self, hierarchy: MemoryHierarchy, core_id: int = 0,
                 seed: int = 202) -> None:
        super().__init__(hierarchy, core_id=core_id,
                         working_set_bytes=512 * 1024, name="snort",
                         seed=seed)
        self.automaton = PatternAutomaton(DEFAULT_PATTERNS)
        self._rng = np.random.default_rng(seed)
        self.alerts = 0

    def _payload_for(self, flow: FiveTuple) -> bytes:
        """Pseudo-random payload derived from the flow (deterministic)."""
        seed = (flow.src_ip * 31 + flow.dst_ip) & 0xFFFFFFFF
        rng = np.random.default_rng(seed)
        return bytes(rng.integers(32, 127, size=SCAN_BYTES, dtype=np.uint8))

    def _process_impl(self, flow: FiveTuple) -> float:
        matches = self.automaton.scan(self._payload_for(flow))
        if matches:
            self.alerts += len(matches)
        return self.core.execute(self._base_trace()).cycles
