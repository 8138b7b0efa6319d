"""Decoupled access/execute engine.

Models the HyMM pipeline of SMQ -> LSQ -> PE array (Sections IV-A..C)
at vector-op granularity:

* the **frontend** (SMQ feeding the LSQ) issues one memory request per
  cycle and may run ahead of the backend by up to ``lsq_depth``
  requests -- exactly the latency-hiding role the paper gives the LSQ
  ("while a missed load instruction waits ... subsequent load
  instructions can continue execution");
* the **backend** (the 16-MAC PE array) executes one scalar x vector
  MAC per cycle, in order, waiting when its operand has not arrived;
* **store-to-load forwarding**: a load whose address matches a recent
  store is served from the LSQ without touching the DMB (Section IV-B);
  the forwarding window is the LSQ's 128 entries;
* the sparse operand itself (pointers + indices + values) arrives as an
  SMQ **stream** that charges DRAM bandwidth; the stream can throttle
  the frontend when bandwidth saturates, but its latency is hidden by
  the SMQ's pointer/index buffers.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.buffer import CLASS_INDEX, CLASS_PARTIAL, CacheBuffer
from repro.sim.memory import DRAM
from repro.sim.stats import SimStats

#: Engine implementations selectable via ``HyMMConfig.engine``.
ENGINE_KINDS = ("scalar", "batched")

#: Address bits below the (space, layer) prefix of
#: :class:`repro.hymm.dmb.AddressMap` addresses.  The batched engine
#: tracks which prefixes currently sit in the forwarding window so a
#: whole load batch over a different matrix can skip the per-address
#: store-map probe.
_SPACE_BITS = 32

_PARTIAL_IDX = CLASS_INDEX[CLASS_PARTIAL]

#: Minimum all-hit prefix length worth routing through the vector lane
#: (below this the numpy setup costs more than the flat loop saves).
_LANE_MIN = 48

#: Minimum remaining batch length for a store-side or merge epoch
#: attempt, and the minimum merge-miss run worth processing as one
#: epoch (below this the run scan + bulk commit cost more than the
#: per-miss ``_read_miss``/``_insert`` frames they replace).
_EPOCH_MIN = 8

#: Minimum store/accumulate *hit* run length.  Hit frames are far
#: cheaper than miss frames (no MSHR/eviction machinery to skip), so
#: the epoch's fixed per-attempt cost -- gather, distinctness and
#: residency cuts, window rebuild, bulk commit -- needs a longer run to
#: amortize; short runs stay on the flat loop.
_HIT_RUN_MIN = 24

#: Declined vector attempts in a row after which the rest of a batch
#: takes one flat pass (see :func:`_flat_chunk`).
_DECLINE_BUDGET = 2

#: Magnitude bound of the exactness gate for the closed forms: on a
#: grid-exact configuration (``_lane_grid_exact``) every timeline value
#: sits on the 2^-16 dyadic grid, and below 2^35 every add/max in the
#: recurrences is exact real arithmetic, so the closed form is
#: identical to the sequential loop.  Other configurations, and values
#: at or past the bound, take the flat loop.
_LANE_MAG = float(1 << 35)


def _resident_prefix(slot_of: Dict[int, int], addrs: List[int]) -> List[int]:
    """Slots of the longest resident prefix of ``addrs``.

    One C-level gather; a raised KeyError means some later address is
    non-resident, and direct probing then finds the prefix in O(prefix)
    probes -- the KeyError guarantees the probe loop stops before the
    end, so a short prefix never costs a full-tail residency pass.
    """
    try:
        return list(map(slot_of.__getitem__, addrs))
    except KeyError:
        m = 0
        while addrs[m] in slot_of:
            m += 1
        return list(map(slot_of.__getitem__, addrs[:m]))


def _flat_chunk(
    rounds: int,
    addr_list: List[int],
    i: int,
    slot_of: Dict[int, int],
    touched: Optional[Set[int]] = None,
) -> Tuple[int, int]:
    """Charge one declined vector attempt at ``addr_list[i]`` against
    the budget ``rounds``; return ``(rounds, target)``.

    The caller's flat loop then runs ``addr_list[i:target]`` and the
    attempt retries at ``target``.  While budget remains, the chunk
    ends where the frame shape flips -- residency, and for merges
    (``touched`` given) also first touch vs read-modify-write -- so the
    retry lands on a different run; once it is spent the remainder of
    the batch takes one flat pass.  Every consumed run restores the
    budget, which bounds declined-probe overhead on fragmented batches.
    """
    rounds -= 1
    n = len(addr_list)
    if not rounds:
        return 0, n
    a = addr_list[i]
    j = i + 1
    if touched is not None:
        t_flag = a in touched
        r_flag = a in slot_of
        while j < n:
            a = addr_list[j]
            if (a in touched) != t_flag or (a in slot_of) != r_flag:
                break
            j += 1
    elif a in slot_of:
        while j < n and addr_list[j] in slot_of:
            j += 1
    else:
        while j < n and addr_list[j] not in slot_of:
            j += 1
    return rounds, j


class AccessExecuteEngine:
    """One in-order decoupled pipeline over a shared memory hierarchy."""

    def __init__(
        self,
        buffer: CacheBuffer,
        dram: DRAM,
        stats: SimStats,
        lsq_depth: int = 128,
        forwarding: bool = True,
        smq_buffer_bytes: int = 16 * 1024,
        start_cycle: float = 0.0,
        tracer: Optional[Tracer] = None,
    ):
        if lsq_depth <= 0:
            raise ValueError("lsq_depth must be positive")
        self.buffer = buffer
        self.dram = dram
        self.stats = stats
        #: Simulated-time event sink; NULL_TRACER (disabled) by default,
        #: so the per-batch cost is one ``enabled`` check.  Tracing never
        #: touches ``stats`` -- cycle counts and counters are identical
        #: whether or not a tracer is attached.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.lsq_depth = lsq_depth
        self.forwarding = forwarding
        # Frontend slack granted by the SMQ's on-chip stream buffers.
        self._stream_slack = smq_buffer_bytes / dram.config.bytes_per_cycle
        #: Frontend load timeline: when the next read request can issue
        #: (the DMB's read queue accepts one request per cycle).
        self.issue_t = float(start_cycle)
        #: Store timeline: the DMB's *write queue* is a separate port
        #: (Fig. 3 shows distinct read/write queues), so stores and
        #: accumulator traffic do not steal load-issue slots.
        self.write_t = float(start_cycle)
        #: Backend timeline: when the PE array finishes its last op.
        self.exec_t = float(start_cycle)
        # Ring of backend completion times, one slot per LSQ entry: the
        # frontend reuses a slot only after the backend consumed it.
        self._ring = [float(start_cycle)] * lsq_depth
        self._k = 0
        # Store-to-load forwarding window (bounded by LSQ depth).
        self._store_map: OrderedDict = OrderedDict()

    # ------------------------------------------------------------------
    # Compute + memory primitives
    # ------------------------------------------------------------------
    def mac_load(self, addr: int, cls: str, tag: str) -> None:
        """One vector MAC whose dense operand is loaded from memory."""
        self.stats.requests_issued += 1
        slot = self._ring[self._k % self.lsq_depth]
        issue = max(self.issue_t + 1.0, slot)
        forwarded = self.forwarding and addr in self._store_map
        if forwarded:
            ready = max(issue, self._store_map[addr])
            self.stats.lsq_forwards += 1
        else:
            ready, issue = self.buffer.read(issue, addr, cls, tag)
        self.issue_t = issue
        self.exec_t = max(self.exec_t + 1.0, ready)
        self._ring[self._k % self.lsq_depth] = self.exec_t
        self._k += 1
        self.stats.busy_cycles += 1

    def mac_stream_load(self, addr: int, cls: str, tag: str) -> None:
        """One vector MAC whose operand arrives on a *sequential* stream.

        OP-mode engines consume dense rows in ascending order ("The OP
        architecture involves sequential input reads", Section III), so
        a streaming prefetcher fetches them without occupying MSHRs or
        paying per-access latency.  If the line is already on-chip it is
        read from the buffer (a hit); otherwise it streams from DRAM --
        counted as a miss (the data was off-chip) but charged only
        bandwidth.  Streamed lines are not allocated: the PE stationary
        buffer holds them and they have no further reuse this pass.
        """
        if self.buffer.contains(addr):
            self.mac_load(addr, cls, tag)
            return
        self.stats.requests_issued += 1
        self.stats.buffer_misses[tag] += 1
        self.issue_t += 1.0
        end = self.dram.stream_read(self.issue_t, self.buffer.line_bytes, tag)
        throttled = end - self._stream_slack
        if throttled > self.issue_t:
            self.issue_t = throttled
        self.exec_t = max(self.exec_t + 1.0, self.issue_t)
        self.stats.busy_cycles += 1

    def load(self, addr: int, cls: str, tag: str) -> None:
        """Fetch one vector without issuing a MAC (the consuming ALU op
        follows separately, e.g. the add of a PE-side read-modify-write).
        The backend waits for the data but records no busy cycle."""
        self.stats.requests_issued += 1
        slot = self._ring[self._k % self.lsq_depth]
        issue = max(self.issue_t + 1.0, slot)
        if self.forwarding and addr in self._store_map:
            ready = max(issue, self._store_map[addr])
            self.stats.lsq_forwards += 1
        else:
            ready, issue = self.buffer.read(issue, addr, cls, tag)
        self.issue_t = issue
        self.exec_t = max(self.exec_t, ready)
        self._ring[self._k % self.lsq_depth] = self.exec_t
        self._k += 1

    def mac_local(self, n: int = 1) -> None:
        """``n`` vector MACs on operands already held in the PE
        stationary buffers (no memory request)."""
        self.exec_t += n
        self.stats.busy_cycles += n

    def alu_op(self, n: int = 1) -> None:
        """``n`` PE-array cycles of non-MAC ALU work (e.g. merge adds);
        counts as busy (the adder is doing useful work)."""
        self.exec_t += n
        self.stats.busy_cycles += n

    def wait_until(self, cycle: float) -> None:
        """Stall the backend until ``cycle`` (if it is in the future)."""
        if cycle > self.exec_t:
            self.exec_t = cycle

    def store(self, addr: int, cls: str, tag: str, allocate: bool = True) -> None:
        """Store one result vector through the LSQ into the DMB.

        The store occupies an LSQ slot at issue time but does *not*
        block the frontend until the data exists: the LSQ holds the
        entry and performs the write once the producing op completes
        (the paper's LSQ explicitly decouples stores this way).
        ``allocate=False`` streams it to DRAM (write-through,
        no-allocate) -- used for outputs with no expected reuse.
        """
        self.stats.requests_issued += 1
        slot = self._ring[self._k % self.lsq_depth]
        issue = max(self.write_t + 1.0, slot)
        # The buffer/DRAM see the request at its (monotone) issue time;
        # the LSQ entry is held until the producing op's data exists.
        self.buffer.write(issue, addr, cls, tag, allocate=allocate)
        self.write_t = issue
        self._ring[self._k % self.lsq_depth] = max(issue + 1.0, self.exec_t)
        self._k += 1
        self._record_store(addr, self.exec_t)

    def accumulate_store(self, addr: int, tag: str = "partial") -> None:
        """Emit one partial output to the DMB's near-memory accumulator.

        The add happens at the buffer, not in the PE array, so the
        backend does not stall; the request still occupies an LSQ slot
        and the DMB's write queue.
        """
        self.stats.requests_issued += 1
        slot = self._ring[self._k % self.lsq_depth]
        issue = max(self.write_t + 1.0, slot)
        self.buffer.accumulate(issue, addr, tag)
        self.write_t = issue
        self._ring[self._k % self.lsq_depth] = max(issue + 1.0, self.exec_t)
        self._k += 1
        self._record_store(addr, self.exec_t)

    def rmw(self, addr: int, cls: str, tag: str) -> None:
        """Read-modify-write of one output vector *through the PE array*
        (the no-near-memory-accumulator way to merge a partial output):
        load the current value, spend an adder cycle, store it back."""
        self.load(addr, cls, tag)
        self.alu_op(1)
        self.store(addr, cls, tag, allocate=True)

    def stream(self, nbytes: int, tag: str) -> None:
        """Consume ``nbytes`` of an SMQ-prefetched sequential stream.

        Charges DRAM bandwidth; throttles the frontend only if the
        stream falls more than one SMQ buffer behind the consumption
        point.
        """
        end = self.dram.stream_read(self.issue_t, nbytes, tag)
        throttled = end - self._stream_slack
        if throttled > self.issue_t:
            self.issue_t = throttled

    # ------------------------------------------------------------------
    def drain(self) -> float:
        """Finish in-flight work; returns the final cycle of this engine."""
        return max(self.issue_t, self.write_t, self.exec_t)

    # ------------------------------------------------------------------
    # State snapshot / restore (trace replay)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        """JSON-able snapshot of all engine timing state.

        Every value is a dyadic-rational float (built from the start
        cycle by ``max`` and additions of on-grid quantities), so JSON
        round-trips it exactly; the store map is captured in insertion
        order so the forwarding-window FIFO trim replays identically.
        """
        return {
            "issue_t": self.issue_t,
            "write_t": self.write_t,
            "exec_t": self.exec_t,
            "ring": list(self._ring),
            "k": self._k,
            "store_map": [[addr, ready] for addr, ready in self._store_map.items()],
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Rebuild engine timing state from :meth:`snapshot_state`."""
        self.issue_t = float(state["issue_t"])  # type: ignore[arg-type]
        self.write_t = float(state["write_t"])  # type: ignore[arg-type]
        self.exec_t = float(state["exec_t"])  # type: ignore[arg-type]
        ring = state["ring"]
        self._ring[:] = [float(v) for v in ring]  # type: ignore[union-attr]
        self._k = int(state["k"])  # type: ignore[call-overload]
        self._store_map.clear()
        for addr, ready in state["store_map"]:  # type: ignore[union-attr]
            self._store_map[int(addr)] = float(ready)

    def _record_store(self, addr: int, ready: float) -> None:
        if not self.forwarding:
            return
        self._store_map[addr] = ready
        self._store_map.move_to_end(addr)
        while len(self._store_map) > self.lsq_depth:
            self._store_map.popitem(last=False)

    def _track_partial_peak(self) -> None:
        """PE-merge footprint tracking: distinct partial lines resident
        plus those spilled, mirroring the near-memory accumulator's
        bookkeeping (the split organisation routes partials to its
        output half)."""
        target = getattr(self.buffer, "output_buffer", self.buffer)
        footprint = (
            target.resident_lines(CLASS_PARTIAL) + len(target._spilled_partials)
        ) * target.line_bytes
        if footprint > self.stats.partial_peak_bytes:
            self.stats.partial_peak_bytes = footprint

    # ------------------------------------------------------------------
    # Batch primitives (reference implementations)
    #
    # Kernels always issue whole address batches.  These loops over the
    # scalar primitives *define* the semantics; the batched engine
    # subclass replaces them with inlined fast paths that must stay
    # cycle- and stats-exact (the equivalence property tests compare
    # full ``SimStats`` between the two paths).
    # ------------------------------------------------------------------
    def mac_load_batch(self, addrs: np.ndarray, cls: str, tag: str) -> None:
        """One :meth:`mac_load` per address, in array order."""
        t0 = self.drain()
        mac_load = self.mac_load
        for addr in addrs.tolist():
            mac_load(addr, cls, tag)
        tracer = self.tracer
        if tracer.enabled and len(addrs):
            tracer.span(
                "mac_load_batch", t0, self.drain(), "engine",
                {"n": int(len(addrs)), "cls": cls, "tag": tag},
            )

    def load_batch(self, addrs: np.ndarray, cls: str, tag: str) -> None:
        """One :meth:`load` per address, in array order."""
        t0 = self.drain()
        load = self.load
        for addr in addrs.tolist():
            load(addr, cls, tag)
        tracer = self.tracer
        if tracer.enabled and len(addrs):
            tracer.span(
                "load_batch", t0, self.drain(), "engine",
                {"n": int(len(addrs)), "cls": cls, "tag": tag},
            )

    def mac_stream_load_batch(self, addrs: np.ndarray, cls: str, tag: str) -> None:
        """One :meth:`mac_stream_load` per address, in array order."""
        t0 = self.drain()
        mac_stream_load = self.mac_stream_load
        for addr in addrs.tolist():
            mac_stream_load(addr, cls, tag)
        tracer = self.tracer
        if tracer.enabled and len(addrs):
            tracer.span(
                "mac_stream_load_batch", t0, self.drain(), "engine",
                {"n": int(len(addrs)), "cls": cls, "tag": tag},
            )

    def store_batch(
        self, addrs: np.ndarray, cls: str, tag: str, allocate: bool = True
    ) -> None:
        """One :meth:`store` per address, in array order."""
        t0 = self.drain()
        store = self.store
        for addr in addrs.tolist():
            store(addr, cls, tag, allocate=allocate)
        tracer = self.tracer
        if tracer.enabled and len(addrs):
            tracer.span(
                "store_batch", t0, self.drain(), "engine",
                {"n": int(len(addrs)), "cls": cls, "tag": tag},
            )

    def accumulate_store_batch(self, addrs: np.ndarray, tag: str = "partial") -> None:
        """One :meth:`accumulate_store` per address, in array order."""
        t0 = self.drain()
        accumulate_store = self.accumulate_store
        for addr in addrs.tolist():
            accumulate_store(addr, tag)
        tracer = self.tracer
        if tracer.enabled and len(addrs):
            tracer.span(
                "accumulate_store_batch", t0, self.drain(), "engine",
                {"n": int(len(addrs)), "tag": tag},
            )

    def merge_rmw_batch(
        self,
        addrs: np.ndarray,
        cls: str,
        tag: str,
        touched: Set[int],
        track_peak: bool = False,
    ) -> None:
        """Merge one partial output per address through the PE array.

        The no-near-memory-accumulator merge path: the first touch of a
        line write-allocates (nothing to read yet); later touches are a
        read-modify-write.  ``touched`` is the caller's cross-batch set
        of first-touched addresses; ``track_peak`` additionally mirrors
        the accumulator's partial-footprint peak tracking (kernels track
        it, the CWP baseline's PE-local pool does not)."""
        t0 = self.drain()
        stats = self.stats
        for addr in addrs.tolist():
            stats.partials_produced += 1
            if addr in touched:
                self.rmw(addr, cls, tag)
            else:
                touched.add(addr)
                self.store(addr, cls, tag)
            if track_peak:
                self._track_partial_peak()
        tracer = self.tracer
        if tracer.enabled and len(addrs):
            tracer.span(
                "merge_rmw_batch", t0, self.drain(), "engine",
                {"n": int(len(addrs)), "cls": cls, "tag": tag},
            )


class BatchedAccessExecuteEngine(AccessExecuteEngine):
    """Vectorized batch-issue fast path of the decoupled pipeline.

    Overrides every batch primitive with a single Python loop that
    inlines the per-address hot path -- LSQ ring slot, store-to-load
    forwarding probe, slot-arena residency probe, one-splice intrusive
    LRU touch and the three-timeline arithmetic -- and batches the
    stats-counter updates.  Primary misses run through the buffer's
    single-frame :meth:`repro.sim.buffer.CacheBuffer._read_miss` /
    ``_insert``, so the MSHR/DRAM/eviction machinery has exactly one
    implementation.

    On top of the flat loops, the batch primitives make *lazy* vector
    attempts at the cursor -- no pre-classification pass over the
    batch -- and each primitive has one vector path.  Loads send
    **all-hit runs** through a numpy vector lane
    (:meth:`_all_hit_lane`): when a run is entirely resident, ready in
    time, and outside the forwarding window, the uniform-latency
    timeline recurrence is computed elementwise in closed form and the
    LRU touches applied as one run of C-level list splices.  Stores and
    accumulates send distinct **hit runs** through
    :meth:`_hit_run_epoch`; merges send distinct **read-modify-write
    miss runs** through :meth:`_merge_miss_epoch`, which replays the
    per-miss float recurrence with bulk state commits.  Each path
    verifies its own run and declines in O(1) probes, so an attempt is
    nearly free; the closed forms additionally only engage when an
    exactness gate proves them bit-identical to the sequential loop
    (a grid-exact configuration, see ``_lane_grid_exact``).
    Everything else takes the flat loop, which performs the *same
    scalar operations in the same order* as the reference engine.
    Either way every cycle value is bit-identical to the scalar engine
    -- the equivalence contract ``docs/performance.md`` documents and
    ``tests/sim/test_engine_equivalence.py`` enforces.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Live count of forwarding-window addresses per address-space
        # prefix (``addr >> _SPACE_BITS``), kept in sync with every
        # store-map insertion/trim; see :meth:`_forward_active`.
        self._store_spaces: Dict[int, int] = {}
        # Cached [0, 1, ..., lsq_depth) for the ring-floor prefix max
        # (sliced per call, never reallocated).
        self._lane_idx = np.arange(self.lsq_depth, dtype=np.float64)
        # Whole-simulation grid proof, the one exactness gate of the
        # closed forms.  Every cycle value any engine produces is built
        # from the start cycle by max() and by adding 1.0, integer
        # latencies, or DRAM transfer costs ``nbytes / bytes_per_cycle``.
        # When bytes_per_cycle is a power of two <= 2^16, every such
        # cost is an exact multiple of 2^-16; with a nonnegative on-grid
        # start cycle the induction gives *every* timeline/ring/ready/
        # forwarding value nonnegative and on the 2^-16 grid, so only
        # magnitude checks remain.  Other configurations never take a
        # closed form.
        bpc = self.dram.config.bytes_per_cycle
        self._lane_grid_exact = (
            bpc > 0.0
            and math.frexp(bpc)[0] == 0.5
            and bpc <= 65536.0
            and self.issue_t >= 0.0
            and (self.issue_t * 65536.0).is_integer()
            and (self._stream_slack * 65536.0).is_integer()
        )

    def restore_state(self, state: Dict[str, object]) -> None:
        """Restore timing state and rebuild the space-prefix index the
        batched forwarding filter keys on (derived from the store map,
        so it is not part of the snapshot wire format)."""
        super().restore_state(state)
        spaces = self._store_spaces
        spaces.clear()
        for a in self._store_map:
            sp = a >> _SPACE_BITS
            spaces[sp] = spaces.get(sp, 0) + 1

    # ------------------------------------------------------------------
    # Forwarding-window bookkeeping
    # ------------------------------------------------------------------
    def _record_store(self, addr: int, ready: float) -> None:
        if not self.forwarding:
            return
        store_map = self._store_map
        if addr in store_map:
            store_map[addr] = ready
            store_map.move_to_end(addr)
            return
        store_map[addr] = ready
        spaces = self._store_spaces
        sp = addr >> _SPACE_BITS
        spaces[sp] = spaces.get(sp, 0) + 1
        self._trim_window()

    def _trim_window(self) -> None:
        """Drop the oldest forwarding-window entries until at most
        ``lsq_depth`` remain, keeping the space-prefix counts in step.

        Store batches defer this to their end: the surviving window is
        the last ``lsq_depth`` distinct addresses in last-store order
        either way, and no forwarding lookup happens inside a store
        batch.
        """
        store_map = self._store_map
        depth = self.lsq_depth
        over = len(store_map) - depth
        if over <= 0:
            return
        spaces = self._store_spaces
        pop = store_map.popitem
        if len(spaces) == 1:
            # Every window entry shares one space, so the count after
            # trimming is the window size itself.
            for _ in repeat(None, over):
                pop(last=False)
            for sp in spaces:
                spaces[sp] = depth
        else:
            for _ in repeat(None, over):
                a, _ = pop(last=False)
                sp = a >> _SPACE_BITS
                c = spaces[sp] - 1
                if c:
                    spaces[sp] = c
                else:
                    del spaces[sp]

    def _ring_floor(self, t: float, w: int) -> np.ndarray:
        """``max(t + 1, prefixmax(ring[k + j] - j))`` for ``j < w``, over
        the next ``w <= lsq_depth`` LSQ ring slots from ``k = _k``.

        The shared unrolling of ``b_j = max(b_(j-1) + 1, ring[k + j])``
        from ``b_(-1) = t``: ``b_j = j + floor_j``.  Exact on a
        grid-exact configuration below ``_LANE_MAG``.
        """
        ring = self._ring
        depth = self.lsq_depth
        k = self._k % depth
        if k + w <= depth:
            S = np.array(ring[k : k + w], dtype=np.float64)
        else:
            cut = depth - k
            S = np.empty(w, dtype=np.float64)
            S[:cut] = ring[k:]
            S[cut:] = ring[: w - cut]
        np.subtract(S, self._lane_idx[:w], out=S)
        np.maximum.accumulate(S, out=S)
        return np.maximum(S, t + 1.0, out=S)

    def _ring_write(self, start: int, vals: List[float]) -> None:
        """Write ``vals`` (at most ``lsq_depth`` of them) to consecutive
        LSQ ring slots from ``start``, wrapping: two slice assignments."""
        ring = self._ring
        c = len(vals)
        cut = self.lsq_depth - start
        if c <= cut:
            ring[start : start + c] = vals
        else:
            ring[start:] = vals[:cut]
            ring[: c - cut] = vals[cut:]

    def _forward_active(self, addr_list: List[int]) -> bool:
        """Whether the forwarding window could match *any* address of
        the batch.

        Kernels emit monotone address batches, so equal first/last
        space prefixes mean the whole batch lives in one (space, layer)
        region and a single ``_store_spaces`` lookup settles it; a
        batch spanning regions conservatively probes per address.
        """
        if not self.forwarding or not self._store_map:
            return False
        sp = addr_list[0] >> _SPACE_BITS
        if sp != (addr_list[-1] >> _SPACE_BITS):
            return True
        return sp in self._store_spaces

    # ------------------------------------------------------------------
    # All-hit vector lane
    # ------------------------------------------------------------------
    def _all_hit_lane(self, buf: CacheBuffer, addr_list: List[int], mac: bool) -> int:
        """Vectorize the longest all-hit prefix of a load batch.

        Preconditions (checked here; any failure returns 0 or a shorter
        prefix and the caller's flat loop handles the rest):

        * every prefix address resident in ``buf`` (hits never allocate
          or evict, so residency is invariant across the prefix);
        * every hit line ready by its issue floor
          (``line.ready <= issue_t + 1 + hit_latency``), so each
          per-element ready is exactly ``issue + hit_latency``;
        * the caller established the forwarding window cannot match
          (space filter empty), so no per-address store-map probe;
        * a grid-exact configuration (``_lane_grid_exact``) and
          ``issue_t``/``exec_t`` and every consumed LSQ ring value
          below 2^35, so the closed-form recurrences below are exact
          real arithmetic -- the same per-element operations as the
          flat loop, just elementwise.

        With ``S_j`` the pre-lane ring values (``j < depth``), the
        sequential all-hit recurrences

        ``issue_i = max(issue_(i-1) + 1, ring_slot_i)``
        ``ready_i = issue_i + hit_latency``
        mac:   ``exec_i  = max(exec_(i-1) + 1, ready_i)``
        plain: ``exec_i  = max(exec_(i-1), ready_i)``

        unroll to ``issue_i = i + base_i`` with
        ``base_i = max(issue_t + 1, max_{j<=min(i, depth-1)}(S_j - j))``
        -- a prefix maximum over *at most lsq_depth* values, because
        ring slots consumed beyond ``depth`` were written by this lane
        and provably never bind: the exec timeline leads the issue
        timeline by at most ``C = max(exec_t - issue_t, hit_latency)``
        throughout an all-hit run, so the slot-reuse constraint
        ``exec_(i-depth) <= issue_(i-1) + 1`` holds whenever
        ``C <= depth`` (checked; the lane truncates to ``depth``
        elements otherwise).  Past ``depth`` everything is affine in
        ``i``, so the whole lane costs O(lsq_depth) numpy work no
        matter how long the batch.

        The per-element ready check itself is usually free: the
        buffer's ``_max_ready`` watermark bounds every resident line's
        ready time, so when it sits at or below the first issue floor
        no gather is needed at all.

        LRU touches are applied afterwards in batch order -- each one
        C-level intrusive-list splice, duplicates re-splicing exactly
        like the sequential per-hit touches.

        Returns the number of prefix elements consumed (0 if the lane
        did not engage); updates ``issue_t``/``exec_t``/ring/``_k`` and
        the LRU lists for exactly that prefix.
        """
        slot_of = buf._slot_of
        if not slot_of or addr_list[0] not in slot_of:
            return 0
        issue_t = self.issue_t
        exec_t = self.exec_t
        # On-grid and nonnegative by construction; bound magnitude.
        if (
            not self._lane_grid_exact
            or issue_t >= _LANE_MAG
            or exec_t >= _LANE_MAG
        ):
            return 0
        slot_list = _resident_prefix(slot_of, addr_list)
        m = len(slot_list)
        if m < _LANE_MIN:
            return 0
        hit_lat = buf.hit_latency
        floor0 = issue_t + 1.0 + hit_lat
        if buf._max_ready > floor0:
            ready_list = list(map(buf._slot_ready.__getitem__, slot_list))
            if max(ready_list) > floor0:
                ready_arr = np.fromiter(ready_list, np.float64, count=m)
                m = int(np.argmin(ready_arr <= floor0))
                if m < _LANE_MIN:
                    return 0
                slot_list = slot_list[:m]
        depth = self.lsq_depth
        if m > depth and exec_t - issue_t > depth:
            # The ring-feedback no-bind bound needs C <= depth; consume
            # only pre-lane ring slots instead.
            m = depth
            slot_list = slot_list[:m]
        k0 = self._k % depth
        w = m if m < depth else depth
        base = self._ring_floor(issue_t, w)
        # ``bl + depth`` bounds every consumed ring value, so one scalar
        # comparison is the magnitude gate.  (An over-bound value makes
        # ``bl`` huge even under rounding, so the check is safe.)
        bl = float(base[w - 1])
        if bl + depth >= _LANE_MAG:
            return 0
        idx = self._lane_idx[:w]
        h = float(hit_lat)
        np.add(base, h, out=base)
        if mac:
            np.maximum(base, exec_t + 1.0, out=base)
            np.add(base, idx, out=base)
            e_head = base.tolist()
        else:
            np.add(base, idx, out=base)
            e_head = np.maximum(base, exec_t, out=base).tolist()
        if m <= depth:
            self._ring_write(k0, e_head)
            exec_last = e_head[-1]
        else:
            # The final ring state is E_i for the last `depth` elements;
            # past i = depth the base is the constant `bl`, so those
            # values are affine in i.
            lo = m - depth
            start_i = depth if lo < depth else lo
            if mac:
                c = max(exec_t + 1.0, bl + h)
                aff = (np.arange(start_i, m, dtype=np.float64) + c).tolist()
            else:
                aff = np.maximum(
                    exec_t, np.arange(start_i, m, dtype=np.float64) + (bl + h)
                ).tolist()
            tail_vals = (e_head[lo:] + aff) if lo < depth else aff
            self._ring_write((k0 + lo) % depth, tail_vals)
            exec_last = tail_vals[-1]
        self.issue_t = (m - 1) + max(issue_t + 1.0, bl)
        self.exec_t = exec_last
        self._k += m
        if buf.lru:
            # Bulk LRU touch in batch order: per-slot C-level list
            # splices; a duplicate slot re-splices to the tail exactly
            # like the sequential per-hit touches would.
            ods = buf._lru_mte
            cls_arr = buf._slot_cls
            for s in slot_list:
                ods[cls_arr[s]](s)
        return m

    # ------------------------------------------------------------------
    # Store-hit and merge-miss epochs
    # ------------------------------------------------------------------
    def _hit_run_epoch(
        self, buf: CacheBuffer, addr_list: List[int], i: int, tag: str,
        partial: bool,
    ) -> int:
        """Process a run of store hits as one epoch.

        The steady-state store shape: a run of consecutive *distinct
        resident* addresses, each a store (or near-memory accumulate)
        hit.  The exactness cut is residency:
        within such a run nothing inserts, evicts or spills, so no
        element's processing can change the classification of the ones
        after it, the partial footprint is constant, and the only state
        the run touches is the run's own slots -- distinct, so the
        dirty/ready/LRU mutations commute into the bulk
        :meth:`CacheBuffer._commit_hit_epoch`.  The write-timeline
        recurrence runs flat-in-locals with the exact float op order of
        the flat hit branch (LSQ slot floor, constant exec floor); the
        run ends at the first duplicate or non-resident address, where
        the flat path's insert/refetch machinery takes over.

        ``partial=True`` (the accumulate path) reproduces the per-hit
        footprint bookkeeping against the stats object at the constant
        footprint -- the caller syncs ``partials_produced`` /
        ``partial_peak_bytes`` around the call, exactly as around the
        flat spilled-refetch branch.  Returns addresses consumed (0 if
        below ``_HIT_RUN_MIN``); the caller owns the hit counter.

        On grid-exact configurations the whole write recurrence takes
        a closed form, the store-side analogue of :meth:`_all_hit_lane`:
        for the first ``w = min(m, depth)`` frames the slot floors are
        the pre-epoch ring values ``S_j``, so
        ``b_f = max(b_(f-1) + 1, S_f)`` unrolls to the prefix maximum
        ``b_f = (f-1) + max(write_t + 1, max_(j<=f)(S_j - (j-1)))``;
        past ``depth``
        every slot floor was written by this run
        (``ring = max(b_(f-depth) + 1, exec_t)``) and
        ``b_(f-1) + 1 >= b_(f-depth) + 1`` by monotonicity, so the
        recurrence collapses to ``b_f = max(b_(f-1) + 1, exec_t)`` --
        one comparison decides the whole tail: either it never binds
        (``b_w + 1 >= exec_t``, pure ``+1`` per frame) or it binds once
        and then advances by 1.  On the 2^-16 dyadic grid with
        magnitudes below ``_LANE_MAG`` (gated before any mutation)
        every op is exact real arithmetic, so the numpy evaluation is
        bit-identical to the flat loop.
        """
        slot_of = buf._slot_of
        if addr_list[i] not in slot_of:
            # Fast decline -- the caller probes lazily, so a
            # non-resident cursor address is the common case; bail
            # before any allocation.
            return 0
        tail = addr_list[i:] if i else addr_list
        slots = _resident_prefix(slot_of, tail)
        m = len(slots)
        if m < _HIT_RUN_MIN:
            return 0
        run = tail if m == len(tail) else tail[:m]
        rset = set(run)
        if len(rset) != m:
            # A duplicate cuts the run: rescan for the first repeat.
            seen: Set[int] = set()
            seen_add = seen.add
            m = 0
            for a in run:
                if a in seen:
                    break
                seen_add(a)
                m += 1
            if m < _HIT_RUN_MIN:
                return 0
            run = run[:m]
            slots = slots[:m]
            rset = seen
        hit_lat = buf.hit_latency
        ring = self._ring
        depth = self.lsq_depth
        k = self._k % depth
        write_t = self.write_t
        # Stores never advance the backend: constant exec floor and
        # constant forwarded ready value, like the flat store loop.
        exec_t = self.exec_t
        readies: Optional[List[float]] = None
        if self._lane_grid_exact and m >= 64:
            # 64, not _EPOCH_MIN: below that the ~10 numpy dispatches
            # of the closed form cost more than the flat-in-locals
            # loop they replace (measured on the hymm/op-tiled
            # accumulate distributions, which cluster at m = 8..48).
            # Closed form (see docstring) over the at most ``depth``
            # pre-epoch ring values the run can observe:
            w = m if m < depth else depth
            S = self._ring_floor(write_t, w)
            np.add(S, self._lane_idx[:w], out=S)  # b_f for f = 1..w
            r = m - w
            if r:
                bw = float(S[w - 1])
                b0 = bw + 1.0 if bw + 1.0 >= exec_t else exec_t
                b_all = np.concatenate([S, np.arange(r, dtype=np.float64) + b0])
            else:
                b_all = S
            b_last = float(b_all[m - 1])
            if b_last + 1.0 + hit_lat < _LANE_MAG:
                # Magnitude gate passed: commit.  Only the last
                # min(m, depth) ring writes survive; their positions
                # form at most two contiguous ring segments, so the
                # fill is two C-level slice assignments.
                readies = (b_all + float(hit_lat)).tolist()
                f0 = m - depth + 1 if m > depth else 1
                wvals = b_all[f0 - 1 :] + 1.0
                np.maximum(wvals, exec_t, out=wvals)
                self._ring_write((k + f0 - 1) % depth, wvals.tolist())
                k = (k + m) % depth
                write_t = b_last
        if readies is None:
            readies = []
            rd_append = readies.append
            for _ in range(m):
                rk = ring[k]
                b = write_t + 1.0
                if rk > b:
                    b = rk
                write_t = b
                rd_append(b + hit_lat)
                r2 = b + 1.0
                if exec_t > r2:
                    r2 = exec_t
                ring[k] = r2
                k += 1
                if k == depth:
                    k = 0
        self.write_t = write_t
        self._k += m
        if self.forwarding:
            # In-batch store-map updates (the deferred window trim stays
            # at the caller's batch end, same as the flat loops).  The
            # sequential per-store effect -- existing entries refreshed
            # and moved to the MRU end, new ones appended, all with the
            # same constant ``exec_t`` value -- leaves the window as:
            # non-run survivors in their original order, then the run
            # in run order.  Deleting the overlap and bulk-appending
            # the whole run reproduces that exactly, with the Python
            # loop shrunk to the overlap instead of the full run.
            store_map = self._store_map
            spaces = self._store_spaces
            common = rset.intersection(store_map)
            nc = len(common)
            if nc:
                for a in common:
                    del store_map[a]
            store_map.update(zip(run, repeat(exec_t)))
            sp = run[0] >> _SPACE_BITS
            if sp == run[m - 1] >> _SPACE_BITS:
                # Deleted entries re-add in the same space (net zero);
                # only genuinely new addresses change the count.
                if m > nc:
                    spaces[sp] = spaces.get(sp, 0) + (m - nc)
            else:
                for a in run:
                    if a not in common:
                        sp = a >> _SPACE_BITS
                        spaces[sp] = spaces.get(sp, 0) + 1
        if partial:
            # Hits never change the partial footprint, so every per-hit
            # peak check and strided timeline sample in the run sees the
            # same value.
            stats = self.stats
            footprint = (
                buf._class_count[_PARTIAL_IDX] + len(buf._spilled_partials)
            ) * buf.line_bytes
            if footprint > stats.partial_peak_bytes:
                stats.partial_peak_bytes = footprint
            stride = stats.PARTIAL_TIMELINE_STRIDE
            timeline = stats.partial_timeline
            pp0 = stats.partials_produced
            first = pp0 + 1
            for p in range(first + (-first) % stride, pp0 + m + 1, stride):
                timeline.append((p, footprint))
            stats.partials_produced = pp0 + m
        buf._commit_hit_epoch(slots, readies)
        return m

    def _merge_miss_epoch(
        self, buf: CacheBuffer, addr_list: List[int], i: int,
        cls: str, tag: str, touched: Set[int],
    ) -> int:
        """Process a run of read-modify-write primary misses as one epoch.

        The thrash-bound merge shape (an already-touched output line
        evicted between merges): each frame is a primary read miss whose
        fill the same frame's store-back immediately hits, marking it
        dirty and raising its ready to ``max(fetch_ready, store_ready)``.

        The run starting at ``addr_list[i]`` extends over consecutive
        *distinct* touched addresses that are neither resident, pending
        nor in the forwarding window -- each one a primary miss whose
        processing cannot change the classification of the ones after
        it: a fill only adds a line the run does not revisit (the
        store-back touches only the frame's own just-filled line),
        evictions only remove lines the run never holds (victims are
        resident and run addresses are not), and the run's stores only
        *add* its own addresses to the window while trims only *remove*
        entries, so an address absent from the window at the gather
        stays absent until its own frame.  That independence is the
        epoch invariant: the timing recurrence below performs *exactly*
        the float operations of the flat ``_read_miss`` path in the same
        order -- LSQ slot floor, MSHR retire/capacity stalls against the
        monotone merged ready list, channel occupancy with the
        dirty-victim writeback interleaved at its exact position -- so
        every cycle value is bit-identical; the arena/MSHR *state*
        mutations are deferred and applied in bulk
        (:meth:`CacheBuffer._commit_epoch`, one MSHR file rebuild).

        The run is additionally capped at ``free slots + plannable
        victims`` (:meth:`CacheBuffer._plan_victims`); a capacity-capped
        epoch simply ends early and the caller retries at the cut, so
        chunking never loses coverage.  The fill readies fed to the MSHR
        file and the final slot readies differ (the store-back raises
        the latter); both sequences stay monotone, so the FIFO rebuild
        and the commit's watermark shortcut hold.  Returns addresses
        consumed (0 if below ``_EPOCH_MIN``); the caller owns every stat
        counter, exactly as it does around the flat ``_read_miss``.
        """
        slot_of = buf._slot_of
        outstanding = buf._outstanding
        fwd = self.forwarding
        store_map = self._store_map
        a = addr_list[i]
        if (
            a in slot_of
            or a in outstanding
            or a not in touched
            or (fwd and a in store_map)
        ):
            # Fast decline -- the caller probes lazily, so a cursor
            # address off the merge-miss shape is the common case; bail
            # before any allocation.
            return 0
        n = len(addr_list)
        run: List[int] = []
        seen: Set[int] = set()
        j = i
        while j < n:
            a = addr_list[j]
            if (
                a in slot_of
                or a in outstanding
                or a in seen
                or a not in touched
                or (fwd and a in store_map)
            ):
                break
            run.append(a)
            seen.add(a)
            j += 1
        m = len(run)
        if m < _EPOCH_MIN:
            return 0
        free0 = len(buf._free_slots)
        ci = CLASS_INDEX[cls]
        victims: Sequence[int] = ()
        if m > free0:
            victims = buf._plan_victims(ci, m - free0)
            cap = free0 + len(victims)
            if cap < m:
                if cap < _EPOCH_MIN:
                    return 0
                m = cap
                del run[m:]
        slot_dirty = buf._slot_dirty
        vdirty = [slot_dirty[s] for s in victims]
        fifo = buf._mshr_fifo
        merged = [r for r, _ in fifo]
        pre = len(merged)
        popped = 0
        limit = buf.mshr_entries
        c = buf._line_cost
        lat = buf._read_latency
        hit_lat = buf.hit_latency
        dram = buf.dram
        nf = dram.next_free
        ring = self._ring
        depth = self.lsq_depth
        k = self._k % depth
        issue_t = self.issue_t
        write_t = self.write_t
        exec_t = self.exec_t
        spaces = self._store_spaces
        readies: List[float] = []
        rd_append = readies.append
        mg_append = merged.append
        for idx in range(m):
            # Load leg, with the rmw backend shape -- exec waits for the
            # fetch, then one adder cycle.
            rk = ring[k]
            b = issue_t + 1.0
            if rk > b:
                b = rk
            # Retire completed misses, then stall for MSHR capacity:
            # the merged ready list is monotone (each fetch's ready is
            # strictly after its predecessor's), so retiring is a front
            # pointer and the capacity stall binds at one element.
            total = pre + idx
            while popped < total and merged[popped] <= b:
                popped += 1
            over = total - limit + 1
            if over > popped:
                mo = merged[over - 1]
                if mo > b:
                    b = mo
                popped = over
            u = nf if nf > b else b
            t = u + c
            ready = t + lat
            ev = idx - free0
            if ev >= 0 and vdirty[ev]:
                # Dirty victim: its writeback occupies the channel right
                # after this fetch (``_insert`` runs after the fetch in
                # ``_read_miss``, and its ``max(next_free, cycle)``
                # floor resolves to ``next_free`` there).
                nf = t + c
            else:
                nf = t
            mg_append(ready)
            issue_t = b
            if ready > exec_t:
                exec_t = ready
            ring[k] = exec_t
            k += 1
            if k == depth:
                k = 0
            exec_t += 1.0
            # Store leg: hits the just-filled line.
            rk = ring[k]
            b2 = write_t + 1.0
            if rk > b2:
                b2 = rk
            write_t = b2
            r = b2 + hit_lat
            rd_append(ready if ready > r else r)
            r2 = b2 + 1.0
            if exec_t > r2:
                r2 = exec_t
            ring[k] = r2
            k += 1
            if k == depth:
                k = 0
            if fwd:
                # Every run address is absent from the window until its
                # own store (see the cut argument), so this is always
                # the insert-plus-trim branch of _record_store.
                addr = run[idx]
                store_map[addr] = exec_t
                sp = addr >> _SPACE_BITS
                spaces[sp] = spaces.get(sp, 0) + 1
                if len(store_map) > depth:
                    a2, _ = store_map.popitem(last=False)
                    sp = a2 >> _SPACE_BITS
                    cnt = spaces[sp] - 1
                    if cnt:
                        spaces[sp] = cnt
                    else:
                        del spaces[sp]
        dram.next_free = nf
        self.issue_t = issue_t
        self.write_t = write_t
        self.exec_t = exec_t
        self._k += 2 * m
        # Rebuild the MSHR file with the *fetch* readies: surviving
        # entries keep FIFO==ready order because every epoch ready
        # exceeds every pre-epoch one (the channel clock is monotone).
        if popped:
            addrs_all = [a for _, a in fifo]
            addrs_all += run
            fifo.clear()
            outstanding.clear()
            rem_r = merged[popped:]
            rem_a = addrs_all[popped:]
            fifo.extend(zip(rem_r, rem_a))
            outstanding.update(zip(rem_a, rem_r))
        else:
            fetch_readies = merged[pre:]
            fifo.extend(zip(fetch_readies, run))
            outstanding.update(zip(run, fetch_readies))
        buf._commit_epoch(ci, run, readies, victims, vdirty)
        return m

    # ------------------------------------------------------------------
    # Batch primitives (inlined fast paths)
    # ------------------------------------------------------------------
    def mac_load_batch(self, addrs: np.ndarray, cls: str, tag: str) -> None:
        self._load_batch(addrs, cls, tag, True)

    def load_batch(self, addrs: np.ndarray, cls: str, tag: str) -> None:
        self._load_batch(addrs, cls, tag, False)

    def _load_batch(
        self, addrs: np.ndarray, cls: str, tag: str, mac: bool
    ) -> None:
        """The one loop behind :meth:`mac_load_batch` (``mac=True``) and
        :meth:`load_batch`.  The backend step is ``exec_t + 1.0`` for a
        MAC and ``exec_t + 0.0`` -- which is ``exec_t`` exactly -- for a
        plain fetch, so both shapes perform the scalar primitive's own
        float operations."""
        n = len(addrs)
        if n == 0:
            return
        tracer = self.tracer
        t0 = self.drain()
        stats = self.stats
        buf = self.buffer.route(cls)
        addr_list = addrs.tolist()
        fwd = self._forward_active(addr_list)
        slot_of = buf._slot_of
        slot_ready = buf._slot_ready
        ods = buf._lru_mte
        cls_arr = buf._slot_cls
        outstanding = buf._outstanding
        read_miss = buf._read_miss
        lru = buf.lru
        hit_lat = buf.hit_latency
        store_map = self._store_map
        ring = self._ring
        depth = self.lsq_depth
        step = 1.0 if mac else 0.0
        hits = 0
        misses = 0
        fetches = 0
        forwards = 0
        i = 0
        # Lane attempts are *lazy* -- no pre-classification pass over
        # the batch.  The lane verifies its own run and declines in O(1)
        # probes when the run at the cursor is short or not resident,
        # so an all-hit batch costs exactly one lane pass.  After a
        # decline the flat loop processes just the run at the cursor
        # and the lane retries, within the decline budget
        # (:func:`_flat_chunk`).
        rounds = 0 if fwd else _DECLINE_BUDGET
        while i < n:
            target = n
            if rounds and n - i >= _LANE_MIN:
                consumed = self._all_hit_lane(
                    buf, addr_list[i:] if i else addr_list, mac
                )
                if consumed:
                    hits += consumed
                    i += consumed
                    rounds = _DECLINE_BUDGET
                    continue
                rounds, target = _flat_chunk(rounds, addr_list, i, slot_of)
            k = self._k % depth
            issue_t = self.issue_t
            exec_t = self.exec_t
            for addr in addr_list[i:target]:
                slot = ring[k]
                issue = issue_t + 1.0
                if slot > issue:
                    issue = slot
                if fwd and addr in store_map:
                    ready = store_map[addr]
                    if issue > ready:
                        ready = issue
                    forwards += 1
                else:
                    s = slot_of.get(addr)
                    if s is not None:
                        if lru:
                            ods[cls_arr[s]](s)
                        hits += 1
                        ready = issue + hit_lat
                        sr = slot_ready[s]
                        if sr > ready:
                            ready = sr
                    else:
                        misses += 1
                        pending = outstanding.get(addr)
                        if pending is not None:
                            # Secondary miss: merged into the pending MSHR.
                            ready = issue + hit_lat
                            if pending > ready:
                                ready = pending
                        else:
                            fetches += 1
                            ready, issue = read_miss(issue, addr, cls, tag)
                issue_t = issue
                e = exec_t + step
                if ready > e:
                    e = ready
                exec_t = e
                ring[k] = e
                k += 1
                if k == depth:
                    k = 0
            self.issue_t = issue_t
            self.exec_t = exec_t
            self._k += target - i
            i = target
        stats.requests_issued += n
        if mac:
            stats.busy_cycles += n
        if hits:
            stats.buffer_hits[tag] += hits
        if misses:
            stats.buffer_misses[tag] += misses
        if fetches:
            stats.dram_read_bytes[tag] += fetches * buf.line_bytes
        if forwards:
            stats.lsq_forwards += forwards
        if tracer.enabled:
            tracer.span(
                "mac_load_batch" if mac else "load_batch", t0, self.drain(),
                "engine", {"n": n, "cls": cls, "tag": tag},
            )

    def mac_stream_load_batch(self, addrs: np.ndarray, cls: str, tag: str) -> None:
        n = len(addrs)
        if n == 0:
            return
        tracer = self.tracer
        t0 = self.drain()
        top = self.buffer
        buf = top.route(cls)
        addr_list = addrs.tolist()
        # One residency pass against the routed half only, straight
        # into a list the per-address loop below consumes; the
        # scalar reference consults top-level contains(), but the two
        # agree whenever no address is resident in the *other* half.
        slot_of = buf._slot_of
        res_list = list(map(slot_of.__contains__, addr_list))
        if buf is not top:
            other = (
                top.output_buffer
                if buf is top.input_buffer
                else top.input_buffer
            )
            # Split organisation: an address resident in the other half
            # hits the top-level contains() but would miss (and
            # allocate) in the routed half, changing residency mid-batch
            # and invalidating the plan -- replay exactly, one scalar
            # primitive at a time.
            oth_of = other._slot_of
            if oth_of and any(
                o and not r
                for o, r in zip(map(oth_of.__contains__, addr_list), res_list)
            ):
                AccessExecuteEngine.mac_stream_load_batch(self, addrs, cls, tag)
                return
        # Residency is invariant across the batch: hits never allocate
        # and streamed lines are never inserted, so the residency list stays true.
        stats = self.stats
        slot_ready = buf._slot_ready
        ods = buf._lru_mte
        cls_arr = buf._slot_cls
        lru = buf.lru
        hit_lat = buf.hit_latency
        store_map = self._store_map
        ring = self._ring
        depth = self.lsq_depth
        k = self._k % depth
        issue_t = self.issue_t
        exec_t = self.exec_t
        dram = self.dram
        line_bytes = buf.line_bytes
        line_cost = buf._line_cost
        slack = self._stream_slack
        hits = 0
        misses = 0
        forwards = 0
        nk = 0
        fwd = self._forward_active(addr_list)
        for addr, resident in zip(addr_list, res_list):
            if resident:
                slot = ring[k]
                issue = issue_t + 1.0
                if slot > issue:
                    issue = slot
                if fwd and addr in store_map:
                    ready = store_map[addr]
                    if issue > ready:
                        ready = issue
                    forwards += 1
                else:
                    s = slot_of[addr]
                    if lru:
                        ods[cls_arr[s]](s)
                    hits += 1
                    ready = issue + hit_lat
                    sr = slot_ready[s]
                    if sr > ready:
                        ready = sr
                issue_t = issue
                e = exec_t + 1.0
                if ready > e:
                    e = ready
                exec_t = e
                ring[k] = e
                k += 1
                if k == depth:
                    k = 0
                nk += 1
            else:
                # Stream miss: bandwidth only (DRAM.stream_read,
                # inlined; the byte counter is batched below).
                misses += 1
                issue_t += 1.0
                start = dram.next_free
                if issue_t > start:
                    start = issue_t
                end = start + line_cost
                dram.next_free = end
                throttled = end - slack
                if throttled > issue_t:
                    issue_t = throttled
                e = exec_t + 1.0
                if issue_t > e:
                    e = issue_t
                exec_t = e
        self.issue_t = issue_t
        self.exec_t = exec_t
        self._k += nk
        stats.requests_issued += n
        stats.busy_cycles += n
        if hits:
            stats.buffer_hits[tag] += hits
        if misses:
            stats.buffer_misses[tag] += misses
            stats.dram_read_bytes[tag] += misses * line_bytes
        if forwards:
            stats.lsq_forwards += forwards
        if tracer.enabled:
            tracer.span(
                "mac_stream_load_batch", t0, self.drain(), "engine",
                {"n": n, "cls": cls, "tag": tag},
            )

    def store_batch(
        self, addrs: np.ndarray, cls: str, tag: str, allocate: bool = True
    ) -> None:
        n = len(addrs)
        if n == 0:
            return
        tracer = self.tracer
        t0 = self.drain()
        stats = self.stats
        buf = self.buffer.route(cls)
        slot_of = buf._slot_of
        slot_ready = buf._slot_ready
        slot_dirty = buf._slot_dirty
        ods = buf._lru_mte
        cls_arr = buf._slot_cls
        mr = buf._max_ready
        insert = buf._insert
        dram = buf.dram
        line_cost = buf._line_cost
        lru = buf.lru
        hit_lat = buf.hit_latency
        fwd = self.forwarding
        store_map = self._store_map
        spaces = self._store_spaces
        ring = self._ring
        depth = self.lsq_depth
        addr_list = addrs.tolist()
        # Stores never advance the backend, so the forwarded ready value
        # (scalar: ``_record_store(addr, self.exec_t)``) is constant.
        exec_t = self.exec_t
        hits = 0
        misses = 0
        posted = 0
        i = 0
        # Lazy epoch attempts with a decline budget; see
        # :meth:`mac_load_batch`.  Hit runs ride `_hit_run_epoch`;
        # misses take the flat loop.
        rounds = _DECLINE_BUDGET
        while i < n:
            target = n
            if rounds and n - i >= _EPOCH_MIN:
                if n - i >= _HIT_RUN_MIN and addr_list[i] in slot_of:
                    consumed = self._hit_run_epoch(
                        buf, addr_list, i, tag, partial=False
                    )
                    if consumed:
                        hits += consumed
                        i += consumed
                        rounds = _DECLINE_BUDGET
                        continue
                rounds, target = _flat_chunk(rounds, addr_list, i, slot_of)
            k = self._k % depth
            write_t = self.write_t
            for addr in addr_list[i:target]:
                slot = ring[k]
                issue = write_t + 1.0
                if slot > issue:
                    issue = slot
                s = slot_of.get(addr)
                if s is not None:
                    hits += 1
                    slot_dirty[s] = True
                    r = issue + hit_lat
                    if r > slot_ready[s]:
                        slot_ready[s] = r
                        if r > mr:
                            mr = r
                    if lru:
                        ods[cls_arr[s]](s)
                elif allocate:
                    misses += 1
                    insert(issue, addr, cls, True, issue + hit_lat)
                else:
                    # Write-through/no-allocate: DRAM.write, inlined; the
                    # byte counter is batched below.
                    misses += 1
                    posted += 1
                    start = dram.next_free
                    if issue > start:
                        start = issue
                    dram.next_free = start + line_cost
                write_t = issue
                r2 = issue + 1.0
                if exec_t > r2:
                    r2 = exec_t
                ring[k] = r2
                k += 1
                if k == depth:
                    k = 0
                if fwd:
                    if addr in store_map:
                        store_map[addr] = exec_t
                        store_map.move_to_end(addr)
                    else:
                        store_map[addr] = exec_t
                        sp = addr >> _SPACE_BITS
                        spaces[sp] = spaces.get(sp, 0) + 1
            self.write_t = write_t
            self._k += target - i
            i = target
        if fwd:
            self._trim_window()
        if mr > buf._max_ready:
            buf._max_ready = mr
        stats.requests_issued += n
        if hits:
            stats.buffer_hits[tag] += hits
        if misses:
            stats.buffer_misses[tag] += misses
        if posted:
            stats.dram_write_bytes[tag] += posted * buf.line_bytes
        if tracer.enabled:
            tracer.span(
                "store_batch", t0, self.drain(), "engine",
                {"n": n, "cls": cls, "tag": tag},
            )

    def accumulate_store_batch(self, addrs: np.ndarray, tag: str = "partial") -> None:
        n = len(addrs)
        if n == 0:
            return
        tracer = self.tracer
        t0 = self.drain()
        stats = self.stats
        buf = getattr(self.buffer, "output_buffer", self.buffer)
        slot_of = buf._slot_of
        slot_ready = buf._slot_ready
        slot_dirty = buf._slot_dirty
        ods = buf._lru_mte
        cls_arr = buf._slot_cls
        mr = buf._max_ready
        insert = buf._insert
        lru = buf.lru
        hit_lat = buf.hit_latency
        counts = buf._class_count
        spilled = buf._spilled_partials
        line_bytes = buf.line_bytes
        stride = stats.PARTIAL_TIMELINE_STRIDE
        timeline = stats.partial_timeline
        fwd = self.forwarding
        store_map = self._store_map
        spaces = self._store_spaces
        ring = self._ring
        depth = self.lsq_depth
        addr_list = addrs.tolist()
        exec_t = self.exec_t
        hits = 0
        misses = 0
        pp = stats.partials_produced
        peak = stats.partial_peak_bytes
        # The partial footprint only changes when a line is inserted,
        # evicted or refetched -- all inside the miss branches below --
        # so it is recomputed there and cached across the hits.
        footprint = (counts[_PARTIAL_IDX] + len(spilled)) * line_bytes
        i = 0
        # Lazy epoch attempts with a decline budget; see
        # :meth:`mac_load_batch`.
        rounds = _DECLINE_BUDGET
        while i < n:
            target = n
            if rounds and n - i >= _EPOCH_MIN:
                if n - i >= _HIT_RUN_MIN and addr_list[i] in slot_of:
                    # Hit-run epoch: the epoch reproduces the per-hit
                    # footprint/timeline bookkeeping against the stats
                    # object at the constant footprint -- sync the
                    # locals around it, like the flat spilled-refetch
                    # branch does.
                    stats.partials_produced = pp
                    stats.partial_peak_bytes = peak
                    consumed = self._hit_run_epoch(
                        buf, addr_list, i, tag, partial=True
                    )
                    if consumed:
                        hits += consumed
                        pp = stats.partials_produced
                        peak = stats.partial_peak_bytes
                        i += consumed
                        rounds = _DECLINE_BUDGET
                        continue
                rounds, target = _flat_chunk(rounds, addr_list, i, slot_of)
            k = self._k % depth
            write_t = self.write_t
            for addr in addr_list[i:target]:
                slot = ring[k]
                issue = write_t + 1.0
                if slot > issue:
                    issue = slot
                pp += 1
                s = slot_of.get(addr)
                if s is not None:
                    hits += 1
                    slot_dirty[s] = True
                    r = issue + hit_lat
                    if r > slot_ready[s]:
                        slot_ready[s] = r
                        if r > mr:
                            mr = r
                    if lru:
                        ods[cls_arr[s]](s)
                    if footprint > peak:
                        peak = footprint
                    if pp % stride == 0:
                        timeline.append((pp, footprint))
                elif addr in spilled:
                    # Spilled partial: demand refetch + re-merge.  The
                    # scalar accumulate bumps partials_produced and reads/
                    # updates the peak itself: sync the locals around it.
                    stats.partials_produced = pp - 1
                    stats.partial_peak_bytes = peak
                    buf.accumulate(issue, addr, tag)
                    peak = stats.partial_peak_bytes
                    footprint = (counts[_PARTIAL_IDX] + len(spilled)) * line_bytes
                else:
                    misses += 1
                    insert(issue, addr, CLASS_PARTIAL, True, issue + hit_lat)
                    footprint = (counts[_PARTIAL_IDX] + len(spilled)) * line_bytes
                    if footprint > peak:
                        peak = footprint
                    if pp % stride == 0:
                        timeline.append((pp, footprint))
                write_t = issue
                r2 = issue + 1.0
                if exec_t > r2:
                    r2 = exec_t
                ring[k] = r2
                k += 1
                if k == depth:
                    k = 0
                if fwd:
                    if addr in store_map:
                        store_map[addr] = exec_t
                        store_map.move_to_end(addr)
                    else:
                        store_map[addr] = exec_t
                        sp = addr >> _SPACE_BITS
                        spaces[sp] = spaces.get(sp, 0) + 1
            self.write_t = write_t
            self._k += target - i
            i = target
        if fwd:
            self._trim_window()
        if mr > buf._max_ready:
            buf._max_ready = mr
        stats.partials_produced = pp
        stats.partial_peak_bytes = peak
        stats.requests_issued += n
        if hits:
            stats.buffer_hits[tag] += hits
        if misses:
            stats.buffer_misses[tag] += misses
        if tracer.enabled:
            tracer.span(
                "accumulate_store_batch", t0, self.drain(), "engine",
                {"n": n, "tag": tag},
            )

    def merge_rmw_batch(
        self,
        addrs: np.ndarray,
        cls: str,
        tag: str,
        touched: Set[int],
        track_peak: bool = False,
    ) -> None:
        n = len(addrs)
        if n == 0:
            return
        tracer = self.tracer
        t0 = self.drain()
        stats = self.stats
        buf = self.buffer.route(cls)
        slot_of = buf._slot_of
        slot_ready = buf._slot_ready
        slot_dirty = buf._slot_dirty
        ods = buf._lru_mte
        cls_arr = buf._slot_cls
        mr = buf._max_ready
        insert = buf._insert
        outstanding = buf._outstanding
        read_miss = buf._read_miss
        lru = buf.lru
        hit_lat = buf.hit_latency
        fwd = self.forwarding
        store_map = self._store_map
        spaces = self._store_spaces
        ring = self._ring
        depth = self.lsq_depth
        out_buf = getattr(self.buffer, "output_buffer", self.buffer)
        target_counts = out_buf._class_count
        target_spilled = out_buf._spilled_partials
        target_line_bytes = out_buf.line_bytes
        addr_list = addrs.tolist()
        requests = 0
        busy = 0
        hits = 0
        misses = 0
        fetches = 0
        forwards = 0
        pp = stats.partials_produced
        peak = stats.partial_peak_bytes
        # Cached like in accumulate_store_batch: only the miss branches
        # change the partial footprint.
        footprint = (
            target_counts[_PARTIAL_IDX] + len(target_spilled)
        ) * target_line_bytes
        i = 0
        # Lazy epoch attempts with a decline budget; see
        # :meth:`mac_load_batch`.  The merge-miss epoch defers the
        # per-frame peak check to one check per consumed run, which is
        # exact only while the run's footprint is monotone
        # (partial-class fills); a non-partial merge with peak tracking
        # -- no in-tree caller -- stays on the flat loop.
        rounds = _DECLINE_BUDGET if not track_peak or cls == CLASS_PARTIAL else 0
        while i < n:
            target = n
            if rounds and n - i >= _EPOCH_MIN:
                consumed = self._merge_miss_epoch(
                    buf, addr_list, i, cls, tag, touched
                )
                if consumed:
                    requests += 2 * consumed
                    busy += consumed
                    pp += consumed
                    misses += consumed
                    fetches += consumed
                    hits += consumed
                    footprint = (
                        target_counts[_PARTIAL_IDX] + len(target_spilled)
                    ) * target_line_bytes
                    if track_peak and footprint > peak:
                        peak = footprint
                    i += consumed
                    rounds = _DECLINE_BUDGET
                    continue
                rounds, target = _flat_chunk(
                    rounds, addr_list, i, slot_of, touched
                )
            k = self._k % depth
            issue_t = self.issue_t
            write_t = self.write_t
            exec_t = self.exec_t
            nk = 0
            for addr in addr_list[i:target]:
                pp += 1
                if addr in touched:
                    # rmw = load + alu_op(1) + store.
                    requests += 1
                    slot = ring[k]
                    issue = issue_t + 1.0
                    if slot > issue:
                        issue = slot
                    if fwd and addr in store_map:
                        ready = store_map[addr]
                        if issue > ready:
                            ready = issue
                        forwards += 1
                        probe = True
                        s = None
                    else:
                        probe = False
                        s = slot_of.get(addr)
                        if s is not None:
                            if lru:
                                ods[cls_arr[s]](s)
                            hits += 1
                            ready = issue + hit_lat
                            sr = slot_ready[s]
                            if sr > ready:
                                ready = sr
                        else:
                            misses += 1
                            pending = outstanding.get(addr)
                            if pending is not None:
                                # Secondary miss: merged into the pending
                                # MSHR (the line was evicted while still in
                                # flight, so it is genuinely absent and the
                                # store leg write-allocates).
                                ready = issue + hit_lat
                                if pending > ready:
                                    ready = pending
                            else:
                                fetches += 1
                                ready, issue = read_miss(issue, addr, cls, tag)
                                footprint = (
                                    target_counts[_PARTIAL_IDX] + len(target_spilled)
                                ) * target_line_bytes
                                # The read just allocated the line; the
                                # store leg below reuses it.
                                s = slot_of[addr]
                    issue_t = issue
                    if ready > exec_t:
                        exec_t = ready
                    ring[k] = exec_t
                    k += 1
                    if k == depth:
                        k = 0
                    nk += 1
                    exec_t += 1.0
                    busy += 1
                else:
                    touched.add(addr)
                    probe = True
                    s = None
                # The (write-allocating) store leg, shared by both
                # branches; nothing between the load leg's probe and here
                # can evict, so a line it found (or allocated) is reused.
                requests += 1
                slot = ring[k]
                issue = write_t + 1.0
                if slot > issue:
                    issue = slot
                if probe:
                    s = slot_of.get(addr)
                if s is not None:
                    hits += 1
                    slot_dirty[s] = True
                    r = issue + hit_lat
                    if r > slot_ready[s]:
                        slot_ready[s] = r
                        if r > mr:
                            mr = r
                    if lru:
                        ods[cls_arr[s]](s)
                else:
                    misses += 1
                    insert(issue, addr, cls, True, issue + hit_lat)
                    footprint = (
                        target_counts[_PARTIAL_IDX] + len(target_spilled)
                    ) * target_line_bytes
                write_t = issue
                r2 = issue + 1.0
                if exec_t > r2:
                    r2 = exec_t
                ring[k] = r2
                k += 1
                if k == depth:
                    k = 0
                nk += 1
                if fwd:
                    # Loads probe the window inside this batch, so the trim
                    # must happen per store, exactly as _record_store does.
                    if addr in store_map:
                        store_map[addr] = exec_t
                        store_map.move_to_end(addr)
                    else:
                        store_map[addr] = exec_t
                        sp = addr >> _SPACE_BITS
                        spaces[sp] = spaces.get(sp, 0) + 1
                        if len(store_map) > depth:
                            a, _ = store_map.popitem(last=False)
                            sp = a >> _SPACE_BITS
                            c = spaces[sp] - 1
                            if c:
                                spaces[sp] = c
                            else:
                                del spaces[sp]
                if track_peak and footprint > peak:
                    peak = footprint
            self.issue_t = issue_t
            self.write_t = write_t
            self.exec_t = exec_t
            self._k += nk
            i = target
        if mr > buf._max_ready:
            buf._max_ready = mr
        stats.partials_produced = pp
        stats.requests_issued += requests
        stats.busy_cycles += busy
        if hits:
            stats.buffer_hits[tag] += hits
        if misses:
            stats.buffer_misses[tag] += misses
        if fetches:
            stats.dram_read_bytes[tag] += fetches * buf.line_bytes
        if forwards:
            stats.lsq_forwards += forwards
        if track_peak and peak > stats.partial_peak_bytes:
            stats.partial_peak_bytes = peak
        if tracer.enabled:
            tracer.span(
                "merge_rmw_batch", t0, self.drain(), "engine",
                {"n": n, "cls": cls, "tag": tag},
            )


def make_engine(
    kind: str,
    buffer: CacheBuffer,
    dram: DRAM,
    stats: SimStats,
    **kwargs,
) -> AccessExecuteEngine:
    """Build the engine implementation ``kind`` names.

    ``"scalar"`` is the reference model (one Python call per access);
    ``"batched"`` is the cycle-exact vectorized fast path and the
    default of :class:`repro.hymm.config.HyMMConfig`.
    """
    if kind == "scalar":
        return AccessExecuteEngine(buffer, dram, stats, **kwargs)
    if kind == "batched":
        return BatchedAccessExecuteEngine(buffer, dram, stats, **kwargs)
    raise ValueError(f"unknown engine kind {kind!r}; expected one of {ENGINE_KINDS}")
