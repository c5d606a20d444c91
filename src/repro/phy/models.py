"""Pluggable interference models (S39): protocol vs SINR backends.

An :class:`InterferenceModel` builds the conflict relation the
scheduler works on, a :class:`~repro.core.conflict.ConflictIndex`.  It is
the one way to name that relation: every entry point above the row
builder (``Scenario``, ``SolverEngine.conflict_index``, admission,
repair, mobility, the QoS planner, the DCF baseline, the containment
validator) takes ``interference=`` -- ``None`` for the 802.16 mesh
default ``ProtocolModel(hops=2)``, or a model -- and
:func:`coerce_interference` is the single boundary check.

Two backends ship:

- :class:`ProtocolModel` -- the k-hop protocol model of
  :func:`repro.core.conflict.conflict_graph`, **bitwise-identical** to
  that row builder: its :meth:`~ProtocolModel.cache_token` is the bare
  hops integer, so engine cache keys and indexes are those of a direct
  build (property-tested in ``tests/test_property_interference.py``).
- :class:`SinrModel` -- physical-model interference from node positions:
  a log-distance :class:`PathLossModel` maps TX power to a pairwise RSS
  matrix; two links conflict iff a concurrent transmission drops either
  intended reception below the SINR threshold of that link's current MCS
  (adaptive, from an :class:`McsTable` with hysteresis, as in the SiNE
  emulator line).  A carrier-sense range multiplier wider than the
  communication range yields :meth:`~SinrModel.hidden_node_pairs` and the
  channel couplings the DCF baseline replays
  (:meth:`~SinrModel.channel_couplings`).

:mod:`repro.phy.interference` is the containment validator between the
backends: ``uncovered_interference(topology, truth=sinr_model)``
lists the physically interfering pairs the protocol model fails to
separate.  See ``docs/interference.md`` for the full guide.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro import obs
from repro.core.conflict import (
    ConflictIndex,
    _check_hops,
    _resolve_links,
    conflict_graph,
)
from repro.errors import ConfigurationError
from repro.net.topology import Link, MeshTopology

#: SiNE-style defaults: 100 mW radios, thermal noise floor for a 20 MHz
#: 802.11 channel, carrier-sense range ~2.5x the communication range and
#: 2 dB of rate-adaptation hysteresis.
DEFAULT_TX_POWER_DBM = 20.0
DEFAULT_NOISE_FLOOR_DBM = -96.0
DEFAULT_CS_MULTIPLIER = 2.5
DEFAULT_HYSTERESIS_DB = 2.0


def _dbm_to_mw(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


def _mw_to_dbm(mw: float) -> float:
    return 10.0 * math.log10(mw)


class PathLossModel:
    """Log-distance path loss: ``L(d) = L0 + 10 n log10(d / d0)`` dB.

    Parameters
    ----------
    exponent:
        Path-loss exponent ``n`` (2 = free space; 3-4 = urban outdoor).
    ref_loss_db:
        Loss ``L0`` at the reference distance (~40 dB at 1 m for 2.4 GHz).
    ref_distance_m:
        Reference distance ``d0``; receivers closer than this see ``L0``.
    """

    def __init__(self, exponent: float = 3.0, ref_loss_db: float = 40.0,
                 ref_distance_m: float = 1.0) -> None:
        if exponent <= 0:
            raise ConfigurationError(
                f"path-loss exponent must be positive, got {exponent}")
        if ref_distance_m <= 0:
            raise ConfigurationError(
                f"reference distance must be positive, got {ref_distance_m}")
        self.exponent = float(exponent)
        self.ref_loss_db = float(ref_loss_db)
        self.ref_distance_m = float(ref_distance_m)

    def loss_db(self, distance_m: float) -> float:
        """Path loss over ``distance_m`` (clamped at the reference)."""
        d = max(float(distance_m), self.ref_distance_m)
        return (self.ref_loss_db
                + 10.0 * self.exponent * math.log10(d / self.ref_distance_m))

    def rss_dbm(self, tx_power_dbm: float, distance_m: float) -> float:
        """Received signal strength for a transmitter at ``distance_m``."""
        return tx_power_dbm - self.loss_db(distance_m)

    def range_m(self, tx_power_dbm: float, sensitivity_dbm: float) -> float:
        """Largest distance at which RSS still meets ``sensitivity_dbm``."""
        margin_db = tx_power_dbm - self.ref_loss_db - sensitivity_dbm
        if margin_db < 0:
            return 0.0
        return (self.ref_distance_m
                * 10.0 ** (margin_db / (10.0 * self.exponent)))

    def params(self) -> tuple:
        return (self.exponent, self.ref_loss_db, self.ref_distance_m)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PathLossModel(exponent={self.exponent}, "
                f"ref_loss_db={self.ref_loss_db})")


@dataclass(frozen=True)
class McsEntry:
    """One row of an MCS table: a named rate usable above an SINR floor."""

    name: str
    sinr_min_db: float
    rate_bps: int

    def __post_init__(self) -> None:
        if self.rate_bps <= 0:
            raise ConfigurationError(
                f"MCS {self.name!r}: rate must be positive")


class McsTable:
    """An ordered modulation/coding table with hysteretic selection.

    Entries are kept sorted by SINR threshold; rates must increase with
    the threshold (a higher MCS that is both slower and more fragile is a
    configuration error).  :meth:`select` implements the SiNE-style
    debounce: a link only *upgrades* once its SINR clears the next
    threshold by ``hysteresis_db``, and only *downgrades* once it falls
    below its current threshold -- oscillation around a boundary holds
    the current rate.
    """

    def __init__(self, entries: Iterable[McsEntry]) -> None:
        ordered = sorted(entries, key=lambda e: e.sinr_min_db)
        if not ordered:
            raise ConfigurationError("MCS table needs at least one entry")
        for lo, hi in zip(ordered, ordered[1:]):
            if hi.sinr_min_db == lo.sinr_min_db:
                raise ConfigurationError(
                    f"duplicate SINR threshold {hi.sinr_min_db} dB "
                    f"({lo.name!r} vs {hi.name!r})")
            if hi.rate_bps <= lo.rate_bps:
                raise ConfigurationError(
                    f"MCS {hi.name!r} is above {lo.name!r} in SINR but "
                    "not in rate; rates must increase with the threshold")
        self.entries: tuple[McsEntry, ...] = tuple(ordered)

    @classmethod
    def from_rows(cls, rows: Iterable[tuple]) -> "McsTable":
        """Build from ``(name, sinr_min_db, rate_bps)`` rows (CSV-style)."""
        return cls(McsEntry(str(n), float(s), int(r)) for n, s, r in rows)

    @classmethod
    def default(cls) -> "McsTable":
        """A compact 802.11a/g-flavoured table (see docs/interference.md)."""
        return cls.from_rows([
            ("6M", 10.0, 6_000_000),
            ("12M", 14.0, 12_000_000),
            ("24M", 18.0, 24_000_000),
            ("36M", 22.0, 36_000_000),
            ("48M", 26.0, 48_000_000),
            ("54M", 28.0, 54_000_000),
        ])

    @property
    def floor_db(self) -> float:
        """The lowest decodable SINR: below this nothing gets through."""
        return self.entries[0].sinr_min_db

    def best(self, sinr_db: float) -> Optional[McsEntry]:
        """The fastest entry usable at ``sinr_db`` (None below the floor)."""
        chosen = None
        for entry in self.entries:
            if sinr_db >= entry.sinr_min_db:
                chosen = entry
            else:
                break
        return chosen

    def select(self, sinr_db: float, current: Optional[McsEntry],
               hysteresis_db: float = DEFAULT_HYSTERESIS_DB
               ) -> Optional[McsEntry]:
        """Hysteretic rate choice given the previous assignment."""
        raw = self.best(sinr_db)
        if current is None or current not in self.entries:
            return raw
        if raw is None:
            return None  # below the floor: nothing decodes, hysteresis or not
        if raw.rate_bps > current.rate_bps:
            # Upgrade only once the *target* threshold clears by the margin.
            if sinr_db >= raw.sinr_min_db + hysteresis_db:
                return raw
            upgraded = current
            for entry in self.entries:
                if (entry.rate_bps > upgraded.rate_bps
                        and sinr_db >= entry.sinr_min_db + hysteresis_db):
                    upgraded = entry
            return upgraded
        if raw.rate_bps < current.rate_bps:
            return raw  # SINR fell below the current threshold: downgrade
        return current

    def params(self) -> tuple:
        return tuple((e.name, e.sinr_min_db, e.rate_bps)
                     for e in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


class InterferenceModel:
    """The seam: anything that can build a conflict relation for a mesh.

    Implementations provide :meth:`conflict_graph` (a
    :class:`~repro.core.conflict.ConflictIndex` over sorted directed
    links, like :func:`repro.core.conflict.conflict_graph`'s) and
    :meth:`cache_token`, the value the engine keys its index LRU by.
    Tokens must change whenever the relation could: for
    :class:`ProtocolModel` the bare hops integer suffices (connectivity
    is already in the key); an :class:`SinrModel` folds in its
    parameters, the node positions and the current MCS assignment.
    """

    kind: str = "abstract"

    def conflict_graph(self, topology: MeshTopology,
                       links: Optional[Sequence[Link]] = None
                       ) -> ConflictIndex:
        raise NotImplementedError

    def cache_token(self, topology: MeshTopology) -> object:
        raise NotImplementedError

    def describe(self) -> str:
        return self.kind


class ProtocolModel(InterferenceModel):
    """The k-hop protocol model (802.16 mesh default: ``hops=2``).

    The engine keys it by the bare hops integer and builds it with the
    row builder :func:`~repro.core.conflict.conflict_graph`, so its CSR
    arrays and conflict edges are those of
    ``conflict_graph(topology, hops=k)`` to the letter.
    """

    kind = "protocol"

    def __init__(self, hops: int = 2) -> None:
        _check_hops(hops)
        self.hops = hops

    def conflict_graph(self, topology: MeshTopology,
                       links: Optional[Sequence[Link]] = None
                       ) -> ConflictIndex:
        return conflict_graph(topology, hops=self.hops, links=links)

    def cache_token(self, topology: MeshTopology) -> object:
        # The bare integer: the engine keys a protocol index by hops.
        return self.hops

    def describe(self) -> str:
        return f"protocol(hops={self.hops})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProtocolModel(hops={self.hops})"


@dataclass(frozen=True)
class ChannelCouplings:
    """Extra node couplings a physical model implies beyond the graph.

    ``sense_pairs`` are undirected non-neighbour pairs within carrier-sense
    range of each other: each senses the other's transmissions as a busy
    medium without decoding them.  ``jam_pairs`` are directed
    ``(interferer, victim)`` non-neighbour pairs whose transmissions
    corrupt receptions in progress at the victim.  Feed them to
    :meth:`repro.phy.channel.BroadcastChannel.set_physical_couplings` to
    run the DCF baseline under physical-model interference.
    """

    sense_pairs: frozenset[tuple[int, int]]
    jam_pairs: frozenset[tuple[int, int]]


class SinrModel(InterferenceModel):
    """Physical-model interference from positions, path loss and SINR.

    Parameters
    ----------
    path_loss:
        The :class:`PathLossModel` (default: exponent-3 log-distance).
    tx_power_dbm, noise_floor_dbm:
        Uniform radio parameters; the pairwise RSS matrix is
        ``tx_power - loss(distance)``.
    mcs:
        The :class:`McsTable` rates adapt over (default:
        :meth:`McsTable.default`).
    hysteresis_db:
        Rate-adaptation debounce margin (see :meth:`McsTable.select`).
    cs_multiplier:
        Carrier-sense range as a multiple of the communication range
        (the SiNE default is 2.5; 1.0 collapses sensing to decode range
        and maximises hidden nodes).

    Two links conflict iff they share a radio, or a concurrent
    transmission drops either intended reception below the SINR
    threshold of that link's *current* MCS.  The topology must carry
    positions (every generator in :mod:`repro.net.topology` records
    them); the connectivity graph stays authoritative for who can
    decode whom -- the model only decides who *interferes*.
    """

    kind = "sinr"

    def __init__(self, path_loss: Optional[PathLossModel] = None,
                 tx_power_dbm: float = DEFAULT_TX_POWER_DBM,
                 noise_floor_dbm: float = DEFAULT_NOISE_FLOOR_DBM,
                 mcs: Optional[McsTable] = None,
                 hysteresis_db: float = DEFAULT_HYSTERESIS_DB,
                 cs_multiplier: float = DEFAULT_CS_MULTIPLIER) -> None:
        if hysteresis_db < 0:
            raise ConfigurationError("hysteresis_db must be non-negative")
        if cs_multiplier < 1.0:
            raise ConfigurationError(
                f"cs_multiplier must be >= 1.0 (sense at least the "
                f"communication range), got {cs_multiplier}")
        self.path_loss = path_loss if path_loss is not None else PathLossModel()
        self.tx_power_dbm = float(tx_power_dbm)
        self.noise_floor_dbm = float(noise_floor_dbm)
        self.mcs = mcs if mcs is not None else McsTable.default()
        self.hysteresis_db = float(hysteresis_db)
        self.cs_multiplier = float(cs_multiplier)
        if self.path_loss.range_m(self.tx_power_dbm,
                                  self.noise_floor_dbm
                                  + self.mcs.floor_db) <= 0:
            raise ConfigurationError(
                "radio cannot decode the lowest MCS at any distance; "
                "raise tx_power_dbm or lower the MCS floor")
        #: Current per-link MCS assignment (the hysteresis state).
        self._assigned: dict[Link, McsEntry] = {}

    # -- geometry ----------------------------------------------------------

    def _require_positions(self, topology: MeshTopology) -> None:
        if not topology.has_positions:
            raise ConfigurationError(
                f"SinrModel needs node positions, but topology "
                f"{topology.name!r} has none (every generator in "
                "repro.net.topology records them; pass positions= to "
                "MeshTopology/from_edges)")

    def rss_dbm(self, topology: MeshTopology, tx: int, rx: int) -> float:
        """Received signal strength of ``tx`` at ``rx``."""
        return self.path_loss.rss_dbm(self.tx_power_dbm,
                                      topology.distance(tx, rx))

    def snr_db(self, topology: MeshTopology, link: Link) -> float:
        """Interference-free SNR of a directed link."""
        return (self.rss_dbm(topology, link[0], link[1])
                - self.noise_floor_dbm)

    def sinr_db(self, topology: MeshTopology, link: Link,
                interferer: int) -> float:
        """SINR at ``link``'s receiver with ``interferer`` transmitting."""
        signal_mw = _dbm_to_mw(self.rss_dbm(topology, link[0], link[1]))
        floor_mw = (_dbm_to_mw(self.noise_floor_dbm)
                    + _dbm_to_mw(self.rss_dbm(topology, interferer,
                                              link[1])))
        return _mw_to_dbm(signal_mw) - _mw_to_dbm(floor_mw)

    def communication_range_m(self) -> float:
        """Distance at which the lowest MCS stops decoding."""
        return self.path_loss.range_m(
            self.tx_power_dbm, self.noise_floor_dbm + self.mcs.floor_db)

    def carrier_sense_range_m(self) -> float:
        return self.cs_multiplier * self.communication_range_m()

    # -- adaptive MCS ------------------------------------------------------

    def link_rates(self, topology: MeshTopology,
                   links: Optional[Sequence[Link]] = None
                   ) -> dict[Link, McsEntry]:
        """Hysteretic per-link MCS assignment from the current geometry.

        Repeated calls carry the previous assignment forward: a link's
        rate only upgrades once its SNR clears the next threshold by
        ``hysteresis_db`` and only downgrades once it falls below the
        current one, so motion near a boundary does not flap the rate.
        Links whose SNR is below the table floor pin to the lowest entry
        (the connectivity graph says they decode; the model charges them
        the most robust rate).  ``phy.sinr.mcs_switches`` counts
        assignment changes; ``phy.sinr.hysteresis_suppressions`` counts
        raw-best choices the debounce overrode.
        """
        self._require_positions(topology)
        link_list = (list(topology.links) if links is None
                     else sorted(set(links)))
        switches = suppressed = 0
        out: dict[Link, McsEntry] = {}
        for link in link_list:
            snr = self.snr_db(topology, link)
            current = self._assigned.get(link)
            chosen = self.mcs.select(snr, current, self.hysteresis_db)
            if chosen is None:
                chosen = self.mcs.entries[0]
            if chosen != self.mcs.best(snr) and self.mcs.best(snr) is not None:
                suppressed += 1
            if current is not None and chosen != current:
                switches += 1
            self._assigned[link] = chosen
            out[link] = chosen
        if switches:
            obs.counter("phy.sinr.mcs_switches").inc(switches)
        if suppressed:
            obs.counter("phy.sinr.hysteresis_suppressions").inc(suppressed)
        return out

    # -- the conflict relation --------------------------------------------

    def conflict_graph(self, topology: MeshTopology,
                       links: Optional[Sequence[Link]] = None
                       ) -> ConflictIndex:
        """Links that cannot share a slot under physical interference.

        Same conventions as :func:`repro.core.conflict.conflict_graph`:
        sorted links, sorted rows, subset links validated against the
        topology.
        """
        self._require_positions(topology)
        link_list = _resolve_links(topology, links)
        rates = self.link_rates(topology, link_list)
        rows: list[list[int]] = [[] for _ in link_list]
        for i, a in enumerate(link_list):
            for j in range(i + 1, len(link_list)):
                if self._conflict(topology, a, link_list[j], rates):
                    rows[i].append(j)
                    rows[j].append(i)
        index = ConflictIndex(link_list, rows)
        obs.counter("phy.sinr.conflict_edges").inc(index.num_conflicts)
        return index

    def _conflict(self, topology: MeshTopology, a: Link, b: Link,
                  rates: dict[Link, McsEntry]) -> bool:
        if set(a) & set(b):
            return True  # a radio cannot do two things at once
        return (self.sinr_db(topology, a, b[0]) < rates[a].sinr_min_db
                or self.sinr_db(topology, b, a[0]) < rates[b].sinr_min_db)

    def hidden_node_pairs(self, topology: MeshTopology,
                          links: Optional[Sequence[Link]] = None
                          ) -> list[tuple[Link, Link]]:
        """Interfering link pairs whose transmitters cannot sense each other.

        These are the DCF failure mode: carrier sense never defers the
        two transmitters (they are beyond carrier-sense range of each
        other), yet their concurrent transmissions corrupt at least one
        intended reception.  Shrinking ``cs_multiplier`` grows this set;
        E23 sweeps it.  Counted on ``phy.sinr.hidden_pairs``.
        """
        self._require_positions(topology)
        cs_range = self.carrier_sense_range_m()
        pairs = []
        for a, b in self.conflict_graph(topology, links).pairs():
            if set(a) & set(b):
                continue
            if topology.distance(a[0], b[0]) > cs_range:
                pairs.append((a, b))
        if pairs:
            obs.counter("phy.sinr.hidden_pairs").inc(len(pairs))
        return pairs

    def channel_couplings(self, topology: MeshTopology) -> ChannelCouplings:
        """The extra sense/jam node pairs the DCF channel should replay.

        Derived from the same physics as :meth:`conflict_graph`:
        non-neighbour node pairs within carrier-sense range become
        ``sense_pairs``; for every physically conflicting link pair, the
        non-neighbour transmitter that drops an intended reception below
        its MCS threshold becomes a directed ``jam_pair`` against that
        receiver.  Transmissions between graph neighbours already
        collide natively in the channel, so only the extras appear here.
        """
        self._require_positions(topology)
        cs_range = self.carrier_sense_range_m()
        nodes = topology.nodes
        sense: set[tuple[int, int]] = set()
        for i, u in enumerate(nodes):
            for v in nodes[i + 1:]:
                if v in topology.rows[u]:
                    continue
                if topology.distance(u, v) <= cs_range:
                    sense.add((u, v))
        rates = self.link_rates(topology)
        jam: set[tuple[int, int]] = set()
        for link in topology.links:
            threshold = rates[link].sinr_min_db
            receiver = link[1]
            neighbours = {*topology.rows[receiver], receiver}
            for interferer in nodes:
                if interferer in neighbours:
                    continue
                if self.sinr_db(topology, link, interferer) < threshold:
                    jam.add((interferer, receiver))
        return ChannelCouplings(sense_pairs=frozenset(sense),
                                jam_pairs=frozenset(jam))

    # -- mobility unification ---------------------------------------------

    def radio_range_model(self, hysteresis: float = 0.1):
        """The :class:`~repro.mobility.stream.RadioRangeModel` this
        physics implies: disk connectivity at the communication range,
        debounced.  ``TopologyStream(motion, radio=sinr_model)`` calls
        this, so motion and SINR share one path-loss model.
        """
        from repro.mobility.stream import RadioRangeModel

        return RadioRangeModel.from_path_loss(
            self.path_loss, self.tx_power_dbm,
            self.noise_floor_dbm + self.mcs.floor_db,
            hysteresis=hysteresis)

    # -- engine integration ------------------------------------------------

    def params(self) -> tuple:
        return ("sinr", self.path_loss.params(), self.tx_power_dbm,
                self.noise_floor_dbm, self.mcs.params(),
                self.hysteresis_db, self.cs_multiplier)

    def cache_token(self, topology: MeshTopology) -> object:
        """Content token for the engine's index cache.

        Folds in the model parameters, the node positions (the topology
        rows in the cache key cover connectivity only) and the
        current hysteretic MCS assignment, so a cached index is only
        served while the physics that built it still hold.
        """
        self._require_positions(topology)
        digest = hashlib.sha256()
        digest.update(repr(self.params()).encode())
        digest.update(repr(sorted(topology.positions.items())).encode())
        assignment = self.link_rates(topology)
        digest.update(repr([(link, entry.name)
                            for link, entry in sorted(assignment.items())
                            ]).encode())
        return ("sinr", digest.hexdigest()[:16])

    def describe(self) -> str:
        return (f"sinr(n={self.path_loss.exponent}, "
                f"tx={self.tx_power_dbm}dBm, cs={self.cs_multiplier}x)")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SinrModel({self.describe()})"


def coerce_interference(value) -> InterferenceModel:
    """The boundary check for every public ``interference=`` argument.

    ``None`` -> ``ProtocolModel(hops=2)``, the 802.16 mesh default; a
    model passes through.  Anything else -- a bare hops integer, a bool,
    a string -- raises :class:`~repro.errors.ConfigurationError`.
    """
    if value is None:
        return ProtocolModel(2)
    if isinstance(value, InterferenceModel):
        return value
    raise ConfigurationError(
        f"interference= takes an InterferenceModel such as "
        f"ProtocolModel(hops=k) or SinrModel(...), or None for "
        f"ProtocolModel(hops=2); got {value!r}")
