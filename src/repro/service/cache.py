"""Byte-budgeted, scan-resistant cache of materialised view column-matrices.

The catalog stores each series as immutable segment files; a query
touching a series pays one file read per segment plus the columnar
view construction (validation, sort index, per-time grouping) — one
pass over the segment list and O(n) in the tuples, yet still the bulk
of a cold statement.  Repeated
catalog-wide queries would pay that again for every series on every
statement.  :class:`MatrixCache` keeps the materialised
:class:`~repro.db.prob_view.ProbabilisticView` objects — their column
arrays are the dominant cost — under a byte budget, so a warm query is
pure numpy over already-resident arrays.

Eviction is from the cold end of one recency order, and a hit moves an
entry to the hot end.  Admission depends on pressure (the LIP/BIP
insertion policy of Qureshi et al., "Adaptive Insertion Policies for
High Performance Caching", ISCA 2007):

* an entry that fits without evicting anything goes in at the hot end,
  so a cache under budget is exactly LRU;
* an entry that needs evictions first evicts from the cold end until it
  fits, then goes in at the *cold* end — except every 32nd such
  admission, which goes in at the hot end.

A catalog-wide statement fans out over the same sorted series ids every
time.  Once that cycle is larger than the budget, plain LRU evicts each
view just before the next statement reads it again, so every statement
misses on every series.  Admitting at the cold end recycles one slot
instead: with room for k equal entries, each repeat of the cycle hits
k - 1 of them (one fewer in a repeat where a hot admission displaces an
entry still to be read).  The hot admissions age out what a changed
working set no longer reads: each one displaces the coldest resident
entry, so a new set of at most k - 1 entries read in a cycle is fully
resident within 32·k pressured admissions.

Keys carry the snapshot *generation* (segment count, tuple count, last
segment name), which changes whenever a series' stored contents change:
an append makes the old entry unreachable, and inserting the new
generation drops any stale entries for the same series.  Entries are
immutable once cached (views are read-only), so handing the same object
to many threads is safe; the cache itself is guarded by a lock, while
loader callables run *outside* it so cold misses on different series
materialise in parallel.

The same budget and recency order also hold a server's rendered replies
(:meth:`MatrixCache.reply` / :meth:`MatrixCache.put_reply`): the
canonical JSON of one statement's answer, keyed by the parsed statement
and the catalog state its plan read.  Inserting a reply drops the older
one for the same statement, as a new generation drops the old view.
Reply lookups are counted apart (``reply_*`` in :class:`CacheStats`), so
``hits`` / ``misses`` / ``entries`` / ``current_bytes`` keep describing
the materialised views alone.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass, replace
from typing import Any

from repro.db.prob_view import ProbabilisticView
from repro.exceptions import InvalidParameterError

__all__ = ["CacheStats", "MatrixCache"]

#: Key layout: (catalog root, series id, generation token, segment
#: subset, revision-frontier token).  The subset component is ``()`` for
#: the full visible segment list; a pruned plan materialises only its
#: surviving segments under the subset's names, so differently-pruned
#: views of the same generation coexist instead of evicting each other.
#: The frontier token is ``()`` on never-revised series and
#: ``("k", effective_knowledge_time)`` otherwise, so warm entries never
#: leak across ``AS OF`` points while all AS OF values that resolve to
#: the same frontier share one entry.
CacheKey = tuple[str, str, tuple, tuple, tuple]

#: First component of a reply key, ``(_REPLY, statement, state)``: a
#: tuple never equals a view key's catalog-root string.
_REPLY = ("reply",)

#: Every this-many-th admission that needs evictions goes to the hot end
#: instead of the cold end, so a new working set displaces an old one.
_HOT_EVERY = 32

#: Fixed per-entry overhead estimate (view object, index dict slots, key).
_ENTRY_OVERHEAD = 512


def view_nbytes(view: ProbabilisticView) -> int:
    """Approximate resident size of one materialised view.

    Counts the five tuple columns, the sort index and per-time grouping
    arrays, the sorted-probability shadow used for mass checks and the
    label pool — everything :class:`ProbabilisticView` keeps per tuple
    (it keeps no per-tuple objects: a :class:`~repro.db.prob_view.ProbTuple`
    is built on access and not retained).  For a view whose times arrive
    sorted (every store load of an unrevised series) this is an upper
    bound: the shadow aliases the probability column.  The charge stays
    per tuple so that what a budget holds does not depend on how a view
    was built.
    """
    cols = view.columns
    arrays = (
        cols.t, cols.low, cols.high, cols.probability, cols.label_code,
        cols.order, cols.times, cols.starts, cols.counts,
    )
    total = sum(a.nbytes for a in arrays)
    total += cols.probability.nbytes  # The _prob_sorted shadow column.
    total += sum(64 + 2 * len(label) for label in cols.labels)
    return total + _ENTRY_OVERHEAD


@dataclass
class CacheStats:
    """Counters exposed for benchmarks and the CLI's ``--stats`` output.

    ``hits`` / ``misses`` / ``entries`` / ``current_bytes`` describe the
    materialised views, ``reply_*`` the rendered replies; ``evictions``
    and ``oversize_skips`` count both, as they share one budget.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    oversize_skips: int = 0
    current_bytes: int = 0
    entries: int = 0
    reply_hits: int = 0
    reply_misses: int = 0
    reply_entries: int = 0
    reply_bytes: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def replies(self) -> dict[str, int]:
        """The reply counters under their wire names."""
        return {
            "hits": self.reply_hits,
            "misses": self.reply_misses,
            "entries": self.reply_entries,
            "bytes": self.reply_bytes,
        }


class MatrixCache:
    """Scan-resistant cache of materialised views under a byte budget.

    LRU while everything fits; an admission that needs evictions goes in
    at the cold end (every 32nd at the hot end), so a cyclic scan larger
    than the budget keeps k - 1 of the k entries it has room for instead
    of none.  Views and replies share the one order and the one rule.

    Parameters
    ----------
    budget_bytes:
        Total resident budget.  An entry that alone exceeds the budget is
        returned to the caller but not cached (counted in
        ``stats.oversize_skips``), so one giant series cannot wipe the
        cache for everything else.

    Examples
    --------
    >>> cache = MatrixCache(64 << 20)
    >>> # view = cache.get(("/cat", "room", generation, ()),
    >>> #                  snapshot.load_view)
    """

    def __init__(self, budget_bytes: int = 64 << 20) -> None:
        if budget_bytes < 1:
            raise InvalidParameterError(
                f"cache budget must be >= 1 byte, got {budget_bytes}"
            )
        self.budget_bytes = int(budget_bytes)
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, tuple[Any, int]] = OrderedDict()
        self._stats = CacheStats()
        self._pressured = 0  # Admissions that needed evictions.

    # ------------------------------------------------------------------
    # Lookup.
    # ------------------------------------------------------------------
    def get(
        self, key: CacheKey, loader: Callable[[], ProbabilisticView]
    ) -> ProbabilisticView:
        """The cached view for ``key``, loading (and caching) on a miss.

        ``loader`` runs outside the lock: concurrent misses on *different*
        keys load in parallel.  Two threads racing on the *same* key may
        both load; the second insert simply replaces the first with an
        identical value — wasted work, never inconsistency.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._stats.hits += 1
                return entry[0]
            self._stats.misses += 1
        view = loader()
        self._insert(key, view, view_nbytes(view))
        return view

    def reply(self, statement: Any, state: tuple) -> Any | None:
        """The reply cached for ``statement`` at catalog ``state``, if any."""
        key = (_REPLY, statement, state)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._stats.reply_misses += 1
                return None
            self._entries.move_to_end(key)
            self._stats.reply_hits += 1
            return entry[0]

    def put_reply(
        self, statement: Any, state: tuple, reply: Any, nbytes: int
    ) -> None:
        """Cache ``reply`` (``nbytes`` resident) for ``statement`` at ``state``."""
        self._insert((_REPLY, statement, state), reply, nbytes)

    def _insert(self, key: tuple, value: Any, nbytes: int) -> None:
        with self._lock:
            if nbytes > self.budget_bytes:
                self._stats.oversize_skips += 1
                return
            if key in self._entries:
                self._pop(key)
            # An append produced a new generation: any older generation of
            # the same series is unreachable garbage — drop it now rather
            # than waiting for budget pressure.  Same-generation entries with
            # a different segment subset stay: a pruned view and the full
            # view of one generation are both reachable.  For a reply the
            # same rule drops the statement's reply for an older state.
            stale = [
                other
                for other in self._entries
                if other[0] == key[0]
                and other[1] == key[1]
                and other[2] != key[2]
            ]
            for other in stale:
                self._pop(other)
                self._stats.evictions += 1
            # Plain LRU while the entry fits; otherwise make room from the
            # cold end and admit there (the module docstring says why).
            pressured = not self._fits(nbytes)
            while not self._fits(nbytes):
                self._pop(next(iter(self._entries)))
                self._stats.evictions += 1
            self._entries[key] = (value, nbytes)
            self._count(key, nbytes, 1)
            if pressured:
                self._pressured += 1
                if self._pressured % _HOT_EVERY:
                    self._entries.move_to_end(key, last=False)

    def _fits(self, nbytes: int) -> bool:
        """Whether ``nbytes`` more fit in the budget (lock held)."""
        resident = self._stats.current_bytes + self._stats.reply_bytes
        return resident + nbytes <= self.budget_bytes

    def _pop(self, key: tuple) -> None:
        """Remove one entry and its bytes (lock held)."""
        _, nbytes = self._entries.pop(key)
        self._count(key, -nbytes, -1)

    def _count(self, key: tuple, nbytes: int, entries: int) -> None:
        """Move the byte and entry totals of ``key``'s kind (lock held)."""
        if key[0] is _REPLY:
            self._stats.reply_bytes += nbytes
            self._stats.reply_entries += entries
        else:
            self._stats.current_bytes += nbytes
            self._stats.entries += entries

    # ------------------------------------------------------------------
    # Introspection / maintenance.
    # ------------------------------------------------------------------
    def register_metrics(self, registry):
        """Export this cache's counters as scrape-time gauges.

        Registers a collector on ``registry`` that copies the current
        :class:`CacheStats` into ``repro_cache_*`` and
        ``repro_reply_cache_*`` gauges (labelled ``scope="service"``: the
        query service that owns the cache) right before every
        snapshot/exposition — cache state is external fact, not an event
        stream, so it is sampled rather than incremented.  Returns the
        collector; pass it to ``registry.unregister_collector`` when the
        cache's owner shuts down, or the shared registry keeps scraping a
        dead cache.
        """
        hits = registry.gauge(
            "repro_cache_hits", "Matrix-cache lookup hits"
        )
        misses = registry.gauge(
            "repro_cache_misses", "Matrix-cache lookup misses"
        )
        evictions = registry.gauge(
            "repro_cache_evictions", "Matrix-cache LRU/stale evictions"
        )
        entries = registry.gauge(
            "repro_cache_entries", "Matrix-cache resident entries"
        )
        resident = registry.gauge(
            "repro_cache_bytes", "Matrix-cache resident bytes"
        )
        replies = {
            name: registry.gauge(
                f"repro_reply_cache_{name}", f"Reply-cache {description}"
            )
            for name, description in (
                ("hits", "lookup hits"),
                ("misses", "lookup misses"),
                ("entries", "resident entries"),
                ("bytes", "resident bytes"),
            )
        }

        def collect() -> None:
            stats = self.stats
            hits.set(stats.hits, scope="service")
            misses.set(stats.misses, scope="service")
            evictions.set(stats.evictions, scope="service")
            entries.set(stats.entries, scope="service")
            resident.set(stats.current_bytes, scope="service")
            for name, value in stats.replies().items():
                replies[name].set(value, scope="service")

        registry.register_collector(collect)
        return collect

    @property
    def stats(self) -> CacheStats:
        """A consistent copy of the counters (safe to read while queried)."""
        with self._lock:
            return replace(self._stats)

    def clear(self) -> None:
        """Drop every entry (counters other than bytes/entries persist)."""
        with self._lock:
            self._entries.clear()
            self._stats.current_bytes = 0
            self._stats.entries = 0
            self._stats.reply_bytes = 0
            self._stats.reply_entries = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        stats = self.stats
        return (
            f"MatrixCache(budget={self.budget_bytes}, "
            f"entries={stats.entries}, bytes={stats.current_bytes}, "
            f"hit_rate={stats.hit_rate:.1%})"
        )
