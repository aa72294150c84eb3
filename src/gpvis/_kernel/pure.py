"""Pure-Python kernel: bitset visibility tests and maximum-set search.

This module is the semantic reference for the compiled kernel; both must
agree on every output.  Graphs arrive as plain data: ``adj`` is a sequence
of per-vertex neighbor bitmasks, ``dist`` a flat n*n distance table.
Property kinds are the integer codes MV, OUTER, TOTAL, GP below.

Set checks.  ``set_ok`` checks MV, OUTER and TOTAL with one sweep of the
distance layers per source u: each member of S, or every vertex for
TOTAL.  The sweep keeps reach, the vertices at distance t that some
u-geodesic reaches with no member of S strictly inside it; only u and
the reached vertices outside S carry the walk to layer t + 1.  (When
they are all of layer t, they reach all of layer t + 1, which is then
taken without a walk.)  By induction on t, u sees v exactly when v is
in reach at layer d(u, v), so one sweep answers every pair of u at
once.  Visibility is symmetric, so
the sweep from u wants only the vertices above u that the kind pairs
with it: the members of S for MV, every vertex for OUTER and TOTAL;
OUTER also wants the vertices outside S below u.  The sweep checks each
wanted vertex at its own layer and stops once none lies further out.
A vertex in another component lies in no layer and is not checked, so
such a pair counts as seen.  Each vertex is expanded at most once per
source, so a check costs O(|S|·n) row ORs (O(n²) for TOTAL) where a
walk per pair cost O(|S|²) or O(n²) walks.  A twin of an earlier source
does not sweep (see Twin classes below).  ``pair_visible`` is the
same sweep from u, wanting v alone, and the search's filter below runs
it too: the sweep is the kernel's only visibility walk.  GP needs no
walk: its triples are read from the distances.

Search notes.  All four properties are hereditary (every subset of a good
set is good), so the solver explores subsets along a fixed vertex order
(descending degree, ties by index) and keeps at each node only the
candidates that extend the current set.  A node's loop stops once
``|current| + |candidates left| <= incumbent``.  A child is entered
only when it can beat the incumbent, with at least
``need = incumbent - |current|`` candidates of its own, the check that
MCS and BBMC make before they expand a child (Tomita et al. 2010; San
Segundo et al. 2011).  The filter takes ``need`` and stops as soon as
fewer can survive (after a cut, an MV partner sweep or a dropped OUTER
candidate that leaves fewer), so a dead child costs part of a filter
and no node.  ``enumerate_exact`` passes the same threshold.

``solve_max``, ``greedy_set`` and ``enumerate_exact`` run on a copy of
the graph relabelled so that this order becomes 0..n-1 (the renumbering
of BBMC, San Segundo et al. 2011).  Every candidate set is then a plain
int mask whose lowest bit is the next vertex in the search order; the
bound reads ``bit_count()``, and each returned mask is mapped back to
the caller's labels.  The copy (``_Tables``) is a record (see Inputs) of
its own distance tuple, and so reads its rows, ball rows and twin
classes off it.  It owns its tables, each built on first use, the
checked symmetries it was last given with their orbits, and the
search's memo; only the latest copy is kept: the solves of one graph,
of every kind, and their greedy seeds share one build of each.

A node's candidates are filtered once per child from two facts the search
already holds: S ∪ {w} has the property (w was a candidate of S), and so
has S ∪ {x} for every remaining candidate x.  Whether u and v see each
other depends only on which vertices of their geodesic interval (the
vertices strictly inside some u,v-geodesic) are blocked.  So a pair that
S ∪ {w, x} requires is settled without a test when S ∪ {w} required it
and x lies outside its interval: its blocked part is the one S ∪ {w}
already passed.  The same holds with w and x swapped.  Only the pairs
that neither side settles are tested, which makes the filter exact:

- GP: the triples {s, w, x}, s in S: x must avoid pairbad[w][s].  No
  mask of S's own forbidden vertices is carried, since every candidate
  already avoids it.
- MV: (w, x); (s, w) when x is in its interval; (s, x) when w is in its
  interval; (s, t) in S when both are.
- OUTER: (s, y), y in S or outside S ∪ {w, x}, when both w and x are in
  its interval; (w, z) when x is, and (x, z) when w is, for z outside.
  (s, w), (s, x) and (w, x) keep their blocked part on both sides.
- TOTAL: the pairs whose interval holds both w and x.

A pair (u, v) that S ∪ {w} requires and x must not break (every pair
above but those with x as an end) is settled for all candidates at once
by its cut: the interior vertices on every u,v-geodesic that avoids
S ∪ {w}.  One forward and one backward pass over the geodesic layers
give the alive vertices of each layer (reached from u and reaching v);
the cut is the union of the layers with exactly one alive vertex.  This
is exact: each geodesic meets each layer once, and the pair sees itself
under S ∪ {w}, so blocking x hides v from u iff x is the only alive
vertex of its layer.  Two layers are read off the ball rows: layer 1
lies in N(u), so its alive part is balls[u][1] & balls[v][d - 1] less
the blocked vertices, and layer d - 1 lies in N(v), so all of its alive
part reaches v, and the backward pass starts there.  A pair at distance
2 needs no walk at all.  The cuts are ORed into one mask of forbidden
candidates, as GP does with pairbad.  Only the pairs with x as an end
are left.  For MV they are (x, y) for y = w, and for the y in S whose
interval with x holds w; one layer sweep per y in S ∪ {w}, as
``set_ok`` sweeps, with S ∪ {w} blocked, settles all of y's pairs at
once (x is an end of its pair, so it need not be blocked).  A candidate
x sees w at sight when no member lies strictly inside any w,x-geodesic,
that is, when x is outside the union of inw[s][w] over the members s;
the members' sweeps gather that union, and w sweeps last, only for the
candidates left in it.  For OUTER they are (x, y) for the y outside
S ∪ {w, x} whose interval with x holds w: one sweep from each candidate
x, with S ∪ {w} blocked, reaches all of them or drops x.

The filter finds these pairs in the reverse-interval table
inw[w][x] = {y : w ∈ btw[x][y]} instead of scanning every member pair
and every partner: the (s, y) pairs whose interval holds w are the y in
inw[w][s], and the partners of candidate x are the y in inw[w][x] (in S
for MV, outside S ∪ {w} for OUTER).  inw is btw read the other way
round, so it names exactly the pairs a scan would, and the filter stays
exact.  MV and OUTER walk their pairs source by source, with no list,
and look a pair's cut up only when its interval still holds a
candidate.  Both tables are unions of ball intersections: btw[u][v] of
the interval layers balls[u][t] & balls[v][d(u,v) - t], and inw[w][x] of
balls[x][k] & balls[w][k - d(x,w)] for k > d(x,w).  GP's pairbad[u][v]
is btw[u][v] | inw[v][u] | inw[u][v]: the vertices between u and v,
beyond v from u, and beyond u from v.  TOTAL's pairs through w do not
depend on S, so each w's list is built once per copy.

The copy keeps a memo of the cuts, keyed by (u, v, blocked & btw[u][v])
with u < v, since visibility is symmetric and a pair's cut depends on
nothing else.  So one memo is exact for every kind and every run on the
copy, and lives as long as the copy: a solve reads the cuts that its
greedy seed, on the tree's leftmost path, has just made.

This filter is the kernel's only one.  The greedy seed (``greedy_set``,
which ``solve_max`` calls when it is given no start set) is the search
tree's leftmost path: it takes the first candidate and filters the rest
against it, and heredity makes that the plain sweep, since a candidate
dropped once fails every superset.  The roots are the w for which {w}
has the property: every vertex, but for TOTAL none in a pair's cut
under the empty set.  With nothing blocked, a cut is the union of the
pair's interval layers that hold one vertex, so TOTAL's roots come from
the ball rows without a walk, once per copy, and a solve shares them
with its seed.

Start set.  ``solve_max`` may be given a set with the property, checked
once by ``set_ok``, as its first incumbent in place of the greedy seed:
a known construction, such as a witness set of the paper's lower bounds,
lets the bound cut from the first node on.  The value stays exact: the
start is a lower bound, and the search proves that nothing larger exists
or finds a larger set.  An optimal start walks no node that the greedy
start does not: best is then the optimum throughout, so every child it
enters has at least as many candidates as the greedy start's search
needs there, and its filter returns them exactly.  A start that meets
the target returns at once.  Without a start the tree is the one
searched from the greedy seed.

Twin classes.  Vertices with equal ``adj`` rows (false twins: every v
and its copy v' in a double graph) form a class, ordered by label, and
pred[v] is the vertex before v in its class.  One builder makes the
table, ``_Record.classes``, from a record's rows: the caller's record
has it in the caller's labels, and the search copy, a record too, in its
own, where ``twin_pred`` reads pred off it.

The twin lemma.  Let a ≠ b be twins and z ∉ {a, b}.  A path a, x1, ...,
z is an a,z-geodesic exactly when b, x1, ..., z is a b,z-geodesic, as
N(a) = N(b) and so d(a, z) = d(b, z); the two have the same interior.
Neither twin lies inside a geodesic from the other end: b inside an
a,z-geodesic would give d(a, z) = d(a, b) + d(b, z) > d(b, z) = d(a, z).
So the pairs {a, z} and {b, z} have the same interval and, under every
blocked set, either both see each other or neither does, with the same
cut.
Call such pairs equivalent, and close the relation under chains.  Every
pair {u, v}, u < v, is then equivalent to one whose u is first in its
class and whose v is first in its class or second in u's: move u to the
first of its class (v is not it, as v > u), then v to the first of its
class, or, when that is u, to the second of u's class.

Swapping two false twins is an automorphism, so it maps good sets onto
good sets of the same size, and in-class permutations turn any good set
into one whose members form a prefix of each class.  ``solve_max`` looks only
for such prefix sets: a child w is skipped when pred[w] is not in S, and
its candidates keep x only when pred[x] is in S ∪ {w} or kept among
them; as pred[x] comes before x in the bit order, one pass over the
bits of the vertices with a twin predecessor settles this.  The rule
only drops candidates, so the filter above stays exact, and the optimum
is kept.  ``enumerate_exact`` must list every maximum set and walks the
full tree.

The lemma also spares visibility work that an equivalent pair has
already done; no tree changes, since each skip keeps every verdict.

- ``set_ok`` sweeps from one source per class: for TOTAL the first
  vertex of each class, whose sweep wants every vertex above it; by the
  argument above, each pair is equivalent to one of those.  For MV and
  OUTER a member with an earlier member of its class does not sweep.
  Orient each required pair as (s, y) with s a member and y above s or
  outside the set; if s has an earlier member a of its class, then y ≠
  a (y is above s or not a member), and (a, y) is equivalent, required
  and oriented the same way, with a < s, so by induction on s some
  sweep answers it.  Unlike the search's sets, a checked set need not
  be a prefix of each class (it may hold a later twin without the first
  of its class), so the rule asks for an earlier member, not for pred[s].
- TOTAL's filter keeps in through[w] only the pairs of the normal form
  above.  Equivalent pairs have the same interval, so the kept one is in
  through[w] too, and the same cut under S ∪ {w}, so the candidates it
  drops are the ones the dropped pairs would drop.
- OUTER's partner sweep: let p = pred[x] for a candidate x.  The partners
  of x are the y outside S ∪ {w, x} whose interval with x holds w, each
  to be seen under S ∪ {w} (x, an end, blocks none of its geodesics).
  For y ≠ p, (x, y) is equivalent to (p, y), with the same interval.  If
  p is in S, each such (p, y) is a pair that S ∪ {w} already satisfies,
  so x needs no sweep; if p is w, x has no partner at all, as the
  interval of (x, y) is that of (w, y), which does not hold w.  If p is
  a candidate swept earlier in the same loop, the partners of x but p
  are those of p but x, and (x, p) is a partner of both or of neither,
  so x takes p's verdict; going up the bits, p's verdict may have been
  taken from its own predecessor the same way.

MV's filter and GP do not use the lemma: the same rule in the MV
partner sweeps and member-pair loop saved nothing on D(C10) or D(C14)
mv, and GP reads no visibility.

Symmetry.  ``solve_max`` takes automorphisms of the graph (rejected
unless each is a permutation that maps every adjacency row onto its
image's row) and joins them with the twin swaps into the orbits of the
group they generate.  Once the branch of a root w is done, w's orbit
leaves the remaining roots, and so every later branch.  This is sound:
by induction, once the roots up to w are done, ``best`` bounds every
good set that meets them or an orbit dropped before.  Every vertex
before w in the order was dropped with its whole twin class, so w is the
first of its class; putting a good set's members first in each twin
class keeps w in it and keeps it clear of the dropped vertices, and w's
branch covers every such set.  An automorphism that maps u to w maps a
good set that holds u onto a good set of the same size that holds w, so
no set that meets w's orbit beats ``best``.  Without symmetries every
orbit is the vertex alone and the tree is the one searched without them:
the twin swaps are then not joined, since the later twins of a root,
which the prefix rule skips, still count in the root's bound, and
dropping them early would change the tree.  ``greedy_set`` and
``enumerate_exact`` take no symmetries.

The same argument, one level down, is orbital branching (Ostrowski,
Linderoth, Rossi and Smriglio 2011).  Under a root w, once the branch
of a child x is done, x's orbit under the stabilizer of w leaves the
remaining children, and the loop's bound counts only the children left.
The stabilizer is taken in the group that the symmetries generate, not
the twin swaps; its orbits come from Schreier generators
(``_stabilizer_orbits``) and are built at most once per root: only when
the loop goes on after a child, and some remaining child lies in the
done child's root orbit (which holds its orbit under the stabilizer),
so small solves seldom pay for them.
This is sound: an automorphism σ that fixes w and maps y to x maps a
good set that holds w and y onto a good set of the same size that
holds w and x.  That image stays clear of the dropped root orbits,
which the whole group maps onto themselves, and of the orbits dropped
under w before, which the stabilizer does.  Putting its members first in
each twin class keeps w in it.  If that meets an orbit dropped under w
before, ``best`` bounds it by induction.  Otherwise x's class still
gives it a member no later than x, so its first member after w is a
child of w (its twin predecessor, if any, is w) no later than x that is
neither done nor dropped: x itself, whose branch covers the set.
Without symmetries every such orbit is the child alone, and the tree is
unchanged.

Inputs.  Every entry point raises ``ValueError`` for an unknown kind,
an ``adj`` or ``dist`` whose length does not fit n, an ``adj`` row, mask
or vertex outside 0..n-1, or a distance outside -1..n, and checks them
in the order of ``_fast.c``: the kind, then the graph (``_checked``),
then masks and vertices, so that both kernels give the same message for
the same bad call.  A tuple ``dist`` is checked once, by its record
(``_Record``), which reads the graph's rows off it: ball row 1 of every
vertex.  Every entry point rejects an ``adj`` that is not the graph of
``dist`` (``_Record.accept``): it must equal the record's rows, n
comparisons, and a row outside 0..n-1 is named as such.  The record
keeps the last ``adj`` tuple it accepted, so the very same tuple is not
compared again.  Past these checks the kernel reads no ``adj``: the
rows, ball rows and twin classes all come from ``dist``.
``solve_max`` also rejects a negative target and a negative or
non-finite time limit, and ``enumerate_exact`` a negative size.
"""

from __future__ import annotations

import math
import time
from functools import cached_property, lru_cache

NAME = "pure"

MV = 0
OUTER = 1
TOTAL = 2
GP = 3

_TIME_CHECK_MASK = 1023
_TABLES_KEPT = 64


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mapped(mask, labels):
    """``mask`` with each vertex v moved to labels[v]."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << labels[low.bit_length() - 1]
        mask ^= low
    return out


def _check_mask(mask, n, what):
    if mask < 0 or mask >> n:
        raise ValueError(f"{what} has a vertex outside 0..{n - 1}")


def _check_vertex(v, n):
    if not 0 <= v < n:
        raise ValueError(f"vertex {v} is outside 0..{n - 1}")


def _pv_cut(n, adj, dist, balls, u, v, blocked):
    """The interior vertices on every u,v-geodesic that avoids ``blocked``
    (endpoints exempt): the vertices whose blocking would hide v from u.
    u and v must see each other.  Layers 1 and d - 1 are read off the
    ball rows (see the module notes); no interior layer holds u or v, so
    ``blocked`` needs no endpoint exemption."""
    duv = dist[u * n + v]
    if duv <= 1:
        return 0
    bu, bv = balls[u], balls[v]
    free = ~blocked
    reach = bu[1] & bv[duv - 1] & free
    layers = [reach]
    for t in range(2, duv):
        acc = 0
        r = reach
        while r:
            low = r & -r
            acc |= adj[low.bit_length() - 1]
            r ^= low
        reach = acc & bu[t] & bv[duv - t] & free
        layers.append(reach)
    back = layers.pop()
    cut = 0 if back & (back - 1) else back
    for reach in reversed(layers):
        acc = 0
        r = back
        while r:
            low = r & -r
            acc |= adj[low.bit_length() - 1]
            r ^= low
        back = acc & reach
        if not back & (back - 1):
            cut |= back
    return cut


def pair_visible(n, adj, dist, u, v, blocked):
    """Some u,v-geodesic avoids ``blocked`` internally; endpoints exempt."""
    record = _checked(n, adj, dist)
    _check_vertex(u, n)
    _check_vertex(v, n)
    _check_mask(blocked, n, "blocked")
    return not _unreached(record.rows, record.balls[u], 1 << u, 1 << v, ~blocked)


class _Record:
    """The distance table ``dist`` of a graph of order n and the ``adj``
    tuple last accepted with it.  Everything else is read off ``dist``,
    each on first use: the ball rows, the rows of the graph and its twin
    table."""

    def __init__(self, n, dist):
        self.n = n
        self.dist = dist
        self.adj = None

    @cached_property
    def balls(self):
        """balls[u][t]: the vertices at distance t from u, for every u, with
        a row 1 even when no vertex has a neighbour.  Rows are tuples, so
        callers that share them cannot change them."""
        n, dist = self.n, self.dist
        maxd = max(1, max(dist, default=0))
        balls = []
        for u in range(n):
            row = [0] * (maxd + 1)
            base = u * n
            for x in range(n):
                d = dist[base + x]
                if d >= 0:
                    row[d] |= 1 << x
            balls.append(tuple(row))
        return tuple(balls)

    @cached_property
    def rows(self):
        """The adjacency rows of the graph of ``dist``: ball row 1 of every
        vertex."""
        return tuple([ball[1] for ball in self.balls])

    def accept(self, adj):
        """Reject an ``adj`` that is not the graph of ``dist``: it must equal
        ``rows``.  A tuple that passes is kept, and ``_checked`` skips the
        call for that very tuple; a list is compared on every call."""
        if tuple(adj) != self.rows:
            if min(adj) < 0 or max(adj) >> self.n:
                raise ValueError(f"an adj row has a vertex outside 0..{self.n - 1}")
            raise ValueError("adj does not match dist: a row is not the vertices at distance 1")
        if type(adj) is tuple:
            self.adj = adj

    @cached_property
    def classes(self):
        """(firsts, below) of the graph, read off ``rows``: the vertices
        that come first in their twin class (see the module notes), and
        below[v], the class members before v, as a mask, or None when no
        vertex has a twin."""
        rows = self.rows
        if len(set(rows)) == self.n:
            return range(self.n), None
        below, last = [], {}
        for v, row in enumerate(rows):
            b = last.get(row, 0)
            below.append(b)
            last[row] = b | 1 << v
        return [v for v, b in enumerate(below) if not b], below


# id(dist) -> the _Record of dist, for the most recently used tuples; the
# record holds dist, which keeps its id from being reused while it lives
_recent = {}


def _check_kind(kind):
    if kind not in (MV, OUTER, TOTAL, GP):
        raise ValueError(f"unknown property kind code {kind}")


def _checked(n, adj, dist):
    """The record of ``dist``, checked against order n, with ``adj``
    accepted (``_Record.accept``).  A tuple cannot change, so its record is
    made once, and found again by identity.  A list gets a record of its
    own on every call, so it is read afresh."""
    if len(adj) != n:
        raise ValueError(f"adj has {len(adj)} rows for order {n}")
    if len(dist) != n * n:
        raise ValueError(f"dist has {len(dist)} entries for order {n}")
    record = _recent.pop(id(dist), None) if type(dist) is tuple else None
    if record is None:
        if dist and (min(dist) < -1 or max(dist) > n):
            bad = next(x for x in dist if not -1 <= x <= n)
            raise ValueError(f"distance {bad} is outside -1..{n}")
        record = _Record(n, dist)
    if type(dist) is tuple:
        if len(_recent) >= _TABLES_KEPT:
            del _recent[next(iter(_recent))]
        _recent[id(dist)] = record
    if adj is not record.adj:
        record.accept(adj)
    return record


class _Tables(_Record):
    """One search copy (see the module notes): the record of its own
    distance tuple, whose ``adj`` is its ``rows``, with its geodesic
    tables, each built on first use, its checked symmetries with their
    orbits, and the search's memo, which every kind and run on the copy
    fills and reads.  Vertex sets are int masks in the copy's labels;
    callers never change the tables."""

    def __init__(self, n, dist):
        super().__init__(n, dist)
        self.adj = self.rows
        self._symmetries = None
        # the memo (see the module notes): cuts by (u, v, blocked & btw[u][v]), u < v
        self.cuts = {}

    @cached_property
    def btw(self):
        """btw[u][v]: vertices strictly inside some u,v-geodesic."""
        n, dist, balls = self.n, self.dist, self.balls
        btw = [[0] * n for _ in range(n)]
        for u in range(n):
            bu, du, row = balls[u], u * n, btw[u]
            for v in range(u + 1, n):
                d = dist[du + v]
                bv = balls[v]
                m = 0
                for t in range(1, d):
                    m |= bu[t] & bv[d - t]
                row[v] = btw[v][u] = m
        return btw

    @cached_property
    def inw(self):
        """inw[w][x]: the y with w strictly inside some x,y-geodesic, so
        that y is in inw[w][x] exactly when w is in btw[x][y]."""
        n, dist, balls = self.n, self.dist, self.balls
        inw = [[0] * n for _ in range(n)]
        for w in range(n):
            bw, dw, row = balls[w], w * n, inw[w]
            for x in range(w + 1, n):
                d = dist[dw + x]
                if d < 0:
                    continue
                bx = balls[x]
                m = mx = 0
                for k in range(d + 1, len(bx)):
                    m |= bx[k] & bw[k - d]
                    mx |= bw[k] & bx[k - d]
                row[x], inw[x][w] = m, mx
        return inw

    @cached_property
    def pairbad(self):
        """pairbad[u][v]: third vertices completing a geodesic triple with
        u, v: between them, beyond v from u, or beyond u from v."""
        btw, inw = self.btw, self.inw
        return [[btw[u][v] | inw[v][u] | inw[u][v] for v in range(self.n)] for u in range(self.n)]

    @cached_property
    def total_roots(self):
        """The w for which {w} is a total mutual-visibility set, as a mask:
        those in no single-vertex interval layer of any pair."""
        n, dist, balls = self.n, self.dist, self.balls
        forbid = 0
        for u in range(n):
            bu, du = balls[u], u * n
            for v in range(u + 1, n):
                d = dist[du + v]
                bv = balls[v]
                for t in range(1, d):
                    layer = bu[t] & bv[d - t]
                    if not layer & (layer - 1):
                        forbid |= layer
        return ((1 << n) - 1) & ~forbid

    @cached_property
    def twin_pred(self):
        """twin_pred[v]: the vertex before v in its twin class, the last of
        ``classes``' below[v], or -1 when v comes first."""
        return [b.bit_length() - 1 for b in self.classes[1] or [0] * self.n]

    @cached_property
    def twins(self):
        """The vertices with a twin predecessor, as a mask."""
        return sum(1 << v for v, p in enumerate(self.twin_pred) if p >= 0)

    def symmetries(self, order, label, symmetries):
        """(gens, orbit): the caller's ``symmetries``, checked and in the
        copy's labels (``_search_symmetries``), and orbit[v] under them and
        the twin swaps (``_orbits``); kept for the latest call's symmetries,
        compared by value, so equal ones are not checked again."""
        key = tuple(map(tuple, symmetries))
        if key != self._symmetries:
            gens = _search_symmetries(self, order, label, key)
            orbit = _orbits(self.n, gens, self.twin_pred)
            self._symmetries, self._gens, self._orbit = key, gens, orbit
        return self._gens, self._orbit

    @cached_property
    def through(self):
        """through[w]: TOTAL's pairs (u, v, btw[u][v]), u < v, whose
        interval holds w, one of each class of equivalent pairs (see the
        module notes): u first in its twin class, and v first in its class
        or second in u's."""
        n, btw, pred = self.n, self.btw, self.twin_pred
        firsts = ((1 << n) - 1) & ~self.twins
        ends = [0] * n  # ends[u]: the v > u kept with u
        for u, p in enumerate(pred):
            if p < 0:
                ends[u] = firsts >> u + 1 << u + 1
            elif pred[p] < 0:
                ends[p] |= 1 << u
        return [
            [(u, v, btw[u][v]) for u, iu in enumerate(iw) for v in _bits(iu & ends[u])]
            for iw in self.inw
        ]

    def roots(self, kind):
        """The w for which {w} has the property, as a mask: all of them,
        but for TOTAL only those that no pair has on all its geodesics."""
        return self.total_roots if kind == TOTAL else (1 << self.n) - 1

    def extensions(self, kind, smask, w, cmask, need=0):
        """The x in ``cmask`` for which smask ∪ {w, x} keeps the property,
        given that smask ∪ {w} and every smask ∪ {x} already have it, as a
        mask.  Only the pairs that neither of those two sets settles are
        re-checked (see the module notes).  The mask is exact when it has
        at least ``need`` bits; otherwise the filter may stop as soon as
        fewer than ``need`` can survive, and return a superset of it that
        has fewer than ``need`` bits."""
        if not cmask:
            return 0
        if kind == GP:
            bad = self.pairbad[w]
            forbid = 0
            while smask:
                low = smask & -smask
                forbid |= bad[low.bit_length() - 1]
                smask ^= low
            return cmask & ~forbid
        n, adj, dist, balls, btw = self.n, self.adj, self.dist, self.balls, self.btw
        new = smask | 1 << w
        iw = self.inw[w]
        # The pairs that smask ∪ {x} does not settle are re-checked when x
        # lies in their interval.  Each sees itself under smask ∪ {w}, so
        # x breaks it exactly when x is in its cut: one cut per pair that
        # a candidate can break, instead of one test per candidate.
        keep = cmask
        cuts = self.cuts
        if kind == TOTAL:
            for u, v, m in self.through[w]:
                if m & keep:
                    key = (u, v, new & m)
                    cut = cuts.get(key)
                    if cut is None:
                        cut = cuts[key] = _pv_cut(n, adj, dist, balls, u, v, new)
                    if cut & keep:
                        keep &= ~cut
                        if keep.bit_count() < need:
                            return keep
            return keep
        # The pairs (u, y) for y in ys, source by source, with no list:
        # first (w, y) for every member y (MV) or every y outside
        # smask ∪ {w} (OUTER); then for each member s, (s, y) with w in
        # its interval, y a later member or, for OUTER, any y outside.
        outside = ((1 << n) - 1) & ~new if kind == OUTER else 0
        u, ys = w, outside if kind == OUTER else smask
        r = smask
        while True:
            bu = btw[u]
            while ys:
                yb = ys & -ys
                ys ^= yb
                y = yb.bit_length() - 1
                m = bu[y]
                if m & keep:
                    key = (u, y, new & m) if u < y else (y, u, new & m)
                    cut = cuts.get(key)
                    if cut is None:
                        cut = cuts[key] = _pv_cut(n, adj, dist, balls, u, y, new)
                    if cut & keep:
                        keep &= ~cut
                        if keep.bit_count() < need:
                            return keep
            if not r:
                break
            low = r & -r
            r ^= low
            u = low.bit_length() - 1
            ys = iw[u] & (r | outside)
        if kind == MV:
            return self._mv_partners(smask, w, keep, need)
        # OUTER's partners: one sweep from each candidate x reaches the y
        # outside smask ∪ {w, x} whose pair with x is re-checked, as w lies
        # in its interval; x is an end of the pair, so it need not be
        # blocked.  A candidate whose twin predecessor is in new or among
        # the candidates is an heir: it repeats that vertex's partner pairs
        # and takes its verdict without a sweep (see the module notes), once
        # the others have been swept; heirs go up the bits, so a
        # predecessor that is an heir itself is settled first.
        heirs = keep & self.twins
        if heirs:
            pred, settled = self.twin_pred, new | keep
            r = heirs
            while r:
                xb = r & -r
                r ^= xb
                if not settled >> pred[xb.bit_length() - 1] & 1:
                    heirs ^= xb
        left = keep.bit_count()
        r = keep ^ heirs
        while r:
            xb = r & -r
            r ^= xb
            x = xb.bit_length() - 1
            want = iw[x] & outside
            if want and _unreached(adj, balls[x], xb, want, outside):
                keep ^= xb
                left -= 1
                if left < need:
                    return keep
        while heirs:
            xb = heirs & -heirs
            heirs ^= xb
            if not (new | keep) >> pred[xb.bit_length() - 1] & 1:
                keep ^= xb
        return keep

    def _mv_partners(self, smask, w, keep, need):
        """The x in ``keep`` that see each y in smask ∪ {w} whose pair with
        x is re-checked: the members y whose interval with x holds w, and w
        itself.  One layer sweep per y, with smask ∪ {w} blocked, settles
        all of y's pairs at once (``_unreached``, as in ``set_ok``); x is
        an end of the pair, so it need not be blocked.  x sees w at sight
        when no member lies inside any w,x-geodesic, so w sweeps last, and
        only for the x with a member inside one: the union of inw[s][w]
        over the members s.  It stops once fewer than ``need`` are left."""
        adj, balls, inw = self.adj, self.balls, self.inw
        iw = inw[w]
        free = ((1 << self.n) - 1) & ~smask & ~(1 << w)
        near = 0
        r = smask
        while r and keep:
            yb = r & -r
            r ^= yb
            y = yb.bit_length() - 1
            near |= inw[y][w]
            want = keep & iw[y]
            if not want:
                continue
            missed = _unreached(adj, balls[y], yb, want, free)
            if missed:
                keep &= ~missed
                if keep.bit_count() < need:
                    return keep
        want = keep & near
        if want:
            keep &= ~_unreached(adj, balls[w], 1 << w, want, free)
        return keep


def set_ok(n, adj, dist, mask, kind):
    """Full from-scratch verification of ``mask`` for the given kind
    (one layer sweep per source for MV, OUTER and TOTAL; see the module
    notes)."""
    _check_kind(kind)
    record = _checked(n, adj, dist)
    _check_mask(mask, n, "mask")
    members = []
    rest = mask
    while rest:
        low = rest & -rest
        members.append(low.bit_length() - 1)
        rest ^= low
    if kind == GP:
        # each triple once: the three-way "between" test is symmetric
        for i, u in enumerate(members):
            du = u * n
            for j, v in enumerate(members[i + 1 :], i + 1):
                duv = dist[du + v]
                dv = v * n
                for x in members[j + 1 :]:
                    dux = dist[du + x]
                    dxv = dist[dv + x]
                    if dux + dxv == duv or duv + dxv == dux or dux + duv == dxv:
                        return False
        return True
    full = (1 << n) - 1
    wanted = mask if kind == MV else full
    outside = full & ~mask
    rows, balls = record.rows, record.balls
    firsts, below = record.classes
    # one source per twin class (see the module notes): the first vertex
    # of each class for TOTAL, the first member for MV and OUTER
    for u in firsts if kind == TOTAL else members:
        if below and mask & below[u]:
            continue
        want = wanted & ~((2 << u) - 1)
        if kind == OUTER:
            want |= outside
        if _unreached(rows, balls[u], 1 << u, want, outside):
            return False
    return True


def _unreached(adj, ball, front, want, free):
    """The vertices of ``want`` that the layer sweep from a source does
    not reach (see the module notes): ``ball`` is the source's ball rows,
    ``front`` its bit, and only the ``free`` vertices carry the walk on."""
    missed = 0
    for t in range(1, len(ball)):
        if not want:
            break
        layer = ball[t]
        if front == ball[t - 1]:
            # a whole layer reaches the whole next one
            reach = layer
        else:
            acc = 0
            while front:
                low = front & -front
                acc |= adj[low.bit_length() - 1]
                front ^= low
            reach = acc & layer
        missed |= want & layer & ~reach
        want &= ~layer
        front = reach & free
    return missed


def extend_ok(n, adj, dist, smask, w, kind):
    """One-shot extension check: does smask ∪ {w} have the property?"""
    _check_kind(kind)
    _checked(n, adj, dist)
    _check_mask(smask, n, "smask")
    _check_vertex(w, n)
    return set_ok(n, adj, dist, smask | 1 << w, kind)


def _default_order(n, adj):
    return sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))


def _relabelled(n, adj, dist, kind):
    """The search order, its inverse (label[v] is v's place in it) and the
    tables of the copy of the graph whose vertex i is the order's i-th
    vertex (see the module notes)."""
    _check_kind(kind)
    return _search_copy(_checked(n, adj, dist))


@lru_cache(maxsize=1)
def _search_copy(record):
    """(order, label, tables) of the latest record's graph relabelled into
    its search order, so that the solves of one graph and their greedy
    seeds share one copy, its tables and its memo; the order and labels
    are read-only."""
    n, dist = record.n, record.dist
    order = _default_order(n, record.rows)
    label = [0] * n
    for i, v in enumerate(order):
        label[v] = i
    rows = [dist[v * n : v * n + n] for v in order]
    return order, label, _Tables(n, tuple([row[x] for row in rows for x in order]))


def greedy_set(n, adj, dist, kind):
    """Deterministic greedy sweep: descending degree, ties by index.  It
    walks the leftmost path of the search tree (see the module notes)."""
    order, _, tables = _relabelled(n, adj, dist, kind)
    smask = 0
    cands = tables.roots(kind)
    while cands:
        low = cands & -cands
        cands = tables.extensions(kind, smask, low.bit_length() - 1, cands ^ low)
        smask |= low
    return _mapped(smask, order)


class _Found(Exception):
    pass


class _TimeUp(Exception):
    pass


def _search_symmetries(tables, order, label, symmetries):
    """The symmetries, tuples in the caller's labels, as tuples in the
    search copy's labels; raises ``ValueError`` for an entry that is not a
    permutation of 0..n-1 or that does not map each adjacency row onto its
    image's row (the check of ``_fast.c`` ``read_symmetry``), which for a
    permutation makes it an automorphism."""
    n, adj = tables.n, tables.adj
    every = list(range(n))
    gens = []
    for perm in symmetries:
        if len(perm) != n or sorted(perm) != every:
            raise ValueError(f"a symmetry is not a permutation of 0..{n - 1}")
        gens.append(tuple([label[perm[v]] for v in order]))
    for g in gens:
        for v in every:
            if _mapped(adj[v], g) != adj[g[v]]:
                raise ValueError("a symmetry is not an automorphism of the graph")
    return gens


def _orbit_masks(n, pairs):
    """orbit[v]: the class of v, as a mask, when each pair (u, v) joins
    the classes of u and v (union-find)."""
    root = list(range(n))

    def find(v):
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    for v, u in pairs:
        a, b = find(v), find(u)
        if a != b:
            root[max(a, b)] = min(a, b)
    masks = [0] * n
    for v in range(n):
        masks[find(v)] |= 1 << v
    return [masks[find(v)] for v in range(n)]


def _orbits(n, gens, pred):
    """orbit[v]: v's orbit under the group that the permutations ``gens``
    and the twin swaps generate, as a mask.  Without generators every
    orbit is v alone (see the module notes)."""
    if not gens:
        return [1 << v for v in range(n)]
    pairs = [(v, p) for v, p in enumerate(pred) if p >= 0]
    pairs += [(v, u) for perm in gens for v, u in enumerate(perm)]
    return _orbit_masks(n, pairs)


def _stabilizer_orbits(n, gens, w):
    """orbit[v]: v's orbit under the stabilizer of w in the group that
    the permutations ``gens`` generate, as a mask.  A BFS over w's orbit
    finds for each u in it an element t[u] that maps w to u; by Schreier's
    lemma, t[g(u)]^-1 g t[u] over every u in the orbit and g in ``gens``
    generate the stabilizer.  It is the identity exactly when g t[u] is
    t[g(u)], so only the others are inverted; each distinct one joins
    every vertex with its image."""
    identity = tuple(range(n))
    trans = {w: identity}
    schreier = set()
    queue = [w]
    for u in queue:
        tu = trans[u]
        for g in gens:
            gt = tuple([g[x] for x in tu])
            have = trans.get(g[u])
            if have is None:
                trans[g[u]] = gt
                queue.append(g[u])
            elif have != gt:
                inv = sorted(identity, key=have.__getitem__)
                schreier.add(tuple([inv[x] for x in gt]))
    return _orbit_masks(n, [pair for perm in schreier for pair in enumerate(perm)])


def solve_max(n, adj, dist, kind, target=0, time_limit=0.0, symmetries=(), start=None):
    """Exact maximum set for the kind; returns (size, mask, nodes, status).

    status: 0 exact, 1 stopped early at target size, 2 time limit hit.
    With an early stop the reported size is a lower bound on the optimum.
    ``symmetries`` are automorphisms of the graph, each a sequence of the
    images of 0..n-1; the search drops a root's orbit under them once the
    root's branch is done, and a depth-1 child's orbit under its root's
    stabilizer once the child's branch is (see the module notes).
    ``target`` and ``time_limit`` 0 mean none; a target above n is never
    reached.  ``start``, a mask with the property, is the first incumbent
    in place of the greedy seed (see the module notes); a start with a
    vertex outside 0..n-1 or without the property raises ``ValueError``.
    """
    if target < 0:
        raise ValueError(f"target must be 0 (none) or more, got {target}")
    if not 0.0 <= time_limit < math.inf:
        raise ValueError(f"time limit must be 0 (none) or finite, got {time_limit}")
    order, label, tables = _relabelled(n, adj, dist, kind)
    gens, orbit = tables.symmetries(order, label, symmetries)
    deadline = time.monotonic() + time_limit if time_limit else 0.0
    pred, twins = tables.twin_pred, tables.twins
    extensions = tables.extensions
    if start is None:
        start = greedy_set(n, adj, dist, kind)
    else:
        _check_mask(start, n, "start")
        if not set_ok(n, adj, dist, start, kind):
            raise ValueError("start does not have the property")
    best_mask = _mapped(start, label)
    best = best_mask.bit_count()
    nodes = 0

    def run(smask, size, cands):
        nonlocal best, best_mask, nodes
        nodes += 1
        if deadline and nodes & _TIME_CHECK_MASK == 1 and time.monotonic() > deadline:
            raise _TimeUp
        left = cands.bit_count()
        stabilizer = None
        while size + left > best:
            low = cands & -cands
            cands ^= low
            left -= 1
            w = low.bit_length() - 1
            p = pred[w]
            if p >= 0 and not smask >> p & 1:
                continue
            new = smask | low
            if size >= best:
                best = size + 1
                best_mask = new
                if target and best >= target:
                    raise _Found
            # the child beats best only with at least need candidates
            need = best - size
            rest = extensions(kind, smask, w, cands, need)
            # the twin-prefix rule: pred[x] < x, so the bits below x are
            # already settled when x is
            t = rest & twins
            while t:
                xb = t & -t
                t ^= xb
                if not (new | rest) >> pred[xb.bit_length() - 1] & 1:
                    rest ^= xb
            if rest.bit_count() >= need:
                run(new, size + 1, rest)
            if not smask:
                # the root w is done, and no larger set meets its orbit
                cands &= ~orbit[w]
                left = cands.bit_count()
            elif size == 1 and gens and size + left > best and cands & orbit[w]:
                # the child w of the root smask is done, and no larger set
                # that holds the root meets w's orbit under its stabilizer,
                # which lies in its orbit under the whole group
                if stabilizer is None:
                    stabilizer = _stabilizer_orbits(n, gens, smask.bit_length() - 1)
                cands &= ~stabilizer[w]
                left = cands.bit_count()

    status = 0
    if target and best >= target:
        status = 1
    else:
        try:
            run(0, 0, tables.roots(kind))
        except _Found:
            status = 1
        except _TimeUp:
            status = 2
    # run refers to itself; without it a search copy that a later graph
    # replaces would wait, with its memo, for the cycle collector
    del run
    return best, _mapped(best_mask, order), nodes, status


def enumerate_exact(n, adj, dist, kind, size):
    """All sets of exactly ``size`` with the property, as masks (DFS order)."""
    if size < 0:
        raise ValueError(f"size must be 0 or more, got {size}")
    order, _, tables = _relabelled(n, adj, dist, kind)
    if size == 0:
        return [0]
    out = []

    def rec(smask, cur, cands):
        left = cands.bit_count()
        while cur + left >= size and cands:
            low = cands & -cands
            cands ^= low
            left -= 1
            new = smask | low
            if cur + 1 == size:
                out.append(new)
            else:
                need = size - cur - 1
                rest = tables.extensions(kind, smask, low.bit_length() - 1, cands, need)
                if rest.bit_count() >= need:
                    rec(new, cur + 1, rest)

    rec(0, 0, tables.roots(kind))
    del rec  # it refers to itself, as the search in solve_max does
    return [_mapped(m, order) for m in out]
