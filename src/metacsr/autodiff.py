"""Minimal dense-tensor computation tape with reverse-mode differentiation.

A :class:`Tape` records a directed acyclic graph of numpy operations. Nodes
are appended in construction order, so the node list is always a valid
topological order. A tape's inputs are params, which are differentiated, and
constants. ``forward`` evaluates every node from their bound values;
``backward`` sums adjoints in reverse order and returns each param's
gradient.

All values are float64 ndarrays of rank 0, 1 or 2. There is no implicit
broadcasting: ``mul`` takes operands of one shape, and the fused ops check
their operands' shapes by name, which keeps every gradient rule
auditable. Each op that reads rows of a table by id gathers them itself
(``encoder``, ``pair_loss``, ``segment_mean``, ``conv``), and refuses ids
outside the table by name.

Each backward returns the gradients of one pass, and no adjoint outlives
it: a tape holds values and what its gradient rules read, never gradient
state.
"""

from __future__ import annotations

import bisect
import functools
from typing import NamedTuple

import numpy as np


class ShapeError(ValueError):
    """Raised when operation inputs have incompatible shapes."""


class Node:
    """One entry in the computation graph.

    ``idx`` is the position in the tape's node list (node id), ``op`` the
    operation kind, ``inputs`` the producing nodes, ``aux`` any static
    operation attribute (ids, a segment or encoder layout). ``value``
    caches the most recent forward result. ``live`` marks a node that a
    param feeds: only live nodes get adjoints, and those live only inside
    :meth:`Tape.backward`. ``saved`` holds what a fused node's gradient
    rule reads besides its inputs and its value (an ``encoder``'s gathered
    rows, pair sigmoids, attention weights and pool, a ``pair_loss``'s
    probabilities and pairs, a ``conv``'s pool, norms and mask), kept from
    forward to forward and never written by a backward, so one forward
    serves many backwards.
    """

    __slots__ = ("idx", "op", "inputs", "aux", "value", "live", "name",
                 "saved")

    def __init__(self, idx, op, inputs=(), aux=None, name=None):
        self.idx = idx
        self.op = op
        self.inputs = inputs
        self.aux = aux
        self.value = None
        self.live = op == "param" or any(i.live for i in inputs)
        self.name = name
        self.saved = None

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"<Node {self.idx} {self.op}{label}>"


def _as_f64(x):
    return np.asarray(x, dtype=np.float64)


def stable_sigmoid(x, out=None):
    """Numerically stable logistic function, elementwise: one division,
    with the IEEE operations of ``1/(1+e)`` for x >= 0 and ``e/(1+e)``,
    written into ``out`` if given (which may be ``x``). As ``e =
    exp(-|x|)`` is at most 1, the numerator ``max(e, x >= 0)`` is 1.0 or
    ``e`` without a select, whose random sign mask mispredicts."""
    x = _as_f64(x)
    e = np.exp(-np.abs(x))
    return np.divide(np.maximum(e, x >= 0), 1.0 + e, out=out)


def masked_softmax_rows(z):
    """Row-wise softmax that treats -inf entries as masked out.

    Rows whose entries are all -inf produce an all-zero row instead of NaN,
    which keeps boundary positions of attention masks well defined.
    """
    z = _as_f64(z)
    finite = np.isfinite(z)
    # entries that are not finite count as -inf, which they all are unless
    # one is NaN or +inf (the max is then not below inf)
    if not z.max(initial=-np.inf) < np.inf:
        z = np.where(finite, z, -np.inf)
    # a max is exact in any order: reduce the columns of a contiguous
    # transpose, which is much faster than a short-row max(axis=1)
    rowmax = np.maximum.reduce(np.ascontiguousarray(z.T), axis=0)
    rowmax[rowmax == -np.inf] = 0.0     # all-masked rows
    # masked entries enter exp as 0, not -inf (a slow path), and leave as 0
    e = np.where(finite, z - rowmax[:, None], 0.0)
    np.exp(e, out=e)
    e *= finite
    s = e.sum(axis=1)
    e /= np.where(s > 0, s, 1.0)[:, None]
    return e


def l2_normalize_rows(x, eps=1e-12):
    """L2-normalize the rows of a matrix; rows with norm below ``eps`` map
    to zero rows. Returns the normalized rows and the (rows, 1) norms."""
    x = _as_f64(x)
    n = np.linalg.norm(x, axis=1, keepdims=True)
    ok = n >= eps
    out = np.divide(x, np.where(ok, n, 1.0))
    np.copyto(out, 0.0, where=~ok)
    return out, n


def _dense_grads(x, w, g, live):
    """The gradients of ``relu(x @ w.T + b)`` w.r.t. x, w and b for ``g``,
    its output adjoint times ``y > 0``; None for an input ``live`` marks
    dead."""
    x_live, w_live, b_live = live
    return [g @ w if x_live else None, (x.T @ g).T if w_live else None,
            g.sum(axis=0) if b_live else None]


def _span(ids):
    """The smallest and largest of ``ids``, (0, -1) when there are none."""
    return (int(ids.min()), int(ids.max())) if ids.size else (0, -1)


def _increasing(ids):
    """Whether a 1-d id array is strictly increasing; a repeated or falling
    first pair, as in most unsorted id lists, answers without a pass."""
    return ids.size < 2 or ids[0] < ids[1] and (ids[1:] > ids[:-1]).all()


class RowGrad:
    """The gradient of ``table[rows]`` for strictly increasing ``rows`` and
    the adjoint ``values``, kept row-sparse: as a table, ``values + 0.0``
    in those rows (the sum from 0.0 turns a -0.0 into +0.0) and +0.0
    elsewhere. :meth:`Tape.backward` adds it into dense adjoints and
    makes it a dense table when it reaches its node."""

    __slots__ = ("rows", "values")

    def __init__(self, rows, values):
        self.rows, self.values = rows, values

    def dense(self, shape):
        grad = np.zeros(shape)
        grad[self.rows] = self.values
        grad += 0.0
        return grad

    def add_to(self, table):
        """``table`` plus this gradient as a table, bit for bit, written
        into ``table``: after ``+ 0.0`` no cell of it is -0.0, so adding
        ``values`` to its rows gives the sum with ``values + 0.0``."""
        table += 0.0
        table[self.rows] += self.values
        return table


def _add_adjoints(held, grad, shape):
    """``held + grad``, two gradients of one node of ``shape``, either a
    :class:`RowGrad`: bit for bit their dense sum (addition commutes),
    written into a dense operand."""
    if isinstance(held, RowGrad):
        if isinstance(grad, RowGrad):
            return grad.add_to(held.dense(shape))
        held, grad = grad, held
    if isinstance(grad, RowGrad):
        return grad.add_to(held)
    held += grad
    return held


def _scatter_rows(shape, ids, adj, first=0):
    """Gradient of ``table[ids]`` for 1-d ``ids`` and the adjoint ``adj``
    w.r.t. the rows ``first`` to ``first + shape[0] - 1`` of the table, of
    the 2-d ``shape``, that ``ids`` read: each cell sums its adjoints in
    id order from 0.0, as np.add.at does, in one weighted bincount over
    the (row, column) cells read."""
    width = shape[1]
    cells = ids.reshape(-1, 1) * width + np.arange(-first * width,
                                                   (1 - first) * width)
    return np.bincount(cells.reshape(-1), weights=adj.reshape(-1),
                       minlength=shape[0] * shape[1]).reshape(shape)


def pair_probabilities(cands, prefs):
    """``sigmoid(d * mean(cands * prefs))`` over the last axis, of length
    d: the one scoring rule, of ``pair_loss`` and of cold ranking
    (``sequence.score_candidates``)."""
    return stable_sigmoid(np.asarray((cands * prefs).mean(axis=-1))
                          * float(cands.shape[-1]))


def _pair_terms(items, prefs, cand):
    """A ``pair_loss`` node's (prefs rows, 1 + k_neg) probabilities and its
    pairs' ``p_neg - p_pos``, one row per prefs row, flat in pair order."""
    c = items.take(cand, axis=0).reshape(len(prefs), -1, items.shape[1])
    s = pair_probabilities(c, prefs[:, None])
    return s, (s[:, 1:] + s[:, :1] * -1.0).reshape(-1)


def _group_sum(groups):
    """``0.0 + groups[:, 0] + groups[:, 1] + ...``, left to right, as a
    scatter that sums each row's terms in order from 0.0."""
    out = groups[:, 0] + 0.0
    for j in range(1, groups.shape[1]):
        out += groups[:, j]
    return out


def _pair_grads(items, prefs, cand, s, x, adj, live):
    """The gradients of a ``pair_loss`` node w.r.t. items and prefs for
    its adjoint ``adj``, from its forward's probabilities ``s`` and pairs
    ``x``: bit for bit ``tests/oracles.unfused_pair_loss``'s rules in
    reverse order. Each gather's scatter is a grouped sum in candidate
    order: a positive's over its k_neg pairs, a prefs row's over its
    1 + k_neg candidates. Writes neither ``s`` nor ``x``; None for an
    input ``live`` marks dead."""
    n_rows, dim = s.shape[0], items.shape[1]
    g = (np.broadcast_to(adj / x.size, x.shape) * stable_sigmoid(x)
         ).reshape(n_rows, -1)
    gp = np.empty(s.shape)
    gp[:, 0] = _group_sum(g * -1.0)
    np.add(g, 0.0, out=gp[:, 1:])
    gp = gp * s * (1.0 - s) * float(dim)
    gm = (gp / dim)[:, :, None]
    items_live, prefs_live = live
    g_items = _scatter_rows(items.shape, cand, (prefs[:, None] * gm)
                            .reshape(-1, dim)) if items_live else None
    if not prefs_live:
        return [g_items, None]
    c = items.take(cand, axis=0).reshape(n_rows, -1, dim)
    return [g_items, _group_sum(np.multiply(c, gm, out=c))]


@functools.lru_cache(maxsize=64)
def _encoder_template(t_len):
    """What every ``encoder`` layout of blocks of T = ``t_len`` rows reads,
    read-only: the (T, T) table ``m <= n`` at [n, m], whose row L - 1
    also marks the positions of a sequence of L items, and the (2, T, T)
    [n, m] logit biases of the forward and the backward direction,
    ``-exp(|m - n|)`` where n attends to m (m <= n forward, m >= n
    backward) and -inf elsewhere."""
    pos = np.arange(t_len)
    before = pos <= pos[:, None]
    decay = -np.exp(np.abs(pos[:, None] - pos[None, :]).astype(np.float64))
    bias = np.stack([np.where(before, decay, -np.inf),
                     np.where(before.T, decay, -np.inf)])
    before.setflags(write=False)
    bias.setflags(write=False)
    return before, bias


# a block holds _BLOCK_FLOATS // d rows of d floats: 256 KiB, so a block
# and its temporaries stay in cache
_BLOCK_FLOATS = 32768


def _block_rows(k):
    """The rows of k floats that one block holds, at least one."""
    return max(1, _BLOCK_FLOATS // max(k, 1))


def _pair_sigmoid(a, b, rows_a, rows_b):
    """``stable_sigmoid(a[rows_a] + b[rows_b])``, one block of rows at a
    time, each written in place."""
    s = np.empty((rows_a.size, a.shape[1]))
    size = _block_rows(a.shape[1])
    for lo in range(0, len(s), size):
        x = s[lo: lo + size]
        np.add(a.take(rows_a[lo: lo + size], axis=0),
               b.take(rows_b[lo: lo + size], axis=0), out=x)
        stable_sigmoid(x, out=x)
    return s


def _blocks(x, t_len):
    """View an (n * t_len, k) matrix as n stacked (t_len, k) blocks."""
    return x.reshape(x.shape[0] // t_len, t_len, x.shape[1])


class EncoderLayout(NamedTuple):
    """What an ``encoder`` node over n sequences padded to blocks of T rows
    reads of their lengths and ids, built once with the node: pair i
    attends from block row ``rows_a[i]`` to ``rows_b[i]``; row r of the
    (n * T, T) ``slot`` holds the pairs that row's logits read, and
    ``masks`` the (2, n * T, T) biases of both directions (-inf outside a
    sequence); ``cells`` is each pair's live cell of ``slot``, and
    sequence i's pairs run from ``offsets[i]`` to ``offsets[i + 1]``. The
    (n, T) ``inside`` marks the positions a sequence fills, ``gather`` is
    the item id of each block row (0 on padded rows) and ``span`` the
    smallest and largest of them."""
    rows_a: np.ndarray
    rows_b: np.ndarray
    slot: np.ndarray
    masks: np.ndarray
    cells: np.ndarray
    offsets: list
    span: tuple
    inside: np.ndarray
    gather: np.ndarray


def _attention(embeds, src_w, dst_w, score_w, layout):
    """An ``encoder`` node's attention over blocks of T rows (see
    :class:`EncoderLayout`), both directions in one pass: the (n * T, 2k)
    table of the forward and the backward outputs side by side, the
    pairs' sigmoid table and the (2, n * T, T) weights. Row r of direction
    j's logits reads the pairs ``slot[r]`` plus ``masks[j][r]``: one
    softmax over the stacked rows, one block product per block and
    direction."""
    t_len, width = layout.slot.shape[1], embeds.shape[1]
    s = _pair_sigmoid(embeds @ src_w.T, embeds @ dst_w.T, layout.rows_a,
                      layout.rows_b)
    logits = layout.masks + (s @ score_w).reshape(-1).take(layout.slot)
    atts = masked_softmax_rows(logits.reshape(-1, t_len)).reshape(
        layout.masks.shape)
    table = np.empty((len(embeds) // t_len, t_len, 2, width))
    np.matmul(atts.reshape(2, -1, t_len, t_len), _blocks(embeds, t_len),
              out=table.transpose(2, 0, 1, 3))
    return table.reshape(len(embeds), 2 * width), s, atts


def _position_mean(table, inside):
    """Row i: the mean of the rows of block i of ``table`` that
    ``inside[i]`` marks, a prefix of the block: a segment mean over those
    rows, bit for bit, summed in position order from the first row and
    scaled by ``1 / count``."""
    blocks = table.reshape(inside.shape + table.shape[1:])
    out = blocks[:, 0].copy()
    for j in range(1, inside.shape[1]):
        np.add(out, blocks[:, j], out=out, where=inside[:, j, None])
    out *= 1.0 / inside.sum(axis=1, keepdims=True)
    return out


def _attention_grads(embeds, src_w, dst_w, score_w, layout, s, atts, live,
                     g_pooled):
    """The gradients of :func:`_attention` w.r.t. embeds, src_w, dst_w and
    score_w for the (n, 2k) adjoint ``g_pooled`` of its two directions'
    position means, already times ``1 / count``: bit for bit the rules of
    ``tests/oracles.unfused_attention`` (inside ``unfused_encoder``) in
    reverse order. The (2, n, T, k) table adjoint, ``g_pooled`` in the rows
    ``layout.inside`` marks, is freed once both directions' stacked block
    products are taken. The logits' gather by slot reads each pair once,
    at its live cell ``cells``, and the masked cells it also reads hold
    zero weights, so its gradient is that cell's plus 0.0. The pairs'
    (pairs, h) gradient is then formed one block of whole sequences at a
    time (about ``_BLOCK_FLOATS // h`` pairs, cut at the pair ``offsets``),
    bincounted into those sequences' own rows of the ``dst_w`` and
    ``src_w`` tables and freed: each cell still sums its adjoints in pair
    order from 0.0. Each table is freed once its products are taken. An
    input ``live`` marks dead gets none of its terms computed."""
    inside, offsets = layout.inside, layout.offsets
    e_live, src_live, dst_live, w_live = live
    t_len, width = layout.slot.shape[1], embeds.shape[1]
    adj = np.zeros((2,) + inside.shape + (width,))
    np.copyto(adj, g_pooled.reshape(len(g_pooled), 2, 1, -1)
              .transpose(1, 0, 2, 3), where=inside[:, :, None])
    # the block products' rules, then the softmax's
    g_embeds = None
    if e_live:
        g_e = np.matmul(atts.reshape(adj.shape[:2] + (t_len, t_len))
                        .transpose(0, 1, 3, 2), adj)
        g_embeds = np.add(g_e[1], g_e[0]).reshape(embeds.shape)
        del g_e
    g = np.matmul(adj, _blocks(embeds, t_len).transpose(0, 2, 1)
                  ).reshape(-1, t_len)
    del adj
    flat = atts.reshape(g.shape)
    g = flat * (g - (g * flat).sum(axis=1, keepdims=True))
    # the gather by slot, then the pair sigmoid's and the pair gathers'
    # rules, a block of sequences at a time, and the projections'
    g = g.reshape(2, -1).take(layout.cells, axis=1)
    g = (g[1] + g[0] + 0.0).reshape(-1, 1)
    g_score = s.T @ g if w_live else None
    h, projections = len(score_w), ((dst_w, layout.rows_b, dst_live),
                                    (src_w, layout.rows_a, src_live))
    tables = [np.empty((len(embeds), h)) if e_live or w_on else None
              for _, _, w_on in projections]
    size, first = _block_rows(h), 0
    n_seq = len(offsets) - 1 if e_live or src_live or dst_live else 0
    while first < n_seq:
        last = max(first + 1,
                   bisect.bisect_right(offsets, offsets[first] + size) - 1)
        lo, hi = offsets[first], offsets[last]
        r0, r1 = first * t_len, last * t_len
        block, sig = g[lo: hi] @ score_w.T, s[lo: hi]
        block *= sig
        block *= np.subtract(1.0, sig)
        for table, (_, rows, _) in zip(tables, projections):
            if table is not None:
                table[r0: r1] = _scatter_rows((r1 - r0, h), rows[lo: hi],
                                              block, r0)
        first = last
    g_ws = []
    for w, _, w_on in projections:
        table = tables.pop(0)       # freed when the next one is taken
        g_x, g_w, _ = _dense_grads(embeds, w, table, (e_live, w_on, False)) \
            if table is not None else (None,) * 3
        # a C-ordered copy of the transposed product, so that a sum over
        # the gradient reads its cells in row order
        g_ws.append(None if g_w is None else g_w.copy())
        if g_x is not None:
            g_embeds += g_x
    return [g_embeds, g_ws[1], g_ws[0], g_score]


class Segments:
    """A flat id list cut into segments ``ids[o_i : o_i + counts[i]]``,
    ``o_i = sum(counts[:i])``, laid out longest first (``order``): column
    j, the j-th id of every segment longer than j, lines up with a prefix
    of that order, so pooling is one vectorized step per position and
    visits each segment's ids in list order. ``span`` is the smallest and
    largest id (0 and -1 when there are none)."""

    def __init__(self, ids, counts):
        self.ids = np.asarray(ids, dtype=np.intp).reshape(-1)
        self.counts = np.asarray(counts, dtype=np.intp).reshape(-1)
        if (self.counts < 0).any() or self.counts.sum() != self.ids.size:
            raise ValueError(f"segment counts (sum {self.counts.sum()}) must "
                             f"be >= 0 and cover the {self.ids.size} ids")
        self.span = _span(self.ids)
        self.order = np.argsort(-self.counts, kind="stable")
        longer = self.counts.size - np.cumsum(
            np.bincount(self.counts, minlength=1))[:-1]
        starts = (np.cumsum(self.counts) - self.counts)[self.order]
        self.columns = [self.ids[starts[:k] + j] for j, k in enumerate(longer)]
        self.inverse_counts = 1.0 / np.maximum(self.counts, 1)[:, None]
        self.readers = None     # rows read, their layout: first backward

    def pool(self, table):
        """Row i: the sum of segment i's table rows, 0 if empty. Pools
        blocks of ``_BLOCK_FLOATS // d`` rows of the longest-first order:
        a row starts from a copy of its first id's row and adds the rest
        in list order, then its block goes to the output. The ids must be
        rows of ``table``."""
        n, d = self.counts.size, table.shape[1]
        out = np.empty((n, d))
        filled = self.columns[0].size if self.columns else 0
        out[self.order[filled:]] = 0.0
        size = _block_rows(d)
        acc = np.empty((min(size, filled), d))
        for lo in range(0, filled, size):
            first = self.columns[0][lo: lo + size]
            head = acc[: first.size]
            # "clip" fills head unbuffered; the ids are rows of the table
            np.take(table, first, axis=0, out=head, mode="clip")
            for col in self.columns[1:]:
                if col.size <= lo:
                    break
                ids = col[lo: lo + size]
                acc[: ids.size] += table.take(ids, axis=0)
            out[self.order[lo: lo + first.size]] = head
        return out

    def forward(self, table):
        out = self.pool(table)
        out *= self.inverse_counts
        return out

    def backward(self, n_rows, adj):
        """Gradient w.r.t. the pooled table of ``n_rows`` rows: ``adj /
        count`` into every row a segment read. When the segments read fewer
        than half the rows, it pools those rows alone into a
        :class:`RowGrad`, whose dense form is the table with each -0.0 made
        +0.0; otherwise it is the table, zero in the rows no segment reads.
        Scales ``adj`` in place, so it takes an array no one else reads."""
        if self.readers is None:
            # a stable sort of ids this narrow is numpy's radix sort
            narrow = self.ids.astype(np.min_scalar_type(n_rows - 1))
            by_id = np.argsort(narrow, kind="stable")
            counts = np.bincount(self.ids, minlength=n_rows)
            read = np.flatnonzero(counts)
            if 2 * read.size >= counts.size:
                read = None
            self.readers = read, Segments(
                np.repeat(np.arange(self.counts.size), self.counts)[by_id],
                counts if read is None else counts[read])
        read, readers = self.readers
        adj *= self.inverse_counts
        pooled = readers.pool(adj)
        return pooled if read is None else RowGrad(read, pooled)


class Tape:
    """Computation graph builder, evaluator and differentiator."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.params: dict[str, Node] = {}

    # ------------------------------------------------------------------ inputs

    def _append(self, op, inputs=(), aux=None, name=None):
        node = Node(len(self.nodes), op, tuple(inputs), aux, name)
        self.nodes.append(node)
        return node

    def param(self, name, value):
        """A named input that :meth:`backward` differentiates. Names must be
        unique per tape."""
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name!r}")
        node = self._append("param", name=name)
        node.value = _as_f64(value)
        self.params[name] = node
        return node

    def constant(self, value):
        """An input that is never differentiated."""
        node = self._append("const")
        node.value = _as_f64(value)
        return node

    def set_param(self, name, value):
        """Rebind a parameter value; next forward() sees the new value."""
        self.params[name].value = _as_f64(value)

    # --------------------------------------------------------------- operators

    def mul(self, a, b):
        return self._append("mul", (a, b))

    def encoder(self, items, ids, src_w, dst_w, score_w, combine_w,
                combine_b, lengths):
        """The sequence encoder over n sequences whose item ids ``ids``
        holds concatenated, sequence i the next ``lengths[i]``: it gathers
        their rows of the (n_items, k) table ``items`` into blocks of T =
        ``max(lengths)`` rows, block i's first ``lengths[i]`` sequence i's
        and the padded rest row 0's. Each pair (m, n) inside a sequence
        gets, once, the content logit
        ``sigmoid(src_w @ e_m + dst_w @ e_n) @ score_w`` for (h, k)
        ``src_w`` and ``dst_w`` and an (h, 1) ``score_w``, plus the bias
        ``-exp(|m - n|)``. In the forward direction position n attends to
        sources m <= n, in the backward one to m >= n: a masked row
        softmax, all zero on padded rows, whose weights mix the block's
        rows. Each sequence's mean over its positions of the two outputs
        side by side goes through ``relu(. @ combine_w.T + combine_b)`` for
        a (d, 2k) ``combine_w`` and a length-d ``combine_b``: the (n, d)
        value. Bit for bit ``tests/oracles.unfused_encoder``, keeping the
        gathered rows, the pairs' sigmoid table, both directions' weights
        as one (2, n * T, T) array and the pooled rows.

        Its :class:`EncoderLayout` is built here, once, its masks from the
        biases cached per T; each forward checks its ids' span against the
        table's rows.

        Its backward frees the (2, n, T, k) table adjoint once used, and
        forms and scatters the pairs' gradient one block of whole sequences
        at a time (:func:`_attention_grads`)."""
        lengths = np.asarray(lengths, dtype=np.intp)
        if lengths.ndim != 1 or not lengths.size or lengths.min() < 1:
            raise ValueError(f"sequence lengths must be >= 1, not {lengths}")
        ids = np.asarray(ids, dtype=np.intp).reshape(-1)
        if ids.size != lengths.sum():
            raise ValueError(f"{ids.size} item ids for sequences of "
                             f"{lengths.sum()} items")
        t_len = int(lengths.max())
        before, bias = _encoder_template(t_len)
        inside = before[lengths - 1]
        # [sequence, n, m]: the pairs inside a sequence, one slot each, in
        # the order of their cells
        live = inside[:, :, None] & inside[:, None, :]
        cells = np.flatnonzero(live)
        slot = np.zeros(live.size, dtype=np.intp)
        slot[cells] = np.arange(cells.size)
        # pair i attends from source m to target n: rows_b holds block row
        # n, rows_a block row m
        rows_b, pos_m = np.divmod(cells, t_len)
        rows_a = rows_b - rows_b % t_len + pos_m
        # sequence i's pairs are pairs offsets[i] to offsets[i + 1]
        offsets = [0] + np.cumsum(lengths * lengths).tolist()
        masks = np.where(live, bias[:, None], -np.inf).reshape(2, -1, t_len)
        gather = np.zeros(inside.size, dtype=np.intp)
        gather[inside.reshape(-1)] = ids
        return self._append(
            "encoder", (items, src_w, dst_w, score_w, combine_w, combine_b),
            aux=EncoderLayout(rows_a, rows_b, slot.reshape(-1, t_len), masks,
                              cells, offsets, _span(gather), inside, gather))

    def pair_loss(self, items, prefs, cand_ids, k_neg):
        """Mean over (row, negative) of ``softplus(p_neg - p_pos)``, ``p =
        sigmoid(d * mean(items[c] * prefs[row]))``, for candidates in groups
        of ``1 + k_neg`` per prefs row, positive first: bit for bit
        ``tests/oracles.unfused_pair_loss``. Keeps the (rows, 1 + k_neg)
        probabilities and the pairs' ``p_neg - p_pos``, which its backward
        reads; the candidates' span is taken here and checked by each
        forward."""
        cand = np.asarray(cand_ids, dtype=np.intp)
        return self._append("pair_loss", (items, prefs),
                            aux=(cand, k_neg, _span(cand)))

    def sum(self, a):
        return self._append("sum", (a,))

    def segment_mean(self, table, ids, counts):
        """Row i is the mean of ``table[ids[o_i : o_i + counts[i]]]`` (see
        :class:`Segments`); empty segments give zero rows. It sums in list
        order, then multiplies by ``1 / count`` (a chain of sums and a
        product, bit for bit); its gradient is one scatter of
        ``adjoint / count``.
        """
        return self._append("segment_mean", (table,),
                            aux=Segments(ids, counts))

    def conv(self, features, inherent, rows, ids, counts, latent_w,
             latent_b, merge_w, merge_b):
        """One diffusion layer: row i mean-pools segment i of ``features``
        (as :meth:`segment_mean`), projects the pool with ``relu(pool @
        latent_w.T + latent_b)``, concatenates ``inherent[rows[i]]`` and
        that latent row, merges them with ``relu(. @ merge_w.T + merge_b)``
        and L2-normalizes the row (zero rows stay zero). Bit for bit
        ``tests/oracles.unfused_conv``. Between passes it keeps the pool, the
        merge rows' norms and the merge output's mask ``> 0`` beside its
        value; its backward rebuilds the concatenation. Its gradient
        w.r.t. ``inherent`` is a :class:`RowGrad` while ``rows`` are
        strictly increasing, and so is the one w.r.t. ``features`` when
        its segments read fewer than half its rows.
        """
        return self._append(
            "conv", (features, inherent, latent_w, latent_b, merge_w,
                     merge_b),
            aux=(Segments(ids, counts), np.asarray(rows, dtype=np.intp)))

    # -------------------------------------------------------------- evaluation

    def _err(self, node, msg):
        return ShapeError(f"node {node.idx} ({node.op}"
                          f"{', ' + node.name if node.name else ''}): {msg}")

    def forward(self):
        """Evaluate every node in topological order into its ``value``;
        deterministic given the param and constant bindings."""
        for node in self.nodes:
            if node.op not in ("param", "const"):
                node.value = self._compute(node)

    def _compute(self, node):
        op = node.op
        vals = [i.value for i in node.inputs]
        if op == "mul":
            a, b = vals
            if a.shape != b.shape:
                raise self._err(node, f"mul shapes {a.shape} * {b.shape}")
            return a * b
        if op == "encoder":
            return self._encoder(node, *vals)
        if op == "pair_loss":
            (items, prefs), (cand, k_neg, span) = vals, node.aux
            if items.ndim != 2 or prefs.shape[1:] != items.shape[1:] or \
                    k_neg < 1 or cand.shape != (len(prefs) * (1 + k_neg),):
                raise self._err(node, f"pair_loss shapes {items.shape}, "
                                      f"{prefs.shape}, {cand.shape} at k_neg "
                                      f"{k_neg}")
            self._check_span(node, "candidate", span, items)
            node.saved = _pair_terms(items, prefs, cand)
            return np.asarray(np.logaddexp(0.0, node.saved[1]).mean(axis=0))
        if op == "sum":
            return np.asarray(vals[0].sum())
        if op == "segment_mean":
            self._check_segments(node, node.aux, vals[0])
            return node.aux.forward(vals[0])
        if op == "conv":
            return self._conv(node, *vals)
        raise self._err(node, "unknown op")

    def _dense(self, node, x, w, b, out=None):
        """``relu(x @ w.T + b)``, in the operations of
        ``tests/oracles.unfused_dense``, written into ``out`` if given."""
        if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[1] \
                or b.shape != w.shape[:1]:
            raise self._err(node, f"dense shapes {x.shape} x {w.shape}.T"
                                  f" + {b.shape}")
        y = np.matmul(x, w.T, out=out)
        y += b
        return np.maximum(y, 0.0, out=y)

    def _encoder(self, node, items, src_w, dst_w, score_w, combine_w,
                 combine_b):
        """The forward of an ``encoder`` node: the operations of
        ``tests/oracles.unfused_encoder`` in order. Saves the gathered
        rows, the pairs' sigmoid table, both directions' weights and the
        pooled rows, all its backward reads besides the inputs; the
        attention table is dropped once pooled."""
        layout = node.aux
        if items.ndim != 2 or src_w.ndim != 2 or dst_w.shape != src_w.shape \
                or src_w.shape[1:] != items.shape[1:] or \
                score_w.shape != (src_w.shape[0], 1):
            raise self._err(node, f"encoder shapes {items.shape}, "
                                  f"{src_w.shape}, {dst_w.shape}, "
                                  f"{score_w.shape}")
        self._check_span(node, "item", layout.span, items)
        embeds = items.take(layout.gather, axis=0)
        table, s, atts = _attention(embeds, src_w, dst_w, score_w, layout)
        pooled = _position_mean(table, layout.inside)
        node.saved = embeds, s, atts, pooled
        return self._dense(node, pooled, combine_w, combine_b)

    def _check_span(self, node, kind, span, table):
        """Refuse by name ids whose smallest and largest, ``span``, are
        not both rows of ``table``."""
        lo, hi = span
        if lo < 0 or hi >= table.shape[0]:
            raise self._err(node, f"{kind} ids span [{lo}, {hi}], outside "
                                  f"the table's {table.shape[0]} rows")

    def _check_segments(self, node, segments, table):
        if table.ndim != 2:
            raise self._err(node, f"segment table of shape {table.shape}")
        self._check_span(node, "segment", segments.span, table)

    def _merge_input(self, node, inherent, pooled, latent_w, latent_b):
        """A ``conv`` node's concatenation of its inherent rows and the
        latent dense of its pool, each written into its half of one
        buffer. The forward has checked that the rows are the table's."""
        rows, width = node.aux[1], inherent.shape[1]
        merged = np.empty((rows.size, width + latent_w.shape[0]))
        # "clip" fills the strided half unbuffered
        np.take(inherent, rows, axis=0, out=merged[:, :width], mode="clip")
        self._dense(node, pooled, latent_w, latent_b, out=merged[:, width:])
        return merged

    def _conv(self, node, features, inherent, latent_w, latent_b, merge_w,
              merge_b):
        """The forward of a ``conv`` node: the operations of
        ``tests/oracles.unfused_conv`` in order. Saves the pool, the merge rows' norms and the merge
        output's mask ``> 0``: all its backward reads of the merge output,
        and what rebuilds the concatenation."""
        segments, rows = node.aux
        self._check_segments(node, segments, features)
        if inherent.ndim != 2 or rows.shape != segments.counts.shape or \
                rows.size and not 0 <= rows.min() <= rows.max() < \
                len(inherent):
            raise self._err(node, f"{rows.size} rows of an inherent table of "
                                  f"shape {inherent.shape} for "
                                  f"{segments.counts.size} segments")
        pooled = segments.forward(features)
        pre = self._dense(node, self._merge_input(
            node, inherent, pooled, latent_w, latent_b), merge_w, merge_b)
        out, norms = l2_normalize_rows(pre)
        node.saved = pooled, norms, pre > 0
        return out

    # ------------------------------------------------------------------- backward

    def backward(self, *roots, adjoint=None):
        """The gradients of the sum of the scalar ``roots``: a new mapping
        from each param the pass reaches to its gradient. Each root is
        seeded with ones, or one root alone with a given ``adjoint`` of its
        shape (a gradient another tape computed for its value, say).

        Adjoints live in a list local to the call, indexed by node id, and
        are propagated in reverse topological order to live nodes only: a
        node no param feeds (a segment mean over a constant table, say) gets
        no adjoint and runs no gradient rule, and roots no param feeds give
        ``{}``. Each adjoint is released once its rule has handed it to the
        inputs, or once its param takes it as its gradient. Gradients are
        summed in arrival order, in place, so an input several roots reach
        sums theirs from the last root back. Every rule returns new arrays,
        so the pass writes only arrays it made; it reads the caller's seed.
        A :class:`RowGrad` stays row-sparse until it meets a dense gradient
        or reaches its node, where it becomes a dense table. Forward values
        stay."""
        if not roots:
            raise ValueError("backward() needs at least one root node")
        if adjoint is not None and len(roots) > 1:
            raise ValueError(f"an adjoint seeds one root, not {len(roots)}")
        if not all(isinstance(root, Node) for root in roots):
            raise TypeError("roots are nodes; pass a seed as adjoint=")
        for k, root in enumerate(roots):
            if root.value is None:
                raise ValueError("run forward() before backward()")
            if root in roots[:k]:
                raise ValueError(f"root node {root.idx} is given twice")
            if adjoint is None and root.value.size != 1:
                raise ValueError(f"root node {root.idx} is not scalar "
                                 f"(shape {root.value.shape})")
        if adjoint is not None and np.shape(adjoint) != roots[0].value.shape:
            raise ValueError(f"adjoint shape {np.shape(adjoint)} does not "
                             f"match root shape {roots[0].value.shape}")
        roots = [root for root in roots if root.live]
        if not roots:
            return {}
        adjoints = [None] * (max(root.idx for root in roots) + 1)
        for root in roots:
            adjoints[root.idx] = np.ones_like(root.value) if adjoint is None \
                else _as_f64(adjoint)
        grads = {}
        for node in reversed(self.nodes[: len(adjoints)]):
            # consumed below; nothing reads it again
            adj, adjoints[node.idx] = adjoints[node.idx], None
            if adj is None:
                continue
            if isinstance(adj, RowGrad):
                adj = adj.dense(node.value.shape)
            if node.op == "param":
                # a param appears once per tape, so this is its whole
                # gradient; the caller's seed of a param root, a copy
                grads[node.name] = adj.copy() if adj is adjoint else adj
                continue
            in_grads = self._input_grads(node, adj)
            del adj     # freed before the sums below
            for inp, grad in zip(node.inputs, in_grads):
                if grad is not None and inp.live:
                    i = inp.idx
                    adjoints[i] = grad if adjoints[i] is None else \
                        _add_adjoints(adjoints[i], grad, inp.value.shape)
        return grads

    def _input_grads(self, node, adj):
        """One gradient per input, each a new array; the product rules skip
        (None) an input that is not live."""
        op = node.op
        vals = [i.value for i in node.inputs]
        if op == "mul":
            a, b = vals
            a_live, b_live = (i.live for i in node.inputs)
            return [adj * b if a_live else None, adj * a if b_live else None]
        if op == "encoder":
            return self._encoder_grads(node, vals, adj)
        if op == "pair_loss":
            return _pair_grads(*vals, node.aux[0], *node.saved, adj,
                               [i.live for i in node.inputs])
        if op == "sum":
            return [np.full(vals[0].shape, float(adj))]
        if op == "segment_mean":
            return [node.aux.backward(len(vals[0]), adj.copy())]
        if op == "conv":
            return self._conv_grads(node, vals, adj)
        raise self._err(node, "unknown op in backward")

    @staticmethod
    def _encoder_grads(node, vals, adj):
        """An ``encoder`` node's input gradients: the rules of
        ``tests/oracles.unfused_encoder`` in reverse order. The
        projection's; the block mean's, ``adj / count``, which
        :func:`_attention_grads` spreads over each sequence's live rows as
        the attention table's adjoint; the attention's; the gather's, which
        scatters the gathered rows' gradient into the table. An input that
        is not live gets none of its terms computed."""
        items, src_w, dst_w, score_w, combine_w, _ = vals
        layout, (embeds, s, atts, pooled) = node.aux, node.saved
        live = [i.live for i in node.inputs]
        attended = any(live[:4])
        g, g_cw, g_cb = _dense_grads(pooled, combine_w, adj * (node.value > 0),
                                     (attended, *live[4:]))
        if not attended:
            return [None] * 4 + [g_cw, g_cb]
        g *= 1.0 / layout.inside.sum(axis=1, keepdims=True)
        g_embeds, *g_ws = _attention_grads(embeds, src_w, dst_w, score_w,
                                           layout, s, atts, live[:4], g)
        return [None if g_embeds is None else
                _scatter_rows(items.shape, layout.gather, g_embeds), *g_ws,
                g_cw, g_cb]

    def _conv_grads(self, node, vals, adj):
        """A ``conv`` node's input gradients: the rules of
        ``tests/oracles.unfused_conv`` in reverse order, each temporary
        dropped once used; the features gradient comes before the inherent
        one, as the oracle pools after it gathers the inherent rows, and the
        inherent one is a :class:`RowGrad` for strictly increasing rows. The concatenation is rebuilt as the
        forward built it and freed once the merge weights' gradients and
        the latent mask are taken."""
        (features, inherent, latent_w, latent_b, merge_w, _), \
            (segments, rows) = vals, node.aux
        pooled, norms, positive = node.saved
        f_live, i_live, lw_live, lb_live, mw_live, mb_live = \
            (i.live for i in node.inputs)
        latent_live = f_live or lw_live or lb_live
        width = inherent.shape[1]
        # row normalization, then the merge dense
        g = self._l2norm_grad(norms, node.value, adj)
        g *= positive
        merged = self._merge_input(node, inherent, pooled, latent_w, latent_b)
        _, g_mw, g_mb = _dense_grads(merged, merge_w, g,
                                     (False, mw_live, mb_live))
        latent_on = merged[:, width:] > 0 if latent_live else None
        del merged
        g_merged = g @ merge_w if i_live or latent_live else None
        del g
        # the concatenation's halves: the latent dense's, and the inherent
        # rows' as a copy, so that g_merged is freed before the pool's
        # backward
        g = g_merged[:, width:] * latent_on if latent_live else None
        g_looked = g_merged[:, :width].copy() if i_live else None
        del g_merged
        g_pool, g_lw, g_lb = _dense_grads(
            pooled, latent_w, g, (f_live, lw_live, lb_live))
        del g
        g_features = segments.backward(len(features), g_pool) if f_live \
            else None
        del g_pool
        g_rows = None if not i_live else RowGrad(rows, g_looked) \
            if _increasing(rows) else _scatter_rows(inherent.shape, rows,
                                                    g_looked)
        return [g_features, g_rows, g_lw, g_lb, g_mw, g_mb]

    @staticmethod
    def _l2norm_grad(n, y, adj, eps=1e-12):
        """Gradient of the row normalization whose rows' norms were ``n``
        and whose output was ``y``, for its adjoint ``adj``."""
        ok = n >= eps
        # a C-ordered product sums each row as the masked copies did
        out = np.multiply(y, adj, order="C")
        dots = out.sum(axis=1, keepdims=True)
        np.subtract(adj, np.multiply(y, dots, out=out), out=out)
        out /= np.where(ok, n, 1.0)
        np.copyto(out, 0.0, where=~ok)
        return out


def finite_difference_check(tape, loss, param_name, epsilon=1e-6):
    """Max relative error between analytic and central-difference gradients.

    Perturbs every coordinate of the named parameter by +/- epsilon,
    re-running the forward pass each time. The relative error of coordinate
    i is ``|a_i - n_i| / max(1e-12, |a_i| + |n_i|)``; the analytic gradient
    of a parameter the loss does not reach is zero. Runs in float64.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if param_name not in tape.params:
        raise ValueError(f"no parameter named {param_name!r} on the tape")
    pnode = tape.params[param_name]
    tape.forward()
    analytic = tape.backward(loss).get(param_name,
                                       np.zeros_like(pnode.value))
    base = pnode.value.copy()
    numeric = np.zeros_like(base)
    flat_base = base.reshape(-1)
    flat_num = numeric.reshape(-1)
    for i in range(flat_base.size):
        orig = flat_base[i]
        flat_base[i] = orig + epsilon
        pnode.value = flat_base.reshape(base.shape)
        tape.forward()
        hi = float(loss.value)
        flat_base[i] = orig - epsilon
        pnode.value = flat_base.reshape(base.shape)
        tape.forward()
        lo = float(loss.value)
        flat_base[i] = orig
        flat_num[i] = (hi - lo) / (2.0 * epsilon)
    pnode.value = base
    tape.forward()
    denom = np.maximum(1e-12, np.abs(analytic) + np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / denom))
