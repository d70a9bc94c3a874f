"""Independent scalar-loop reference implementations used as test oracles.

Everything here is written as plainly as possible (explicit loops, no
shared code with the package) so the oracles stay independent of the
implementations they check. The exceptions are the tape helpers:
:func:`tape_value` (the forward value of one package builder over plain
arrays, through which tests reach the builders the program runs),
:func:`full_stack_tape` (the package's builders composed on a single
tape, against which the feature-param route is compared and finite
differences are taken), :func:`feature_loss` (one batch loss over a
constant item-feature table, against which adaptation is checked). The
unfused chains :func:`unfused_encoder` (through :func:`unfused_attention`
and :func:`unfused_dense`), :func:`unfused_pair_loss` and
:func:`unfused_conv` replay the rules of the nodes their fused ops
replaced in numpy, scattering with ``np.add.at``;
:func:`out_of_place_backward` replays the tape's backward with every
adjoint sum a new array. :func:`per_window_task` draws an episode's
windows one scalar draw each. :func:`bpr_probe_loss` watches a BPR model
converge. The read accessors :func:`neighbors`,
:func:`degree`, :func:`all_params` and :func:`report_from_json` serve
only the tests, and :func:`neighbor_plan` draws the plan that an
item-feature pass drew and dropped.
"""

import copy
import json
import math

import numpy as np


def sigmoid(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def reference_position_bias(t_len):
    fw = [[-math.exp(abs(m - n)) if m <= n else -math.inf
           for n in range(t_len)] for m in range(t_len)]
    bw = [[-math.exp(abs(m - n)) if m >= n else -math.inf
           for n in range(t_len)] for m in range(t_len)]
    return np.array(fw), np.array(bw)


def reference_attention(embeds, score_w, src_w, dst_w, bias):
    """Literal per-pair evaluation of the correlation/attention equations.

    For every target position n: logits over sources m are
    score_w^T sigmoid(src_w e_m + dst_w e_n) + bias[m][n]; the attention
    distribution is the softmax over the finite logits; the output is the
    attention-weighted sum of source embeddings.
    """
    t_len, dim = embeds.shape
    out = np.zeros((t_len, dim))
    att_all = np.zeros((t_len, t_len))
    for n in range(t_len):
        logits = []
        for m in range(t_len):
            hidden = [sigmoid(sum(src_w[r][c] * embeds[m][c]
                                  for c in range(dim))
                              + sum(dst_w[r][c] * embeds[n][c]
                                    for c in range(dim)))
                      for r in range(dim)]
            content = sum(score_w[r][0] * hidden[r] for r in range(dim))
            logits.append(content + bias[m][n])
        finite = [v for v in logits if v != -math.inf]
        if not finite:
            continue
        top = max(finite)
        weights = [math.exp(v - top) if v != -math.inf else 0.0
                   for v in logits]
        total = sum(weights)
        for m in range(t_len):
            att = weights[m] / total
            att_all[n][m] = att
            for c in range(dim):
                out[n][c] += att * embeds[m][c]
    return out, att_all


def reference_preference(fw_out, bw_out, combine_w, combine_b):
    t_len, dim = fw_out.shape
    pooled = [sum(fw_out[m][c] for m in range(t_len)) / t_len
              for c in range(dim)]
    pooled += [sum(bw_out[m][c] for m in range(t_len)) / t_len
               for c in range(dim)]
    out = []
    for r in range(dim):
        v = combine_b[r] + sum(combine_w[r][c] * pooled[c]
                               for c in range(2 * dim))
        out.append(max(v, 0.0))
    return np.array(out)


def reference_encode(embeds, params):
    """Full encoder oracle combining the pieces above (tied directions)."""
    from metacsr import sequence as seq  # names only, no logic reused

    fw_bias, bw_bias = reference_position_bias(embeds.shape[0])
    fw, _ = reference_attention(embeds, params[seq.ATT_SCORE_W],
                                params[seq.ATT_SRC_W], params[seq.ATT_DST_W],
                                fw_bias)
    bw, _ = reference_attention(embeds, params[seq.ATT_SCORE_W],
                                params[seq.ATT_SRC_W], params[seq.ATT_DST_W],
                                bw_bias)
    return reference_preference(fw, bw, params[seq.COMBINE_W],
                                params[seq.COMBINE_B])


def reference_convolve(inherent, neighbors, latent_w, latent_b, merge_w,
                       merge_b):
    """Scalar-loop single convolution: mean, project, merge, normalize."""
    dim = len(inherent)
    if neighbors:
        pooled = [sum(nb[c] for nb in neighbors) / len(neighbors)
                  for c in range(dim)]
    else:
        pooled = [0.0] * dim
    latent = [max(latent_b[r] + sum(latent_w[r][c] * pooled[c]
                                    for c in range(dim)), 0.0)
              for r in range(dim)]
    both = list(inherent) + latent
    fused = [max(merge_b[r] + sum(merge_w[r][c] * both[c]
                                  for c in range(2 * dim)), 0.0)
             for r in range(dim)]
    norm = math.sqrt(sum(v * v for v in fused))
    if norm < 1e-12:
        return np.zeros(dim)
    return np.array([v / norm for v in fused])


def reference_pairwise_loss(p_pos, p_negs):
    total = 0.0
    for p_neg in p_negs:
        total += -math.log(sigmoid(p_pos - p_neg))
    return total / len(p_negs)


def reference_auc(pos_scores, neg_scores):
    wins = 0.0
    for p in pos_scores:
        for n in neg_scores:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos_scores) * len(neg_scores))


def reference_average_precision(ranked_relevance):
    """AveP over a ranked relevance list (1 = relevant)."""
    hits = 0
    total = 0.0
    for rank, rel in enumerate(ranked_relevance, start=1):
        if rel:
            hits += 1
            total += hits / rank
    return total / sum(ranked_relevance)


def reference_hit_at_n(ranked_relevance, n):
    return 1.0 if any(ranked_relevance[:n]) else 0.0


def reference_ndcg_at_n(ranked_relevance, n):
    dcg = sum(rel / math.log2(rank + 1)
              for rank, rel in enumerate(ranked_relevance[:n], start=1))
    ideal = sorted(ranked_relevance, reverse=True)
    idcg = sum(rel / math.log2(rank + 1)
               for rank, rel in enumerate(ideal[:n], start=1))
    return dcg / idcg if idcg > 0 else 0.0


def skewed_pairs(rng, n_users, n_items, n_pairs):
    """Zipf-like item popularity and user activity, with repeats; the
    highest ids are left isolated."""
    users = np.minimum(rng.zipf(1.6, n_pairs) - 1, n_users - 2)
    items = np.minimum(rng.zipf(1.3, n_pairs) - 1, n_items - 2)
    return list(zip(users.tolist(), items.tolist()))


def reference_neighbor_plan(pairs, n_users, n_items, cap, depth, rng):
    """Per-layer, per-entity neighbor lists from set-built adjacency: all
    neighbors up to ``cap``, else a sorted ``rng.choice`` sample of cap
    positions, one call per such entity in entity order."""
    adjacency = [set() for _ in range(n_users + n_items)]
    for user, item in pairs:
        adjacency[user].add(n_users + item)
        adjacency[n_users + item].add(user)
    adjacency = [sorted(s) for s in adjacency]
    plan = []
    for _ in range(depth):
        layer = []
        for nbrs in adjacency:
            if len(nbrs) <= cap:
                layer.append(list(nbrs))
            else:
                picked = rng.choice(len(nbrs), size=cap, replace=False)
                layer.append(sorted(nbrs[i] for i in picked))
        plan.append(layer)
    return plan


def reference_synthetic_world(spec):
    """A synthetic world as one ``Generator.choice`` call per chain step
    draws it: the chains (a permutation per chain, or per state
    ``successors`` distinct items with Dirichlet(0.35) weights), then per
    user its chain, length and start state and one step per record. A
    step stays on the user's chain when ``random() < mix_weight``; else a
    second ``random() < 0.5`` with several chains hops to another one,
    drawn by ``integers(0, n_chains - 1)``, and otherwise the next state
    is ``integers(0, n_items)``. A chain step draws ``choice`` over the
    state's successors in item order. Returns the records as (user, item,
    rating, timestamp) tuples, the chains and the users' chains."""
    rng = np.random.default_rng(spec.seed)
    chains = []
    for _ in range(spec.n_chains):
        if spec.chain_kind == "permutation":
            order = rng.permutation(spec.n_items)
            chains.append({state: {int(order[state]): 1.0}
                           for state in range(spec.n_items)})
            continue
        table = {}
        for state in range(spec.n_items):
            succ = rng.choice(spec.n_items, size=spec.successors,
                              replace=False)
            weights = rng.dirichlet(np.full(spec.successors, 0.35))
            table[state] = {int(s): float(w) for s, w in zip(succ, weights)}
        chains.append(table)
    records, user_chain = [], {}
    for user in range(spec.n_regular + spec.n_new):
        chain_id = int(rng.integers(0, spec.n_chains))
        user_chain[user] = chain_id
        length = int(rng.integers(spec.seq_len_min, spec.seq_len_max + 1))
        state = int(rng.integers(0, spec.n_items))
        for step in range(length):
            records.append((user, state, None, step))
            walk = chain_id
            if rng.random() >= spec.mix_weight:
                if spec.n_chains > 1 and rng.random() < 0.5:
                    other = int(rng.integers(0, spec.n_chains - 1))
                    walk = other if other < chain_id else other + 1
                else:
                    state = int(rng.integers(0, spec.n_items))
                    continue
            dist = chains[walk][state]
            items = sorted(dist)
            probs = np.array([dist[i] for i in items])
            state = int(items[rng.choice(len(items), p=probs / probs.sum())])
    return records, chains, user_chain


def neighbors(graph, entity):
    """Entity ``entity``'s sorted neighbors in an interaction graph."""
    lo, hi = graph.indptr[entity], graph.indptr[entity + 1]
    return tuple(graph.indices[lo:hi].tolist())


def degree(graph, entity):
    return int(graph.indptr[entity + 1] - graph.indptr[entity])


def all_params(params):
    """Both partitions of a ``ModelParams`` in one mapping."""
    return {**params.theta1, **params.theta2}


def report_from_json(text):
    """The ``MetricsReport`` a ``reports/metrics_*.json`` file's ``text``
    holds."""
    from metacsr.metrics import MetricsReport

    raw = json.loads(text)
    meta = raw.get("meta", {})
    return MetricsReport(
        auc=raw["auc"], map=raw["map"],
        hit={int(k): v for k, v in raw["hit"].items()},
        ndcg={int(k): v for k, v in raw["ndcg"].items()},
        n_users=raw["users"],
        seed=meta.get("seed"), config_hash=meta.get("config_hash"),
        scenario=meta.get("scenario"), model=meta.get("model"),
    )


def neighbor_plan(graph, config, rng):
    """The neighbor plan a ``losses.ItemFeatures`` pass draws from ``rng``
    (the pass itself drops it once its tape is built)."""
    from metacsr import graph as gr

    return gr.sample_neighbor_plan(graph, config.neighbor_cap,
                                   config.diffusion_depth, rng)


def tape_value(build, *arrays):
    """Forward value of ``build(tape, *constants)`` on a fresh tape, each
    of ``arrays`` bound as a constant (a dict as a dict of constants); a
    tuple of nodes gives a tuple of values."""
    from metacsr.autodiff import Tape

    tape = Tape()
    out = build(tape, *({k: tape.constant(v) for k, v in a.items()}
                        if isinstance(a, dict) else tape.constant(a)
                        for a in arrays))
    tape.forward()
    return tuple(n.value for n in out) if isinstance(out, tuple) else out.value


def bpr_probe_loss(model, histories, n_items):
    """A BPR model's mean ``softplus(-u @ (i_pos - i_neg))`` over every
    ``len(pairs) // 64``-th (user, item) pair of ``histories`` in user
    order, the next item id (mod ``n_items``) as each one's negative: a
    convergence probe of its factors."""
    pairs = [(u, it) for u, items in sorted(histories.items())
             for it in items]
    users, items = model.user_factors, model.item_factors
    return float(np.mean([
        np.logaddexp(0.0, -(users[u] @ (items[pos] - items[(pos + 1) %
                                                             n_items])))
        for u, pos in pairs[:: max(1, len(pairs) // 64)]]))


def scalar_negatives(excluded, n_items, k, rng):
    """Per set of ``excluded`` in order, ``k`` distinct items outside it
    by rejection, one ``rng.integers(0, n_items)`` at a time."""
    out = []
    for positives in excluded:
        picked = []
        while len(picked) < k:
            draw = int(rng.integers(0, n_items))
            if draw not in positives and draw not in picked:
                picked.append(draw)
        out.append(picked)
    return out


def per_window_task(histories, eligible, cfg, rng, t_min, t_max):
    """One episode as ``meta.sample_task`` drew it one window at a time:
    ``n_way`` sorted users, then per user ``k_support + k_query`` distinct
    targets and, per target, its window length from its own scalar
    ``rng.integers``. Returns (users, support, query), each window a
    (user, items, target) triple."""
    need = cfg.k_support + cfg.k_query
    picked = sorted(rng.choice(len(eligible), size=cfg.n_way, replace=False))
    users, support, query = [], [], []
    for idx in picked:
        user = eligible[idx]
        users.append(user)
        history = histories[user]
        targets = np.arange(t_min, len(history))
        chosen = rng.choice(len(targets), size=need, replace=False)
        for j, pick in enumerate(chosen):
            end = int(targets[pick])
            t_len = int(rng.integers(t_min, min(t_max, end) + 1))
            window = (user, tuple(history[end - t_len:end]), history[end])
            (support if j < cfg.k_support else query).append(window)
    return users, support, query


def drawn_negatives(sequences, k_neg, rng, histories, n_items):
    """The negatives a batch loss over ``sequences`` draws from ``rng``:
    per sequence in order, ``k_neg`` distinct items outside the set of the
    user's history by rejection. Draws from a copy, so ``rng`` is
    untouched."""
    return scalar_negatives([set(histories[s.user])
                             for s in sequences], n_items, k_neg,
                            copy.deepcopy(rng))


def masked_softmax_formula(z):
    """Row softmax over the finite entries, all-zero rows where none is
    finite, by boolean-index copies."""
    finite = np.isfinite(z)
    any_finite = finite.any(axis=1)
    rowmax = np.where(any_finite,
                      np.max(np.where(finite, z, -np.inf), axis=1), 0.0)
    e = np.exp(z - rowmax[:, None])
    e[~finite] = 0.0
    s = e.sum(axis=1)
    out = np.zeros_like(z)
    nz = s > 0
    out[nz] = e[nz] / s[nz, None]
    return out


def unfused_dense(x, w, b, adj):
    """``relu(x @ w.T + b)`` as a ``transpose``, a ``matmul`` and a
    bias-to-rows ``add`` then a relu compute it, and the gradients w.r.t.
    x, w and b that their rules hand back for the output adjoint ``adj``."""
    pre = x @ w.T + b[None, :]
    g = adj * (pre > 0)                                         # relu
    # add: g to the product, its column sums to b; matmul; transpose
    return np.maximum(pre, 0.0), g @ w, (x.T @ g).T, g.sum(axis=0)


def _sigmoid_array(x):
    """The two-branch logistic: ``1/(1+e)`` for x >= 0, else ``e/(1+e)``."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _gathered_grad(table, ids, adj):
    """Gradient of ``table[ids]`` for the adjoint ``adj``."""
    grad = np.zeros_like(table)
    np.add.at(grad, ids, adj)
    return grad


def unfused_pair_logits(a, b, w, rows_a, rows_b, adj):
    """``sigmoid(a[rows_a] + b[rows_b]) @ w``, reshaped to a vector, as a
    ``pair_sigmoid`` node (two lookups, an ``add`` and a ``sigmoid``), a
    ``matmul`` and a ``reshape`` compute it, and the gradients w.r.t. a, b
    and w that their rules hand back, in reverse node order, for the
    output adjoint ``adj``."""
    hidden = _sigmoid_array(a[rows_a] + b[rows_b])
    out = (hidden @ w).reshape(-1)
    adj = adj.reshape(-1, 1)                                    # reshape
    g, g_w = adj @ w.T, hidden.T @ adj                          # matmul
    g = g * hidden * (1.0 - hidden)                             # sigmoid
    return (out, _gathered_grad(a, rows_a, g), _gathered_grad(b, rows_b, g),
            g_w)


def unfused_attention(embeds, src_w, dst_w, score_w, rows_a, rows_b, slot,
                      masks, adj):
    """Masked attention as the nodes ``attention`` replaced compute it: a
    ``transpose`` and a ``matmul`` for ``srcs = embeds @ src_w.T``, the
    same for ``dsts``, ``pair_logits``, a ``lookup`` of the logits by
    ``slot``; per mask a ``const``, an ``add``, a ``masked_softmax_rows``
    and a ``block_matmul`` over blocks of T rows; and a ``concat``. Returns
    the value and the gradients w.r.t. embeds, src_w, dst_w and score_w
    that their rules hand back, in reverse node order, for the output
    adjoint ``adj``; each block product reads its part of ``adj`` as a
    contiguous table, as the pooling that followed it in the encoder
    handed it."""
    t_len, width = slot.shape[1], embeds.shape[1]

    def blocks(x):
        return x.reshape(-1, t_len, x.shape[1])

    srcs, dsts = embeds @ src_w.T, embeds @ dst_w.T
    content = _sigmoid_array(srcs[rows_a] + dsts[rows_b]) @ score_w
    content = content.reshape(-1)
    atts = [masked_softmax_formula(content[slot] + mask) for mask in masks]
    value = np.concatenate([np.matmul(blocks(a), blocks(embeds)).reshape(
        embeds.shape) for a in atts], axis=1)

    g_embeds = g_shared = None
    for k in reversed(range(len(masks))):                       # concat
        a, g = atts[k], blocks(np.ascontiguousarray(
            adj[:, k * width: (k + 1) * width]))
        g_e = np.matmul(blocks(a).transpose(0, 2, 1), g)        # block_matmul
        g_e = g_e.reshape(embeds.shape)
        g_embeds = g_e if g_embeds is None else g_embeds + g_e
        g = np.matmul(g, blocks(embeds).transpose(0, 2, 1)).reshape(a.shape)
        g = a * (g - (g * a).sum(axis=1, keepdims=True))        # softmax, add
        g_shared = g if g_shared is None else g_shared + g
    g_content = _gathered_grad(content, slot, g_shared)         # lookup
    _, g_srcs, g_dsts, g_score = unfused_pair_logits(
        srcs, dsts, score_w, rows_a, rows_b, g_content)
    g_embeds = g_embeds + g_dsts @ dst_w                        # dsts' nodes
    g_embeds = g_embeds + g_srcs @ src_w                        # srcs' nodes
    return (value, g_embeds, (embeds.T @ g_srcs).T, (embeds.T @ g_dsts).T,
            g_score)


def unfused_encoder(items, item_ids, src_w, dst_w, score_w, combine_w,
                    combine_b, lengths, layout, adj):
    """The sequence encoder as the ``lookup``, ``attention``,
    ``segment_mean`` and ``dense`` nodes that ``encoder`` replaced compute
    it, over the node's pair layout (rows_a, rows_b, slot, masks) for
    sequences of ``lengths`` whose ids ``item_ids`` holds concatenated:
    the lookup reads each sequence's rows of ``items`` into its block of
    T rows and row 0 into the padded rest. Returns the value and the
    gradients w.r.t. items, src_w, dst_w, score_w, combine_w and
    combine_b that their rules hand back, in reverse node order, for the
    output adjoint ``adj``. The segment mean's gradient reached the
    attention node as the tape summed it: a row-sparse gradient, whose
    dense form is +0.0 for -0.0, when the sequences read fewer than half
    the table's rows."""
    lengths = np.asarray(lengths)
    t_len, width = int(lengths.max()), items.shape[1]
    ids = np.concatenate([np.arange(i * t_len, i * t_len + n)
                          for i, n in enumerate(lengths)])
    gather = np.zeros(lengths.size * t_len, dtype=np.intp)      # lookup
    gather[ids] = item_ids
    embeds = items[gather]
    scale = (1.0 / lengths)[:, None]
    table = unfused_attention(embeds, src_w, dst_w, score_w, *layout,
                              np.zeros((len(embeds), 2 * width)))[0]
    pooled = column_pool(table, ids, lengths) * scale       # segment mean
    value, g_pooled, g_combine_w, g_combine_b = unfused_dense(
        pooled, combine_w, combine_b, adj)
    g_pooled = g_pooled * scale                             # its scatter
    g_table = np.zeros_like(table)
    for segment, row in zip(np.repeat(np.arange(lengths.size), lengths), ids):
        g_table[row] = g_pooled[segment]
    if 2 * ids.size < len(table):
        g_table += 0.0
    g_embeds, *grads = unfused_attention(embeds, src_w, dst_w, score_w,
                                         *layout, g_table)[1:]
    return (value, _gathered_grad(items, gather, g_embeds), *grads,
            g_combine_w, g_combine_b)


def unfused_pair_loss(items, prefs, cand_ids, k_neg):
    """The pairwise loss as the twelve nodes ``pair_loss`` replaced compute
    it, and the gradients w.r.t. items and prefs that their rules hand
    back, in reverse node order, for a loss adjoint of 1. Scores: lookups
    of the candidates and of each one's prefs row, ``mul``, ``mean_axis``
    over the width, ``scale`` by d, ``sigmoid``. Tail: lookups of the
    positives and the negatives, ``scale(-1)``, ``add``, ``softplus``,
    ``mean_axis`` over the pairs."""
    cand = np.asarray(cand_ids)
    dim, width = items.shape[1], 1 + k_neg
    rows = np.repeat(np.arange(prefs.shape[0]), width)
    starts = np.arange(prefs.shape[0]) * width
    pos = np.repeat(starts, k_neg)
    neg = np.delete(np.arange(cand.size), starts)
    c, p = items[cand], prefs[rows]
    probs = _sigmoid_array(np.asarray((c * p).mean(axis=1)) * float(dim))
    x = probs[neg] + probs[pos] * -1.0
    pairs = np.logaddexp(0.0, x)
    loss = np.asarray(pairs.mean(axis=0))

    g = np.full(pairs.shape, np.ones_like(loss) / pairs.size)  # mean_axis
    g = g * _sigmoid_array(x)                                   # softplus
    g_probs = _gathered_grad(probs, neg, g)                     # lookups
    g_probs = g_probs + _gathered_grad(probs, pos, g * -1.0)
    g_probs = g_probs * probs * (1.0 - probs)                   # sigmoid
    g_probs = g_probs * float(dim)                              # scale
    g_prod = np.repeat((g_probs / dim)[:, None], dim, axis=1)   # mean_axis
    return (loss, _gathered_grad(items, cand, g_prod * p),
            _gathered_grad(prefs, rows, g_prod * c))


def full_stack_tape(graph, params, sequences, k_neg, rng, histories,
                    plan=None):
    """Diffusion, encoding, scoring and loss from raw parameters on one
    tape; returns (tape, loss node, the negatives drawn per sequence)."""
    from metacsr import losses
    from metacsr.autodiff import Tape

    tape = Tape()
    config = params.config
    theta1 = {k: tape.param(k, v) for k, v in params.theta1.items()}
    theta2 = {k: tape.param(k, v) for k, v in params.theta2.items()}
    features = losses.item_feature_node(tape, graph, theta1, config,
                                        plan=plan)
    negatives = drawn_negatives(sequences, k_neg, rng, histories,
                                graph.n_items)
    loss = losses.build_batch_loss(
        tape, features, theta2, sequences, k_neg, rng, histories,
        graph.n_items, use_sequence=config.use_sequence)
    return tape, loss, negatives


def feature_loss(features, theta2, sequences, k_neg, rng, histories,
                 config):
    """One batch loss over the constant (n_items, d) table ``features``
    with theta2 trainable; returns ``at(values=None) -> (loss, theta2
    grads)``, which re-evaluates that tape with ``values`` rebound."""
    from metacsr import losses
    from metacsr.autodiff import Tape

    tape = Tape()
    nodes = {k: tape.param(k, v) for k, v in theta2.items()}
    loss = losses.build_batch_loss(
        tape, tape.constant(features), nodes, list(sequences), k_neg, rng,
        histories, features.shape[0], use_sequence=config.use_sequence)

    def at(values=None):
        for name, value in (values or {}).items():
            tape.set_param(name, value)
        tape.forward()
        return float(loss.value), tape.backward(loss)
    return at


def column_pool(table, ids, counts):
    """Row i: the sum of ``table[ids[o_i : o_i + counts[i]]]``, 0 if empty,
    one position at a time: every segment longer than j adds its j-th
    id's row to the copy of its first."""
    counts = np.asarray(counts)
    starts = np.cumsum(counts) - counts
    out = np.zeros((counts.size, table.shape[1]))
    for j in range(counts.max(initial=0)):
        longer = np.flatnonzero(counts > j)
        rows = table[np.asarray(ids)[starts[longer] + j]]
        out[longer] = rows if j == 0 else out[longer] + rows
    return out


def masked_row_norms(x, adj=None, eps=1e-12):
    """Rows of ``x`` over their L2 norms (zero rows where the norm is below
    ``eps``) by boolean-mask copies; with ``adj``, that map's gradient."""
    n = np.linalg.norm(x, axis=1)
    ok = n >= eps
    out = np.zeros_like(x)
    y = x[ok] / n[ok, None]
    if adj is None:
        out[ok] = y
    else:
        dots = (y * adj[ok]).sum(axis=1, keepdims=True)
        out[ok] = (adj[ok] - y * dots) / n[ok, None]
    return out


def unfused_conv(features, inherent, rows, ids, counts, latent_w, latent_b,
                 merge_w, merge_b, adj):
    """One diffusion layer as the six nodes ``conv`` replaced compute it:
    a lookup of the inherent rows, a segment mean over ``features``, the
    latent dense, a concat, the merge dense and the row normalization.
    Returns the value and the gradients w.r.t. features, inherent,
    latent_w, latent_b, merge_w and merge_b that their rules hand back, in
    reverse node order, for the output adjoint ``adj``."""
    ids, counts = np.asarray(ids), np.asarray(counts)
    scale = (1.0 / np.maximum(counts, 1))[:, None]
    pooled = column_pool(features, ids, counts) * scale
    latent = np.maximum(pooled @ latent_w.T + latent_b, 0.0)
    merged = np.concatenate([inherent[rows], latent], axis=1)
    pre = np.maximum(merged @ merge_w.T + merge_b, 0.0)
    out = masked_row_norms(pre)

    g = masked_row_norms(pre, adj) * (pre > 0)             # norm, dense
    g_merge_w, g_merge_b = (merged.T @ g).T, g.sum(axis=0)
    g_merged = g @ merge_w
    width = inherent.shape[1]                               # concat
    g = g_merged[:, width:] * (latent > 0)                  # dense
    g_latent_w, g_latent_b = (pooled.T @ g).T, g.sum(axis=0)
    g_pooled = (g @ latent_w) * scale                       # segment mean
    g_features = np.zeros_like(features)
    read = np.zeros(len(features), dtype=bool)
    for segment, row in zip(np.repeat(np.arange(counts.size), counts), ids):
        g_features[row] = g_features[row] + g_pooled[segment] \
            if read[row] else g_pooled[segment]
        read[row] = True
    g_inherent = _gathered_grad(inherent, rows, g_merged[:, :width])
    return (out, g_features, g_inherent, g_latent_w, g_latent_b, g_merge_w,
            g_merge_b)


def out_of_place_backward(tape, *roots, adjoint=None):
    """``tape.backward(*roots, adjoint=adjoint)`` with every adjoint sum and
    every parameter gradient a new array, the adjoints kept in a dict by
    node id and each root seeded with ones unless ``adjoint`` is given;
    returns the gradients by param name."""
    adjoints = {root.idx: np.ones_like(root.value) if adjoint is None
                else np.asarray(adjoint, dtype=np.float64) for root in roots}
    grads = {}
    for node in reversed(tape.nodes[: max(adjoints) + 1]):
        adj = adjoints.pop(node.idx, None)
        if adj is None or node.op == "const":
            continue
        if node.op == "param":
            grads[node.name] = adj.copy()
            continue
        for inp, grad in zip(node.inputs, tape._input_grads(node, adj)):
            if grad is not None and inp.live:
                adjoints[inp.idx] = grad if inp.idx not in adjoints \
                    else adjoints[inp.idx] + grad
    return grads
