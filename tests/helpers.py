"""Shared test machinery: the per-transition reference spec of the learner's
losses, reference pre-training and online loops, a reference fit of the
sequential reward model, a reference synthetic world, a reference scanner of
judge replies, gradient-check scaffolding and a stub chat-completion
server."""
from __future__ import annotations

import json
import math
import re
import socket
import threading
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from prefrl.agent import (LOG_PROB_FLOOR, AgentBundle, Transition, action_distribution,
                          backprop_heads, policy_for, q_values, update)
from prefrl.data import (InteractionLog, ItemCatalog, ItemRecord, SyntheticGroundTruth,
                         UserSequence)
from prefrl.encoder import EncoderConfig, encode, encode_with_cache, init_encoder_params
from prefrl.metrics import EpisodeRecord, compute_metrics
from prefrl.oracle import LABELS, distill
from prefrl.training import (CATEGORICAL, KEY_EVAL, KEY_ONLINE, KEY_PRETRAIN, ActorPolicy,
                             ExplorationStrategy, MixPolicy, QGreedyPolicy, alpha_at,
                             choose_action, derive_rng, derive_seed, sample_candidates)


# The learner's losses one transition at a time, written from the definitions
# rather than from ``update``: the tests check the batched step against them.

def q_for(bundle: AgentBundle, items) -> np.ndarray:
    return q_values(encode(items, bundle.params, bundle.encoder_config), bundle)


def log_prob(dist: np.ndarray, action: int) -> float:
    """log pi(a|s) clamped at LOG_PROB_FLOOR to avoid -inf on collapsed policies."""
    return float(max(np.log(max(dist[action], np.finfo(np.float64).tiny)), LOG_PROB_FLOOR))


def td_target(transition: Transition, bundle: AgentBundle,
              target: AgentBundle | None = None, gamma: float = 0.9) -> float:
    """r + gamma * max_a' Q(s', a'), with a zero bootstrap on terminal transitions.

    The value is treated as a constant in all gradients.  By default the live
    critic evaluates the bootstrap; passing ``target`` (a frozen snapshot)
    evaluates it there instead.  ``gamma`` defaults to ``update``'s.
    """
    if transition.done:
        return float(transition.reward)
    q_next = q_for(target if target is not None else bundle, transition.next_state_items)
    return float(transition.reward) + gamma * float(q_next.max())


def selected_q(transition: Transition, bundle: AgentBundle) -> float:
    return float(q_for(bundle, transition.state_items)[transition.action])


def advantage(transition: Transition, bundle: AgentBundle, gamma: float = 0.9) -> float:
    """TD error r + gamma * max Q(s', .) - Q(s, a)."""
    return td_target(transition, bundle, gamma=gamma) - selected_q(transition, bundle)


def critic_loss(transition: Transition, bundle: AgentBundle) -> float:
    """Squared one-step TD error."""
    return advantage(transition, bundle) ** 2


def actor_loss(transition: Transition, bundle: AgentBundle) -> float:
    """-log pi(a|s) scaled by the advantage (advantage held constant)."""
    dist = policy_for(bundle, transition.state_items)
    return -log_prob(dist, transition.action) * advantage(transition, bundle)


def reference_pretrain(agent: AgentBundle, oracle, config, log_, start_epoch: int = 0,
                       rng=None, epoch_callback=None) -> list[dict]:
    """Pre-training as one plain loop per epoch, fixing the order of the
    draws from the pre-training stream: the epoch's start (a logged
    sequence's first item), then per step the candidates, the judge's None
    draw and, once the buffer holds a minibatch, the minibatch; the frozen
    target critic is refreshed every ``target_update`` updates.  The buffer
    is a deque of the last ``buffer_capacity`` transitions, oldest first, and
    ``update`` gets a plain list of the drawn ones.  Mutates ``agent`` and
    returns the per-epoch records."""
    rng = derive_rng(config.seed, KEY_PRETRAIN) if rng is None else rng
    buffer = deque(maxlen=config.buffer_capacity)
    target = agent.clone() if config.target_update > 0 else None
    updates = 0
    records = []
    for epoch in range(start_epoch, config.pretrain_epochs):
        seq = log_.sequences[int(rng.integers(log_.num_sequences))]
        history = (seq.items[0],)
        rewards, actor_losses, critic_losses = [], [], []
        for t in range(1, config.pretrain_horizon + 1):
            candidates = sample_candidates(policy_for(agent, history), config.k,
                                           config.candidate_sampling, rng)
            action, reward = distill(history, candidates, oracle, rng)
            next_history = history + (action,)
            buffer.append(Transition(history, action, reward, next_history,
                                     t == config.pretrain_horizon))
            rewards.append(reward)
            if len(buffer) >= config.batch_size:
                drawn = rng.choice(len(buffer), size=config.batch_size, replace=False)
                actor, critic = update([buffer[i] for i in drawn], agent, config.lr,
                                       config.momentum, target, gamma=config.gamma)
                actor_losses.append(actor)
                critic_losses.append(critic)
                updates += 1
                if target is not None and updates % config.target_update == 0:
                    target = agent.clone()
            history = next_history
        record = {
            "epoch": epoch,
            "mean_reward": float(np.mean(rewards)),
            "mean_actor_loss": float(np.mean(actor_losses)) if actor_losses else None,
            "mean_critic_loss": float(np.mean(critic_losses)) if critic_losses else None,
        }
        records.append(record)
        if epoch_callback is not None:
            epoch_callback(epoch, agent, record, rng.bit_generator.state)
    return records


def reference_parse(text: str, k: int) -> int | None:
    """The judge's answer in ``text`` as a scanner over two token kinds: a
    standalone "none" in any case, and a standalone lowercase letter that is
    not a contraction tail ("I'd", "user's"; a quoted 'b' still counts).  A
    letter past the None label (``LABELS[k]``) is skipped.  In a region the
    earlier token wins, the None label and "none" answering None; the region
    after "the user will select" (any case) is scanned first, then the whole
    text, and a text with no token in either answers None."""
    none_token = re.compile(r"(?<![A-Za-z])none(?![A-Za-z])", re.IGNORECASE)
    letter_token = re.compile(r"(?<![A-Za-z])(?<![A-Za-z]')([a-z])(?![A-Za-z])")
    select = re.search(r"the user will select", text, re.IGNORECASE)
    regions = [text[select.end():], text] if select else [text]
    for region in regions:
        hits = []
        none = none_token.search(region)
        if none:
            hits.append((none.start(), None))
        for letter in letter_token.finditer(region):
            index = LABELS.index(letter.group(1))
            if index <= k:
                hits.append((letter.start(), None if index == k else index))
                break
        if hits:
            return min(hits, key=lambda hit: hit[0])[1]
    return None


def reference_evaluate(policy, env, num_episodes: int, seed: int):
    """Greedy evaluation one episode after another, each with ``env.step``
    and one single-history ``probs`` per step; the reset seeds are drawn in
    episode order from the evaluation stream of ``seed``, as ``evaluate``
    draws them.  Returns the metric means."""
    rng = derive_rng(seed, KEY_EVAL)
    episodes, global_step = [], 0
    for i in range(num_episodes):
        state = env.reset(seed=int(rng.integers(2 ** 31)))
        ret, length, done = 0.0, 0, False
        while not done:
            reward, state, done = env.step(state, int(np.argmax(policy.probs(state.history))))
            ret += reward
            length += 1
        global_step += length
        episodes.append(EpisodeRecord(i, global_step, ret, length))
    return compute_metrics(episodes)


def reference_online(method: str, pretrained: AgentBundle, env, config, strategy=None,
                     eval_env=None, episodes_per_epoch: int = 50, eval_episodes: int = 20,
                     eval_epochs=(0, 1, 2), oracle=None):
    """An online run of any method as one plain loop, fixing the order of the
    draws from the online stream: per step the action (the strategy's draw,
    or for llm_online the candidates and the judge's None draw) and then,
    for the replay learners once the buffer holds a minibatch, the
    minibatch.  The buffer is a deque of the last ``buffer_capacity``
    transitions, oldest first, and ``update`` gets a plain list of the drawn
    ones; the target is a clone refreshed every ``target_update`` updates,
    with no memo; pg takes one REINFORCE step per episode on its
    return-to-go.  ap acts from the mixture at ``alpha_at(step)`` and stores
    the frozen actor's probability of the action; a snapshot at step s (one
    at each requested epoch's first step, and one after the last step) is
    taken before step s moves alpha, so it sees step s - 1's mixture.
    Returns the learned copy of ``pretrained``, the episode curve and the
    snapshots."""
    if strategy is None:
        strategy = ExplorationStrategy("epsilon_greedy", 0.1) if method == "dqn" else CATEGORICAL
    rng = derive_rng(config.seed, KEY_ONLINE)
    work = pretrained.clone()
    frozen = ActorPolicy(pretrained)
    mix = MixPolicy(pretrained, work, config.alpha_init) if method == "ap" else None
    policy = mix or (QGreedyPolicy(work) if method == "dqn" else ActorPolicy(work))
    epoch_steps = env.config.max_steps * episodes_per_epoch
    points = {e * epoch_steps: str(e) for e in eval_epochs}
    eval_seed = derive_seed(config.seed, KEY_EVAL)
    buffer = deque(maxlen=config.buffer_capacity)
    target = work.clone() if config.target_update > 0 else None
    updates = 0
    episode, episodes, snapshots = [], [], {}
    state, ret, length = None, 0.0, 0
    for step in range(config.online_steps):
        if state is None:
            state = env.reset()
        if eval_env is not None and step in points:
            snapshots[points[step]] = reference_evaluate(policy, eval_env, eval_episodes,
                                                         eval_seed)
        if mix is not None:
            mix.alpha = alpha_at(step, config)
        history, frozen_prob = state.history, None
        if method == "llm_online":
            candidates = sample_candidates(policy_for(work, history), config.k,
                                           config.candidate_sampling, rng)
            action, _ = distill(history, candidates, oracle, rng)
        else:
            action = choose_action(policy.probs(history), strategy, rng)
            if mix is not None:
                frozen_prob = float(frozen.probs(history)[action])
        reward, next_state, done = env.step(state, action)
        transition = Transition(history, action, reward, next_state.history, done, frozen_prob)
        if method == "pg":
            episode.append(transition)
            if done:
                returns, g = [], 0.0
                for t in reversed(episode):
                    g = t.reward + config.gamma * g
                    returns.insert(0, g)
                update(episode, work, config.lr, config.momentum, returns=returns)
                episode = []
        else:
            buffer.append(transition)
            if len(buffer) >= config.batch_size:
                drawn = rng.choice(len(buffer), size=config.batch_size, replace=False)
                update([buffer[i] for i in drawn], work, config.lr, config.momentum, target,
                       actor=method != "dqn", alpha=None if mix is None else mix.alpha,
                       gamma=config.gamma)
                updates += 1
                if target is not None and updates % config.target_update == 0:
                    target = work.clone()
        ret += reward
        length += 1
        if done:
            episodes.append(EpisodeRecord(len(episodes), step + 1, ret, length))
            state, ret, length = None, 0.0, 0
        else:
            state = next_state
    if eval_env is not None:
        snapshots["final"] = reference_evaluate(policy, eval_env, eval_episodes, eval_seed)
    return work, episodes, snapshots


# The sequential reward model's fit one row at a time, in frozen numpy copies
# of the encoder's single-row forward and backward and of a plain SGD step on
# per-tensor arrays: the tests check the fit, the encoder's backward and the
# optimizer step against them, so none of those is imported here.

def reference_forward(ids: np.ndarray, params: dict, config: EncoderConfig):
    """The encoder state (d,) of one padded (1, max_seq_len) id row, and the
    cache :func:`reference_backward` reads."""
    x = params["item_emb"][ids]
    x += params["pos_emb"]
    x_last = x[:, -1:]
    q = x_last @ params["w_q"]
    qk = q @ params["w_k"].T
    scores = (qk @ x.transpose(0, 2, 1)) * (1.0 / math.sqrt(config.embed_dim))
    scores[(ids == config.padding_id)[:, None, :]] = -np.inf
    scores -= scores.max(axis=2, keepdims=True)
    attn = np.exp(scores)
    attn /= attn.sum(axis=2, keepdims=True)
    ctx = attn @ x
    h = x_last + ctx @ params["w_v"]
    return h[0, 0], {"ids": ids, "x": x, "q": q, "qk": qk, "attn": attn, "ctx": ctx}


def reference_backward(cache: dict, d_state: np.ndarray, params: dict,
                       grads: dict | None = None) -> dict:
    """Add the gradients of ``sum_b dot(d_state[b], state[b])`` to ``grads``
    (zeros of each parameter's shape by default) and return it: each position
    and item term as a one-hot or per-id slot weight times a row, summed over
    the batch by ``np.dot``."""
    if grads is None:
        grads = {name: np.zeros_like(p) for name, p in params.items()}
    x, q, qk, attn, ctx = (cache[name] for name in ("x", "q", "qk", "attn", "ctx"))
    B, n, d = x.shape
    g = d_state.reshape(B, 1, d)
    d_ctx = g @ params["w_v"].T
    d_attn = d_ctx @ x.transpose(0, 2, 1)
    scale = 1.0 / math.sqrt(d)
    d_scores = attn * (d_attn - (d_attn * attn).sum(axis=2, keepdims=True)) * scale
    d_qk = d_scores @ x
    d_q = d_qk @ params["w_k"]
    grads["w_q"] += np.dot(x[:, -1].T, d_q[:, 0])
    grads["w_k"] += np.dot(d_qk[:, 0].T, q[:, 0])
    grads["w_v"] += np.dot(ctx[:, 0].T, g[:, 0])
    num_ids = params["item_emb"].shape[0]
    cells = (cache["ids"] + num_ids * np.arange(B)[:, None]).reshape(-1)
    last = np.zeros((B, n))
    last[:, -1] = 1.0
    for weight, row in ((d_scores[:, 0], qk[:, 0]), (attn[:, 0], d_ctx[:, 0]),
                        (last, (d_q @ params["w_q"].T + g)[:, 0])):
        per_item = np.bincount(cells, weight.reshape(-1), B * num_ids).reshape(B, num_ids)
        grads["pos_emb"] += np.dot(weight.T, row)
        grads["item_emb"] += np.dot(per_item.T, row)
    return grads


def reference_fit_sequential(log_, num_items: int, d_rm: int, max_seq_len: int, epochs: int,
                             lr: float, seed: int) -> tuple[dict, list[float]]:
    """The sequential reward model's fit as one plain loop: per epoch a
    permutation of the (prefix, next item) pairs, and per pair the prefix
    padded, a softmax cross-entropy over the items with the output embeddings
    tied to the input ones, the backward and ``p <- p - lr * g``.  Returns the
    parameters and the per-epoch mean losses."""
    rng = np.random.default_rng(seed)
    config = EncoderConfig(num_items=num_items, embed_dim=d_rm, max_seq_len=max_seq_len)
    params = {name: np.array(p, dtype=np.float64)
              for name, p in init_encoder_params(config, rng).items()}
    pairs = [(seq.items[:t], seq.items[t]) for seq in log_.sequences
             for t in range(1, len(seq.items))]
    losses = []
    for _ in range(epochs):
        total = 0.0
        for idx in rng.permutation(len(pairs)):
            prefix, target = pairs[idx]
            window = list(prefix[-max_seq_len:])
            ids = np.array([[config.padding_id] * (max_seq_len - len(window)) + window],
                           dtype=np.int64)
            state, cache = reference_forward(ids, params, config)
            item_emb = params["item_emb"][:num_items]
            logits = item_emb @ state
            e = np.exp(logits - logits.max())
            probs = e / e.sum()
            total += -float(np.log(max(probs[target], 1e-12)))
            d_logits = probs.copy()
            d_logits[target] -= 1.0
            grads = {name: np.zeros_like(p) for name, p in params.items()}
            grads["item_emb"][:num_items] += np.outer(d_logits, state)
            reference_backward(cache, item_emb.T @ d_logits, params, grads)
            for name, p in params.items():
                p -= lr * grads[name]
        losses.append(total / len(pairs))
    return params, losses


_REFERENCE_WORDS = (
    ("amber", "breezy", "cobalt", "dusty", "electric", "faded", "golden", "hazy", "ivory",
     "jade", "lunar", "mellow", "neon", "opal", "pale", "quiet", "rustic", "silver", "tidal",
     "velvet"),
    ("anthem", "ballad", "chorus", "drift", "echo", "fable", "groove", "horizon", "interlude",
     "jam", "lullaby", "motif", "nocturne", "overture", "prelude", "reverie", "serenade",
     "tune", "verse", "waltz"),
    ("ambient", "blues", "classical", "electronic", "folk", "indie", "jazz", "pop", "rock",
     "soul"),
)


def reference_generate_synthetic(num_users: int, num_items: int, seq_len: int, d_lat: int,
                                 seed: int, noise_scale: float = 0.05):
    """The synthetic world as plain loops over one generator: the user and
    item latents, then per item a ``choice`` of adjective, noun and style,
    then per user the scores ``item_latents @ user_latent``, plus
    ``noise_scale`` times a fresh standard normal row when ``noise_scale`` is
    positive, and the first ``seq_len`` items of their stable descending
    sort.  Returns (catalog, log, truth)."""
    adjectives, nouns, styles = _REFERENCE_WORDS
    rng = np.random.default_rng(seed)
    user_latents = rng.standard_normal((num_users, d_lat))
    item_latents = rng.standard_normal((num_items, d_lat))
    items = []
    for i in range(num_items):
        title = f"{rng.choice(adjectives)} {rng.choice(nouns)} {i:03d}"
        style = str(rng.choice(styles))
        items.append(ItemRecord(i, (("title", title), ("style", style))))
    sequences = []
    for u in range(num_users):
        scores = item_latents @ user_latents[u]
        if noise_scale > 0.0:
            scores = scores + noise_scale * rng.standard_normal(num_items)
        order = np.argsort(-scores, kind="stable")[:seq_len]
        sequences.append(UserSequence(f"u{u}", tuple(int(i) for i in order),
                                      tuple(range(seq_len))))
    return (ItemCatalog(tuple(items), ("title", "style")), InteractionLog(tuple(sequences)),
            SyntheticGroundTruth(user_latents, item_latents))


def reference_score(model, context, action: int) -> float:
    """A reward model's score of one (context, action) pair by its per-row
    formula, as each model computed it before batched scoring: a user id for
    matrix factorization, an item-id history for the other kinds."""
    if model.kind == "matrix_factorization":
        u = model.user_index[context]
        raw = (model.user_factors[u] @ model.item_factors[action]
               + model.user_bias[u] + model.item_bias[action] + model.global_bias)
    elif model.kind == "sequential":
        state = encode(context, model.params, model.encoder_config)
        raw = state @ model.params["item_emb"][action]
    else:
        profile = model.item_latents[np.asarray(context, dtype=np.int64)].mean(axis=0)
        raw = model.scale * float(profile @ model.item_latents[action])
    return float(np.clip(raw, 0.0, model.r_max))


def max_rel_err(analytic: dict, numeric: dict, floor: float = 1e-6) -> float:
    worst = 0.0
    for name, a in analytic.items():
        denom = np.maximum(np.abs(numeric[name]), floor)
        worst = max(worst, float((np.abs(a - numeric[name]) / denom).max()))
    return worst


def actor_loss_check(transition: Transition, bundle):
    """(loss_fn for finite differences, analytic gradients) for the
    advantage-scaled actor loss, advantage frozen at the current params."""
    adv0 = advantage(transition, bundle)

    def loss_fn(_params):
        dist = policy_for(bundle, transition.state_items)
        return -log_prob(dist, transition.action) * adv0

    state, cache = encode_with_cache(transition.state_items, bundle.params,
                                     bundle.encoder_config)
    dist = action_distribution(state, bundle)
    one_hot = np.zeros(bundle.num_items)
    one_hot[transition.action] = 1.0
    bundle.params.zero_grads()
    backprop_heads(bundle, state, cache, adv0 * (dist - one_hot), None)
    analytic = {k: v.copy() for k, v in bundle.params.grads.items()}
    bundle.params.zero_grads()
    return loss_fn, analytic


def critic_loss_check(transition: Transition, bundle):
    """Same for the squared TD loss, bootstrap target frozen."""
    target0 = td_target(transition, bundle)

    def loss_fn(_params):
        return (target0 - selected_q(transition, bundle)) ** 2

    state, cache = encode_with_cache(transition.state_items, bundle.params,
                                     bundle.encoder_config)
    q = state @ bundle.params["critic_w"] + bundle.params["critic_b"]
    d_q = np.zeros(bundle.num_items)
    d_q[transition.action] = -2.0 * (target0 - float(q[transition.action]))
    bundle.params.zero_grads()
    backprop_heads(bundle, state, cache, None, d_q)
    analytic = {k: v.copy() for k, v in bundle.params.grads.items()}
    bundle.params.zero_grads()
    return loss_fn, analytic


class StubChatServer:
    """Local chat-completion endpoint whose behavior is a callable
    (prompt, request_count) -> (status, text).  A str ``text`` is wrapped in
    a chat-completion body; bytes are sent as the raw body.

    Each request is recorded as it arrived on the wire: its request line
    (``line``), ``Content-Type``, ``Content-Length``, ``Authorization``
    (``auth``), ``Proxy-Authorization`` (``proxy_auth``) and body bytes
    (``raw``), the parsed body (``body``) and the client's port (``peer``),
    one per connection.  As a proxy it answers a plain-HTTP request the same
    way, and records a CONNECT request (``line``, ``proxy_auth``) and
    refuses it with HTTP 502.  With ``keep_alive`` the stub speaks HTTP/1.1
    and keeps a connection open across requests, except that after the
    requests counted in ``drop_after`` it closes the connection without
    notice and then sets ``dropped``."""

    def __init__(self, behavior, keep_alive: bool = False, drop_after=()):
        self.behavior = behavior
        self.requests: list[dict] = []
        self.lock = threading.Lock()
        self.dropped = threading.Event()
        stub = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1" if keep_alive else "HTTP/1.0"

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                raw = self.rfile.read(length)
                body = json.loads(raw)
                with stub.lock:
                    stub.requests.append({"line": self.requestline, "raw": raw, "body": body,
                                          "content_type": self.headers.get("Content-Type"),
                                          "content_length": self.headers.get("Content-Length"),
                                          "auth": self.headers.get("Authorization"),
                                          "proxy_auth": self.headers.get("Proxy-Authorization"),
                                          "peer": self.client_address[1]})
                    count = len(stub.requests)
                prompt = body["messages"][0]["content"]
                status, text = stub.behavior(prompt, count)
                payload = text if isinstance(text, bytes) else json.dumps(
                    {"choices": [{"message": {"role": "assistant", "content": text}}]}
                ).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)
                if count in drop_after:
                    self.close_connection = True
                    self.connection.shutdown(socket.SHUT_RDWR)
                    stub.dropped.set()

            def do_CONNECT(self):
                # as a proxy, record the tunnel request and refuse it
                with stub.lock:
                    stub.requests.append({"line": self.requestline,
                                          "proxy_auth": self.headers.get("Proxy-Authorization")})
                self.send_error(502, "no tunnels here")

            def log_message(self, *args):
                pass

        class QuietServer(ThreadingHTTPServer):
            def handle_error(self, request, client_address):
                pass  # client hangups (timeout tests) are expected

        self.server = QuietServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()

    @property
    def base_url(self) -> str:
        host, port = self.server.server_address
        return f"http://{host}:{port}"
