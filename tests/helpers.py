"""Shared test machinery: gradient-check scaffolding and a stub
chat-completion server."""
from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from prefrl.agent import (Transition, action_distribution, advantage, backprop_heads,
                          encode_with_cache, log_prob, policy_for, selected_q, td_target)


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
    a chat-completion body; bytes are sent as the raw body."""

    def __init__(self, behavior):
        self.behavior = behavior
        self.requests: list[dict] = []
        self.lock = threading.Lock()
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length))
                with stub.lock:
                    stub.requests.append({"body": body,
                                          "auth": self.headers.get("Authorization")})
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
