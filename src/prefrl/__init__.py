"""prefrl: actor-critic recommendation lab with judge-distilled pre-training,
online adaptation schemes, simulated user environments, and an experiment
harness."""

from .agent import AgentBundle, Transition, init_agent
from .data import InteractionLog, ItemCatalog, generate_synthetic, load_catalog, load_interactions, split_log
from .encoder import EncoderConfig, encode, encode_batch
from .environment import EnvConfig, UserEnvironment, fit_reward_model
from .metrics import EpisodeRecord, compute_metrics
from .nn import ParamSet, finite_diff_grad, optimizer_step, sample_categorical, softmax
from .oracle import PromptSpec, build_prompt, distill, parse_response
from .training import (ExplorationStrategy, MixPolicy, ReplayBuffer, TrainConfig,
                       alpha_at, choose_action, evaluate, online_phase, pretrain,
                       run_baseline)

__version__ = "0.1.0"
