"""The mock agent's replies, pinned by one digest.

:class:`~ipuq.mock.SimulatedAgent` is the reply source of every offline
campaign, so a change to how it writes a reply changes every records file
built on it.  The digest below hashes its reply (or the type and text of
the error it raises) over every kind, candidate lists in mixed casings,
seeds 0-6 with ``None`` and a string, 0, 1, 2 and 5 demonstrations, and
agent configs that cover the casing extremes, a NOTA level and a credal
mix that caps at 1.  A refactor of the agent keeps it; a change to its
beliefs re-pins it on purpose, recomputed with ``PYTHONPATH=src python
tests/test_mock_agent_pinned.py``.
"""

import hashlib

from ipuq.core import ConfigError
from ipuq.elicit.parsing import _last_fenced_block, _read_requested_form
from ipuq.elicit.prompts import WIRE, PromptKind
from ipuq.mock import AgentConfig, SimulatedAgent
from ipuq.synth import NoiseSpec, TransformSpec, format_icl_prompt, generate_icl_task

PINNED = "95c7e40a"

CONFIGS = (
    AgentConfig(),
    AgentConfig(noise_p=0.0, width_c=2.5),
    AgentConfig(noise_p=1.0, nota=0.3),
    # seeds 4 and 6 mix 1.2 and 0.3 of uniform into credal members; the first caps at 1
    AgentConfig(noise_p=0.4, width_c=0.7, nota=0.7, credal_spread=0.3),
)

CANDIDATES = (
    None,
    ["ROCK", "rock"],
    ["Rock", "rOCK", "ROCK", "rock"],
    ["Mount Everest", "mauna kea", "K2"],
    ["ROCK", "STONE"],
    ["42"],
)

SEEDS = (None, *range(7), "1")


def questions():
    yield "Which mountain is the tallest on Earth measured from sea level?"
    for m in (0, 1, 2, 5):
        task = generate_icl_task(TransformSpec(steps=(("rotation", 1),)), NoiseSpec(p=0.3),
                                 m=m, word_length=3, rng_seed=m)
        yield format_icl_prompt(task)


def agent_outcomes():
    """(kind, candidates, reply or None, what the digest hashes) per input."""
    for config in CONFIGS:
        agent = SimulatedAgent(config)
        for kind in PromptKind:
            for question in questions():
                for candidates in CANDIDATES:
                    for seed in SEEDS:
                        try:
                            text = agent.reply(kind, question, candidates, seed)
                        except (ConfigError, TypeError) as exc:  # pinned too
                            yield kind, candidates, None, f"{type(exc).__name__}: {exc}"
                        else:
                            yield kind, candidates, text, text


def agent_digest():
    outcomes = "\n\0\n".join(outcome for *_, outcome in agent_outcomes())
    return hashlib.sha256(outcomes.encode("utf-8")).hexdigest()[:8]


def test_agent_replies_match_the_pinned_digest():
    assert agent_digest() == PINNED


def test_every_block_reply_is_in_the_requested_form():
    """The one-pass reader takes every block the agent writes, so the mock
    never sends a campaign down the row-by-row fallback."""
    read = 0
    for kind, candidates, text, _ in agent_outcomes():
        if text is None:
            continue
        n = len(candidates) if WIRE[kind].fields else 0
        assert _read_requested_form(kind, _last_fenced_block(text), n) is not None, text
        read += 1
    assert read > 1000


if __name__ == "__main__":
    print(repr(agent_digest()))
