"""Synthetic disentanglement study over a (noise p, demonstrations m) grid.

Every grid cell is one campaign over generated in-context-learning tasks
with analytically known answer distributions; the study tabulates the
first-order / second-order scores and the error rate of its records.
Sweeping p at fixed m should move only first-order scores; sweeping m at
fixed p should move only the imprecision scores.
"""

from __future__ import annotations

import dataclasses
import statistics
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from .campaign import DATASET_SYNTH, MODE_SET, CampaignConfig, DatasetSource, run_campaign
from .core import ConfigError, refuse_repeats
from .elicit.client import ChatClient, ModelEndpoint
from .elicit.prompts import PromptKind
from .mock import AgentConfig, MockScript, MockTransport
from .reporting import LABEL_INCORRECT, record_label
from .synth import TransformSpec

DEFAULT_STUDY_METHODS = (PromptKind.DEFINETTI.value, PromptKind.PROBINT.value)


@dataclass(frozen=True)
class StudyCell:
    """Aggregated results for one (method, p, m) grid cell."""

    method: str
    p: float
    m: int
    n: int
    first_order_mean: float | None
    first_order_std: float | None
    second_order_mean: float | None
    second_order_std: float | None
    error_rate: float | None


#: A study CSV's header: the fields of :class:`StudyCell`, in order.
STUDY_CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(StudyCell))


def simulated_agent_client_factory(
    *, width_c: float = AgentConfig.width_c
) -> Callable[[float], ChatClient]:
    """In-process clients whose agent believes the analytic ground truth.

    The returned factory maps a noise level p to a client backed by an agent
    that verbalizes the exact casing distribution for that p and intervals of
    width min(1, width_c / m), so grid trends have a closed-form oracle.
    """

    def factory(p: float) -> ChatClient:
        script = MockScript(
            entries=(),
            agent=AgentConfig(noise_p=p, width_c=width_c),
        )
        return ChatClient(transport=MockTransport(script))

    return factory


def _aggregate(values: Sequence[float | None]) -> tuple[float | None, float | None]:
    present = [v for v in values if v is not None]
    if not present:
        return None, None
    mean = statistics.fmean(present)
    std = statistics.stdev(present) if len(present) > 1 else 0.0
    return mean, std


def _study_cell(method: str, p: float, m: int, records: Sequence[dict[str, Any]]) -> StudyCell:
    mine = [r for r in records if r["key"]["method"] == method]
    first = _aggregate([r["scores"]["first_order"] for r in mine])
    second = _aggregate([r["scores"]["second_order"] for r in mine])
    errors = [e for r in mine if (e := record_label(r, LABEL_INCORRECT)) is not None]
    error_rate = statistics.fmean(errors) if errors else None
    n = sum(1 for r in mine if r["elicitation"]["succeeded"])
    return StudyCell(method, float(p), int(m), n, *first, *second, error_rate)


def run_synthetic_study(
    transform: TransformSpec,
    noise_grid: Sequence[float],
    m_grid: Sequence[int],
    repeats: int,
    endpoint: ModelEndpoint | None = None,
    *,
    client_factory: Callable[[float], ChatClient] | None = None,
    methods: Sequence[str] = DEFAULT_STUDY_METHODS,
    word_length: int = DatasetSource.word_length,
    base_seed: int = DatasetSource.base_seed,
    max_attempts: int = CampaignConfig.retry_budget,
) -> list[StudyCell]:
    """Run one campaign per (p, m) cell and return one row per method.

    Each campaign set-level scores ``repeats`` synthetic questions as record
    seed ``endpoint.seed or 0``; a row's ``n`` counts its succeeded cells.

    ``client_factory`` maps p to the client to use for that noise level; it
    defaults to the in-process simulated agent (no network).  A fixed client
    (e.g. a real endpoint that cannot be told p) can be supplied by wrapping
    it: ``client_factory=lambda p: client``.  A grid that is empty or lists
    a value twice, ``repeats < 1`` or a cell's invalid dataset source raises
    :class:`ConfigError` before the first request.
    """
    if not noise_grid or not m_grid:
        raise ConfigError("the p and m grids must be non-empty")
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    refuse_repeats("p", noise_grid)
    refuse_repeats("m", m_grid)
    sources = {(p, m): DatasetSource(kind=DATASET_SYNTH, transform=transform, noise_p=p, m=m,
                                     word_length=word_length, count=repeats,
                                     base_seed=base_seed)
               for p in noise_grid for m in m_grid}
    if endpoint is None:
        endpoint = ModelEndpoint(base_url="mock://simulated-agent", model_id="sim-agent")
    if client_factory is None:
        client_factory = simulated_agent_client_factory()

    cells: list[StudyCell] = []
    for p in noise_grid:
        client = client_factory(p)
        for m in m_grid:
            with tempfile.TemporaryDirectory() as output_dir:
                config = CampaignConfig(
                    dataset=sources[p, m], methods=tuple(methods), endpoints=(endpoint,),
                    seeds=(endpoint.seed or 0,), retry_budget=max_attempts,
                    output_dir=output_dir, score_mode=MODE_SET,
                )
                records = run_campaign(config, client=client)
            cells.extend(_study_cell(method, p, m, records) for method in methods)
    return cells


__all__ = [
    "DEFAULT_STUDY_METHODS",
    "STUDY_CSV_COLUMNS",
    "StudyCell",
    "simulated_agent_client_factory",
    "run_synthetic_study",
]
