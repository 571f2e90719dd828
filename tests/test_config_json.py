"""The JSON form of the config dataclasses: round trips and malformed input."""

import copy
import json
import re

import pytest

from ipuq.campaign import (
    DATASET_QA_FILE,
    DATASET_SYNTH,
    CampaignConfig,
    DatasetSource,
)
from ipuq.core import ConfigError
from ipuq.elicit.client import ModelEndpoint
from ipuq.mock import AgentConfig, MockScript, ScriptEntry
from ipuq.synth import NoiseSpec, TransformSpec, generate_icl_task

TRANSFORM = TransformSpec(steps=(("rotation", 3), ("cyclic_shift", 2)), shift_direction="right")
NOISE = NoiseSpec(p=0.4, rng_seed=7)
AGENT = AgentConfig(noise_p=0.3, width_c=2.0, nota=0.1, credal_spread=0.02)

# Every field of every object below holds a value other than its default.
SYNTH_SOURCE = DatasetSource(
    kind=DATASET_SYNTH, path="unused.jsonl", format="mc_like", transform=TRANSFORM,
    noise_p=0.4, m=6, word_length=5, count=3, base_seed=9,
)
QA_SOURCE = DatasetSource(
    kind=DATASET_QA_FILE, path="data.jsonl", format="maqa_like", transform=TRANSFORM,
    noise_p=0.1, m=2, word_length=3, count=5, base_seed=4,
)
CONFIG = CampaignConfig(
    dataset=SYNTH_SOURCE,
    methods=("probint", "credal"),
    endpoints=(ModelEndpoint(
        base_url="http://127.0.0.1:8139/v1/chat/completions", model_id="mock-agent",
        auth_token_env="IPUQ_TOKEN", temperature=0.7, seed=11,
        price_per_input_token=1e-6, price_per_output_token=2e-6,
    ),),
    seeds=(3, 5),
    retry_budget=2,
    concurrency=3,
    output_dir="runs/round-trip",
    credal_members=4,
    score_mode="set",
    salvage_renormalize=True,
)
SCRIPT = MockScript(
    entries=(
        ScriptEntry(question="Capital of the Netherlands?", kind="definetti",
                    replies=("one", "two"), seed=4),
        ScriptEntry(question="Name a prime below ten.", kind="vanilla", replies=("three",)),
    ),
    agent=AGENT,
)


@pytest.mark.parametrize("original", [
    pytest.param(CONFIG, id="CampaignConfig"),
    pytest.param(SYNTH_SOURCE, id="DatasetSource-synth"),
    pytest.param(QA_SOURCE, id="DatasetSource-qa_file"),
    pytest.param(TRANSFORM, id="TransformSpec"),
    pytest.param(NOISE, id="NoiseSpec"),
    pytest.param(generate_icl_task(TRANSFORM, NOISE, m=3, word_length=4, rng_seed=2),
                 id="IclTask"),
    pytest.param(AGENT, id="AgentConfig"),
    pytest.param(SCRIPT, id="MockScript"),
])
def test_round_trip_through_json_text(original):
    text = json.dumps(original.to_dict())
    assert type(original).from_dict(json.loads(text)) == original


def _config_data():
    return json.loads(json.dumps(CONFIG.to_dict()))


def _without(data, *path):
    *parents, last = path
    target = data
    for key in parents:
        target = target[key]
    del target[last]
    return data


MALFORMED_CONFIGS = {
    "missing endpoints": (_without(_config_data(), "endpoints"), "CampaignConfig.endpoints"),
    "missing model_id": (
        _without(_config_data(), "endpoints", 0, "model_id"), "ModelEndpoint.model_id"
    ),
    "missing dataset kind": (_without(_config_data(), "dataset", "kind"), "DatasetSource.kind"),
    "list for an object": (dict(_config_data(), dataset=[]), "CampaignConfig.dataset"),
    "list for an endpoint": (dict(_config_data(), endpoints=[[]]), "CampaignConfig.endpoints"),
    "fractional integer": (dict(_config_data(), concurrency=2.9), "CampaignConfig.concurrency"),
    "boolean as integer": (dict(_config_data(), seeds=[True]), "CampaignConfig.seeds"),
    "string as boolean": (
        dict(_config_data(), salvage_renormalize="false"), "CampaignConfig.salvage_renormalize"
    ),
    "short transform step": (
        {**_config_data(), "dataset": {"kind": "synth", "transform": {"steps": [["rotation"]]}}},
        "TransformSpec.steps",
    ),
    "not an object": ([], "CampaignConfig"),
}


@pytest.mark.parametrize("data, where", MALFORMED_CONFIGS.values(), ids=MALFORMED_CONFIGS)
def test_malformed_config_names_the_field(data, where):
    with pytest.raises(ConfigError, match=rf"^{re.escape(where)}: "):
        CampaignConfig.from_dict(copy.deepcopy(data))


@pytest.mark.parametrize("entry, where", [
    ({"question": "q", "kind": "vanilla"}, "ScriptEntry.replies"),
    ({"question": "q", "kind": "vanilla", "replies": "a"}, "ScriptEntry.replies"),
    ({"question": "q", "kind": "vanilla", "replies": ["a"], "seed": "1"}, "ScriptEntry.seed"),
], ids=["missing replies", "string for replies", "string for seed"])
def test_malformed_script_entry_names_the_field(entry, where):
    with pytest.raises(ConfigError, match=rf"^{re.escape(where)}: "):
        MockScript.from_dict({"entries": [entry]})


@pytest.mark.parametrize("transform, message", [
    ({"steps": [["rot13", 1]]}, "unknown transform kind 'rot13'"),
    ({"steps": [], "shift_direction": "up"}, "unknown shift direction 'up'"),
])
def test_invalid_transform_is_a_config_error(transform, message):
    data = dict(_config_data(), dataset={"kind": "synth", "transform": transform})
    with pytest.raises(ConfigError, match=re.escape(message)):
        CampaignConfig.from_dict(data)


def test_missing_keys_take_the_field_defaults():
    data = {
        "dataset": {"kind": "synth", "transform": {"steps": [["rotation", 1]]}},
        "methods": ["definetti"],
        "endpoints": [{"base_url": "http://127.0.0.1:8139", "model_id": "m", "temperature": 1}],
    }
    config = CampaignConfig.from_dict(data)
    assert config == CampaignConfig(
        dataset=DatasetSource(kind="synth", transform=TransformSpec(steps=(("rotation", 1),))),
        methods=("definetti",),
        endpoints=(ModelEndpoint(base_url="http://127.0.0.1:8139", model_id="m",
                                 temperature=1.0),),
    )
    # an integer in a float field is stored as a float, as the request body sends it
    assert type(config.endpoints[0].temperature) is float


@pytest.mark.parametrize("path", [
    ("endpoints", 0, "temperature"),
    ("endpoints", 0, "price_per_input_token"),
    ("dataset", "noise_p"),
])
@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400,
                                     "-1" + "0" * 400],
                         ids=["NaN", "Infinity", "-Infinity", "401 digits", "-401 digits"])
def test_non_finite_floats_are_refused(path, literal):
    data = _config_data()
    *parents, last = path
    target = data
    for key in parents:
        target = target[key]
    target[last] = "@"
    text = json.dumps(data).replace('"@"', literal)
    owner = "DatasetSource" if path[0] == "dataset" else "ModelEndpoint"
    with pytest.raises(ConfigError, match=rf"^{owner}\.{last}: expected a finite number, "):
        CampaignConfig.from_dict(json.loads(text))


@pytest.mark.parametrize("field, value, message", [
    ("m", -1, "m >= 0"),
    ("count", 0, "count >= 1"),
    ("word_length", 0, "word_length must lie in [1, 20]"),
    ("word_length", 21, "word_length must lie in [1, 20]"),
    ("noise_p", 1.5, "noise probability must lie in [0, 1]"),
    ("noise_p", -0.1, "noise probability must lie in [0, 1]"),
])
def test_synth_fields_outside_the_generator_bounds_are_refused(field, value, message):
    data = _config_data()
    data["dataset"][field] = value
    with pytest.raises(ConfigError, match=re.escape(message)):
        CampaignConfig.from_dict(data)


def test_synth_bounds_are_inclusive():
    for field, value in (("m", 0), ("count", 1), ("word_length", 1), ("word_length", 20),
                         ("noise_p", 0.0), ("noise_p", 1.0)):
        assert getattr(DatasetSource.from_dict(
            dict(SYNTH_SOURCE.to_dict(), **{field: value})), field) == value


def test_an_unknown_qa_format_is_refused():
    with pytest.raises(ConfigError, match=re.escape(
            "unknown QA format 'maqa'; choose from ('maqa_like', 'ambigqa_like', 'mc_like')")):
        DatasetSource.from_dict(dict(QA_SOURCE.to_dict(), format="maqa"))


@pytest.mark.parametrize("field, values, message", [
    ("methods", ["vanilla", "credal", "vanilla"], "method 'vanilla' is listed twice"),
    ("seeds", [0, 1, 0], "seed 0 is listed twice"),
])
def test_a_repeated_method_or_seed_is_refused(field, values, message):
    data = _config_data()
    data[field] = values
    with pytest.raises(ConfigError, match=rf"^{re.escape(message)}$"):
        CampaignConfig.from_dict(data)
