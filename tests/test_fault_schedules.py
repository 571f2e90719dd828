"""Seeded fault schedules over one campaign, resumed to a fixed point.

Each schedule draws a few faults and runs one synth campaign (all five
methods, two seeds) under them, then resumes it with the faults off until
``run_campaign`` has nothing left to run.  The faults:

- a retryable outage on one request, which the client's backoff outlasts;
- a non-retryable outage on one request;
- a transport that raises something other than a transport error;
- an ``OSError`` on the n-th records append;
- a ``KeyboardInterrupt`` once r records are written;
- a torn last line: the faulted run's last record cut short, without its
  newline, as a process killed in the middle of that append leaves it.

Transport faults are keyed by request content (question, protocol and
request seed), never by call order, so a schedule means the same at every
concurrency.  Each cell gets at most one of them.  Every schedule must
leave a file with each cell once and no torn line; the tokens served must
equal the file's usage plus the usage logged for dropped cells plus the
torn cell's first billing, which the resume bills again; a cell that failed
stays failed; and every other cell must equal the cell of an uninterrupted
run, apart from ``timing``.
"""

import collections
import dataclasses
import json
import logging
import os
import random
import threading

import pytest

import ipuq.campaign
from ipuq.campaign import (
    DATASET_SYNTH,
    METHODS,
    RECORD_SCHEMA,
    CampaignConfig,
    DatasetSource,
    append_records,
    build_synth_records,
    records_path,
    run_campaign,
)
from ipuq.elicit.client import ChatClient, ModelEndpoint, TransportError
from ipuq.elicit.prompts import PromptKind, detect_kind, extract_question
from ipuq.mock import AgentConfig, MockScript, MockTransport
from ipuq.synth import TransformSpec

SEEDS = (0, 1)
MEMBERS = 3
SCHEDULES = 20
OUTAGE = "transport: injected outage"
RAISED = "RuntimeError: injected fault"
UNPARSEABLE = "no numbers today"


def campaign_config(output_dir, concurrency=1):
    dataset = DatasetSource(kind=DATASET_SYNTH, transform=TransformSpec(steps=(("rotation", 1),)),
                            noise_p=0.25, m=2, word_length=3, count=2, base_seed=0)
    return CampaignConfig(
        dataset=dataset,
        methods=METHODS,
        endpoints=(ModelEndpoint(base_url="inproc://agent", model_id="mock-agent"),),
        seeds=SEEDS,
        output_dir=str(output_dir),
        credal_members=MEMBERS,
        concurrency=concurrency,
        retry_budget=3,
    )


def request_key(endpoint, user_text):
    """(question, protocol, request seed): what a request asks, whoever sends it."""
    return extract_question(user_text), detect_kind(user_text).value, endpoint.seed


class FaultyAgent:
    """The simulated agent behind content-keyed faults, counting what it serves.

    ``faults`` maps a request key to a fault and a count: ``("retryable", k)``
    fails the first k sends of that request with a retryable error;
    ``("outage", k)`` and ``("raise", k)`` answer the first k sends with a
    reply that does not parse, each a billed attempt, and then fail every
    send, without retry or by raising.  Faults apply while ``on`` is set.
    """

    def __init__(self, faults):
        self.inner = MockTransport(MockScript(agent=AgentConfig()))
        self.faults = faults
        self.on = True
        self.sends = collections.Counter()
        self.served = collections.Counter()
        self.lock = threading.Lock()

    def send(self, endpoint, system_text, user_text):
        key = request_key(endpoint, user_text)
        fault, count = self.faults.get(key, (None, 0)) if self.on else (None, 0)
        with self.lock:
            self.sends[key] += 1
            sends = self.sends[key]
        if fault == "retryable" and sends <= count:
            raise TransportError("injected busy endpoint", retryable=True)
        if fault == "outage" and sends > count:
            raise TransportError("injected outage", retryable=False)
        if fault == "raise" and sends > count:
            raise RuntimeError("injected fault")
        reply = self.inner.send(endpoint, system_text, user_text)
        if fault in ("outage", "raise"):
            reply = dataclasses.replace(reply, text=UNPARSEABLE,
                                        output_tokens=len(UNPARSEABLE.split()))
        with self.lock:
            self.served.update(requests=1, input_tokens=reply.input_tokens,
                               output_tokens=reply.output_tokens)
        return reply


def draw_schedule(seed, config):
    """A seeded schedule: transport faults by request key, each on its own
    cell, the append at which a write fails, the record count after which
    Ctrl-C arrives, and the fraction of the last record a torn line keeps
    (each of the last three may be None)."""
    rng = random.Random(seed)
    questions = [q.question for q in build_synth_records(config.dataset)]
    cells = [(q, m, s) for q in questions for m in config.methods for s in config.seeds]
    total = len(cells)
    transport = {}
    cell_faults = {}
    for cell in rng.sample(cells, rng.randint(0, 4)):
        question, method, seed = cell
        request_seed = seed
        if method == PromptKind.CREDAL.value:
            request_seed = seed * 100 + rng.randrange(config.credal_members)
        # a retryable outage outlasts at most the client's 3 retries; the
        # others strike after up to 2 billed attempts of the budget of 3
        fault = rng.choice((("retryable", rng.randint(1, 3)), ("outage", rng.randint(0, 2)),
                            ("raise", rng.randint(0, 2))))
        transport[(question, method, request_seed)] = fault
        cell_faults[cell] = fault[0]
    fail_append = rng.choice((None, rng.randint(1, total)))
    interrupt_after = rng.choice((None, rng.randint(1, total)))
    torn = rng.choice((None, rng.random()))
    return transport, cell_faults, fail_append, interrupt_after, torn


def writer_faults(monkeypatch, fail_append, interrupt_after):
    """Make the n-th append raise ``OSError`` and the append that brings the
    file to r records raise ``KeyboardInterrupt`` once it has written."""
    appends = 0
    written = 0
    fired = False

    def faulty_append(path, records):
        nonlocal appends, written, fired
        appends += 1
        if not fired and appends == fail_append:
            fired = True
            raise OSError("injected disk full")
        append_records(path, records)
        written += len(records)
        if not fired and interrupt_after is not None and written >= interrupt_after:
            fired = True
            raise KeyboardInterrupt

    monkeypatch.setattr(ipuq.campaign, "append_records", faulty_append)


def tear_last_line(path, keep):
    """Cut the file's last record to a non-empty prefix without its newline,
    keeping about a ``keep`` fraction of it; return that record, whole, or
    None when the file holds no record to tear."""
    data, lines = read_lines(path)
    if len(lines) < 2:
        return None
    start = data.rindex(b"\n", 0, len(data) - 1) + 1
    with open(path, "rb+") as fh:
        fh.truncate(start + 1 + int(keep * (len(data) - start - 2)))
    return lines[-1]


def read_lines(path):
    """The file's bytes and its decoded lines; no file reads as empty."""
    if not os.path.exists(path):
        return b"", []
    with open(path, "rb") as fh:
        data = fh.read()
    assert data.endswith(b"\n"), "torn last line"
    return data, [json.loads(line) for line in data.split(b"\n")[:-1]]


def usage(records):
    total = collections.Counter()
    for record in records:
        elicitation = record["elicitation"]
        total.update(requests=elicitation["attempts"], **elicitation["usage"])
    return total


def cell_of(record):
    key = record["key"]
    return record["question"], key["method"], key["seed"]


def without_timing(record):
    return {k: v for k, v in record.items() if k != "timing"}


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    config = campaign_config(tmp_path_factory.mktemp("uninterrupted"))
    written = run_campaign(config, client=ChatClient(FaultyAgent({})))
    return {cell_of(r): without_timing(r) for r in written}


@pytest.mark.parametrize("concurrency", (1, 2, 3, 4))
@pytest.mark.parametrize("seed", range(SCHEDULES))
def test_a_fault_schedule_resumes_to_the_uninterrupted_file(
    tmp_path, monkeypatch, caplog, uninterrupted, seed, concurrency
):
    config = campaign_config(tmp_path / "runs", concurrency)
    transport, cell_faults, fail_append, interrupt_after, torn = draw_schedule(seed, config)
    agent = FaultyAgent(transport)
    client = ChatClient(agent, sleep=lambda s: None)
    path = records_path(config.output_dir)

    with monkeypatch.context() as patched, caplog.at_level(logging.ERROR, "ipuq.campaign"):
        writer_faults(patched, fail_append, interrupt_after)
        try:
            run_campaign(config, client=client)
        except (OSError, KeyboardInterrupt):
            pass
    dropped = [r for r in caplog.records
               if r.levelno == logging.ERROR and r.name == "ipuq.campaign"]
    faulted_bytes, faulted = read_lines(path)
    torn_record = tear_last_line(path, torn) if torn is not None else None
    if torn_record is not None:
        faulted_bytes = faulted_bytes[:faulted_bytes.rindex(b"\n", 0, -1) + 1]
        faulted = faulted[:-1]
    agent.on = False
    caplog.clear()
    with caplog.at_level(logging.WARNING, "ipuq.campaign"):
        for _ in range(3):
            if run_campaign(config, client=client) == []:
                break
        else:
            pytest.fail("resuming did not reach a fixed point")
    # the first resume truncates the torn line, with one warning
    torn_warnings = [r for r in caplog.records if "torn trailing record" in r.getMessage()]
    assert len(torn_warnings) == (torn_record is not None)

    data, (header, *records) = read_lines(path)
    # each cell once, the header once, and the faulted run's lines kept as written
    assert header == {"schema": RECORD_SCHEMA}
    assert sorted(map(cell_of, records)) == sorted(uninterrupted)
    assert data.startswith(faulted_bytes)

    # every served request and token is in the file, on a logged dropped
    # cell or on the torn record, whose cell the resume billed again
    logged = collections.Counter()
    for r in dropped:
        _qid, _method, _seed, attempts, input_tokens, output_tokens = r.args
        logged.update(requests=attempts, input_tokens=input_tokens, output_tokens=output_tokens)
    assert usage(records) + logged + usage([torn_record] if torn_record else []) == agent.served

    for record in records:
        cell = cell_of(record)
        error = record["elicitation"]["error"]
        if error is None:
            assert without_timing(record) == uninterrupted[cell]
        else:
            # a failed cell failed in the faulted run, by its own fault, and
            # the resumes left its record as it was
            assert error == {"outage": OUTAGE, "raise": RAISED}[cell_faults.get(cell)]
            assert cell in set(map(cell_of, faulted[1:]))
