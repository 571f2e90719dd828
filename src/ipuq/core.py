"""Core value types for answer sets and imprecise-probability reports.

Everything in here is a plain immutable container plus a validated
constructor.  The probability types come in four flavours:

* :class:`PrecisePMF` -- a single distribution over a candidate set,
* :class:`ProbabilityIntervalSet` -- per-answer lower/upper probabilities,
* :class:`CredalSet` -- a finite ensemble of PMFs over a shared candidate set,
* :class:`PossibilityAssignment` -- per-answer plausibility scores in [0, 1]
  plus a reserved "none of the listed answers" slot.

All of them hash/compare by value and are safe to share across threads.

:class:`JsonForm` gives the config dataclasses of the other modules their
one JSON form, and reads it back with a type check on every field.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys
import types
import typing
from dataclasses import dataclass
from typing import Any, Sequence, TypeVar

#: Absolute tolerance for probability sum checks across the whole package.
#: Verbalized numbers arrive as short decimal strings, so binary float noise
#: is the only thing this needs to absorb.
PROB_TOL = 1e-6


class IpuqError(Exception):
    """Base class for every error raised by this package."""


class InvalidValueError(IpuqError, ValueError):
    """A value that breaks a rule of the type or function it was given to."""


class InvertedIntervalError(IpuqError, ValueError):
    pass


class ConfigError(IpuqError, ValueError):
    """A config the program cannot use: malformed JSON form or contradictory settings."""


_FLOAT_MAX = sys.float_info.max


def is_finite_number(value: Any) -> bool:
    """Whether ``value``, read from JSON, is a number a float holds: an int or
    a float within +-``sys.float_info.max``.  A bool is not a number here, and
    ``json.loads`` reads NaN, the infinities and integers of any length."""
    return type(value) in (int, float) and -_FLOAT_MAX <= value <= _FLOAT_MAX


def is_count(value: Any) -> bool:
    """Whether ``value``, read from JSON, is a token count: a non-negative int
    that passes :func:`is_finite_number`, so that a float price can scale it."""
    return type(value) is int and value >= 0 and is_finite_number(value)


def refuse_repeats(name: str, values: Sequence[Any]) -> None:
    """Raise :class:`ConfigError` for a value listed twice, which would run,
    bill and count its cells twice."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(f"{name} {value!r} is listed twice")


_J = TypeVar("_J", bound="JsonForm")

#: The values each scalar field type accepts; an integer may fill a float field.
_SCALARS: dict[type, tuple[type, ...]] = {
    str: (str,), int: (int,), float: (int, float), bool: (bool,)
}


class JsonForm:
    """The JSON form of a config dataclass.

    ``to_dict`` is :func:`dataclasses.asdict`, and ``from_dict`` reads that
    form back.  It descends into nested dataclasses, ``X | None`` and
    ``tuple[...]`` fields.  A missing key takes the field's default and an
    unknown key is ignored.  Every value is checked against its field's type:
    a missing required key or a mismatch raises :class:`ConfigError` naming
    ``Class.field``.  A JSON boolean does not count as a number, and a float
    field refuses NaN and infinities.
    """

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls: type[_J], data: Any) -> _J:
        return _read_dataclass(cls, data, cls.__name__)

    @classmethod
    def load(cls: type[_J], path: str) -> _J:
        """Read a JSON file; one not UTF-8 or not JSON is a ConfigError."""
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        return cls.from_dict(data)


@functools.cache
def _field_types(cls: type) -> tuple[tuple[str, Any, bool], ...]:
    """(name, type, required) per field.  Resolving the annotations evaluates
    their strings, so it is done once per class."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (
            f.name,
            hints[f.name],
            f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING,
        )
        for f in dataclasses.fields(cls)
    )


def _mismatch(where: str, expected: str, value: Any) -> ConfigError:
    return ConfigError(f"{where}: expected {expected}, got {type(value).__name__} {value!r:.60}")


def _read_dataclass(cls: type, data: Any, where: str) -> Any:
    if not isinstance(data, dict):
        raise _mismatch(where, "an object", data)
    kwargs = {}
    for name, hint, required in _field_types(cls):
        if name in data:
            kwargs[name] = _read(hint, data[name], f"{cls.__name__}.{name}")
        elif required:
            raise ConfigError(f"{cls.__name__}.{name}: missing required key")
    return cls(**kwargs)


def _read(hint: Any, value: Any, where: str) -> Any:
    if dataclasses.is_dataclass(hint):
        return _read_dataclass(hint, value, where)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (types.UnionType, typing.Union):  # X | None
        if value is None:
            return None
        (inner,) = (a for a in args if a is not type(None))
        return _read(inner, value, where)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise _mismatch(where, "an array", value)
        if args[-1] is Ellipsis:
            return tuple(_read(args[0], item, where) for item in value)
        if len(value) != len(args):
            raise _mismatch(where, f"an array of {len(args)}", value)
        return tuple(_read(a, item, where) for a, item in zip(args, value))
    if not isinstance(value, _SCALARS[hint]) or (hint is not bool and isinstance(value, bool)):
        raise _mismatch(where, hint.__name__, value)
    if hint is not float:
        return value
    if not is_finite_number(value):
        raise _mismatch(where, "a finite number", value)
    return float(value)


@dataclass(frozen=True)
class CandidateSet:
    """An ordered set of answer strings, optionally open-ended.

    ``open_ended`` marks candidate lists that do not claim to be exhaustive
    (e.g. model-generated enumerations).  It is kept in each record's
    candidate set, but no elicitation protocol reads it: the possibility
    protocol asks for a "none of the listed answers" slot either way.

    The set owns answer matching.  Two answers are the same when their keys
    are equal, where the key trims surrounding whitespace and then
    case-folds, unless ``case_sensitive`` is set -- needed when the
    candidates legitimately differ only in casing, as in the synthetic
    noisy-casing tasks.  That one rule drops duplicates at construction
    (the first occurrence wins and order is otherwise preserved) and
    answers :meth:`index_of` and :meth:`matches`.
    """

    answers: tuple[str, ...]
    open_ended: bool = False
    case_sensitive: bool = False
    _index: dict[str, int] = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        cleaned: list[str] = []
        index: dict[str, int] = {}
        for raw in self.answers:
            if not isinstance(raw, str):
                raise InvalidValueError(f"candidate answers must be strings, got {raw!r:.60}")
            text = raw.strip()
            if not text:
                raise InvalidValueError("candidate answers must be non-empty strings")
            key = self._fold(text)
            if key not in index:
                index[key] = len(cleaned)
                cleaned.append(text)
        if not cleaned:
            raise InvalidValueError("a candidate set needs at least one answer")
        object.__setattr__(self, "answers", tuple(cleaned))
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.answers)

    def _fold(self, trimmed: str) -> str:
        return trimmed if self.case_sensitive else trimmed.casefold()

    def _key(self, answer: str) -> str:
        return self._fold(answer.strip())

    def index_of(self, answer: str) -> int | None:
        """Index of the candidate that ``answer`` matches, or None."""
        return self._index.get(self._key(answer))

    def matches(self, a: str, b: str) -> bool:
        """Whether ``a`` and ``b`` are the same answer under this set's rule."""
        return self._key(a) == self._key(b)


@dataclass(frozen=True)
class PrecisePMF:
    """A probability mass function over a candidate set."""

    candidates: CandidateSet
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))
        if len(self.probs) != len(self.candidates):
            raise InvalidValueError(
                f"{len(self.probs)} probabilities for {len(self.candidates)} candidates"
            )
        for i, p in enumerate(self.probs):
            if not 0.0 <= p <= 1.0:
                raise InvalidValueError(f"prob at index {i} outside [0, 1]: {p!r}")
        total = sum(self.probs)
        if abs(total - 1.0) > PROB_TOL:
            raise InvalidValueError(f"probabilities sum to {total!r}, expected 1")


@dataclass(frozen=True)
class ProbabilityIntervalSet:
    """Per-answer probability intervals [lower_i, upper_i]."""

    candidates: CandidateSet
    lowers: tuple[float, ...]
    uppers: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "lowers", tuple(float(x) for x in self.lowers))
        object.__setattr__(self, "uppers", tuple(float(x) for x in self.uppers))
        n = len(self.candidates)
        if len(self.lowers) != n or len(self.uppers) != n:
            raise InvalidValueError("interval bounds must align with candidates")
        for i, (lo, hi) in enumerate(zip(self.lowers, self.uppers)):
            if not (lo >= 0.0 and hi <= 1.0):
                raise InvalidValueError(f"interval at index {i} outside [0, 1]: [{lo!r}, {hi!r}]")
            if lo > hi:
                raise InvertedIntervalError(f"lower {lo!r} above upper {hi!r} at index {i}")


@dataclass(frozen=True)
class CredalSet:
    """A finite ensemble of PMFs over one shared candidate set.

    The convex hull of the members is the intended object; since event
    probabilities are linear in the PMF, extrema over the hull are attained
    at the stored members, so keeping the finite generator set suffices.
    """

    candidates: CandidateSet
    members: tuple[PrecisePMF, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise InvalidValueError("a credal set needs at least one member PMF")
        for m in self.members:
            if m.candidates != self.candidates:
                raise InvalidValueError("member PMFs must share the candidate set")

    def __len__(self) -> int:
        return len(self.members)

    @functools.cached_property
    def mean(self) -> PrecisePMF:
        """The members' equal-weight arithmetic mean, built on first use."""
        m = len(self.members)
        mean = [sum(column) / m for column in zip(*(member.probs for member in self.members))]
        return build_pmf(self.candidates, mean, renormalize=True)


@dataclass(frozen=True)
class PossibilityAssignment:
    """Plausibility scores in [0, 1] per answer, plus a reserved slot.

    ``none_of_above`` scores the event "some answer not in the list is the
    correct one".  Scores need not sum to anything; a fully plausible answer
    scores 1.0.  All-zero assignments are representable (a model can emit
    them) but cannot be normalized -- see
    :func:`ipuq.coherence.normalize_possibility`.
    """

    candidates: CandidateSet
    scores: tuple[float, ...]
    none_of_above: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "scores", tuple(float(s) for s in self.scores))
        if len(self.scores) != len(self.candidates):
            raise InvalidValueError("one possibility score per candidate")
        for i, s in enumerate((*self.scores, self.none_of_above)):
            if not 0.0 <= s <= 1.0:
                raise InvalidValueError(f"possibility score outside [0, 1] at slot {i}: {s!r}")

    def combined(self) -> tuple[float, ...]:
        """Candidate scores with the none-of-the-above slot appended."""
        return (*self.scores, self.none_of_above)


#: The rule :func:`is_pstar` checks, as both QA ingest and the records reader state it.
PSTAR_RULE = "pstar must be null or one finite non-negative number per truth_set answer"


def is_pstar(pstar: Any, truth_size: int) -> bool:
    """Whether ``pstar`` is a p* over a truth set of ``truth_size`` answers:
    None, or a list or tuple of one finite non-negative number per answer,
    each passing :func:`is_finite_number`."""
    return pstar is None or (
        isinstance(pstar, (list, tuple)) and len(pstar) == truth_size
        and all(is_finite_number(p) and p >= 0 for p in pstar)
    )


def _check_text(name: str, value: Any) -> None:
    """Refuse a ``value`` that is not a string UTF-8 can encode."""
    if not isinstance(value, str):
        raise InvalidValueError(f"{name} must be a string, got {value!r:.60}")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise InvalidValueError(f"{name} holds a lone surrogate at index {exc.start}, "
                                "which UTF-8 cannot encode") from None


@dataclass
class QARecord:
    """One question with its candidate answers, labels and attached results.

    ``truth_set`` holds every admissible reference answer (more than one
    marks the question as ambiguous).  ``reference_answer`` is the single
    answer correctness is judged against.  ``prediction`` is whatever answer
    the system under study committed to, which may fall outside the candidate
    list.

    Construction is the one definition of a valid question: the question,
    every answer, the reference and the prediction are strings UTF-8 can
    encode (the last two may be None), the reference matches a truth-set
    answer under the candidate set's rule, and ``pstar`` passes
    :func:`is_pstar`.  Anything else raises an :class:`IpuqError`.
    """

    question: str
    candidates: CandidateSet
    truth_set: tuple[str, ...] = ()
    reference_answer: str | None = None
    prediction: str | None = None
    pstar: tuple[float, ...] | None = None
    question_id: str | None = None

    def __post_init__(self) -> None:
        _check_text("question", self.question)
        for answer in (*self.candidates.answers, *self.truth_set):
            _check_text("answer", answer)
        for name in ("reference_answer", "prediction"):
            if (value := getattr(self, name)) is not None:
                _check_text(name, value)
        self.truth_set = tuple(t.strip() for t in self.truth_set)
        ref = self.reference_answer
        if (ref is not None and self.truth_set
                and not any(self.candidates.matches(ref, t) for t in self.truth_set)):
            raise InvalidValueError("reference answer must be a member of the truth set")
        if not is_pstar(self.pstar, len(self.truth_set)):
            raise InvalidValueError(PSTAR_RULE)
        if self.pstar is not None:
            self.pstar = tuple(float(p) for p in self.pstar)


def build_pmf(
    candidates: CandidateSet,
    weights: Sequence[float],
    *,
    renormalize: bool = False,
) -> PrecisePMF:
    """Build a :class:`PrecisePMF` from raw non-negative, finite weights.

    With ``renormalize=False`` the weights must already sum to 1 within
    ``PROB_TOL``; they are divided by their exact sum anyway so downstream
    arithmetic sees a sum as close to 1.0 as the representation allows.
    With ``renormalize=True`` any positive total is accepted.  Renormalizing
    twice changes nothing (the second division is by a sum that is already
    1.0 up to one rounding step).
    """
    weights = [float(w) for w in weights]
    if len(weights) != len(candidates):
        raise InvalidValueError(
            f"{len(weights)} weights for {len(candidates)} candidates"
        )
    for i, w in enumerate(weights):
        if w < 0.0:
            raise InvalidValueError(f"negative weight at index {i}: {w!r}")
        if not math.isfinite(w):
            raise InvalidValueError(f"weight at index {i} is not finite: {w!r}")
    total = sum(weights)
    if total <= 0.0:
        raise InvalidValueError("weights sum to zero; no distribution can be formed")
    if not renormalize and abs(total - 1.0) > PROB_TOL:
        raise InvalidValueError(
            f"weights sum to {total!r}, expected 1 within {PROB_TOL}"
        )
    probs = tuple(min(w / total, 1.0) for w in weights)
    return PrecisePMF(candidates=candidates, probs=probs)


def interval_from_credal(credal: CredalSet) -> ProbabilityIntervalSet:
    """Componentwise envelope of a credal set's members.

    Takes, for each answer, the minimum and maximum probability any member
    assigns to it.  Every member lies inside the resulting box, so the
    envelope can only be wider than the credal set, never narrower.
    """
    members = credal.members
    lowers = tuple(min(m.probs[i] for m in members) for i in range(len(credal.candidates)))
    uppers = tuple(max(m.probs[i] for m in members) for i in range(len(credal.candidates)))
    return ProbabilityIntervalSet(candidates=credal.candidates, lowers=lowers, uppers=uppers)


__all__ = [
    "PROB_TOL",
    "IpuqError",
    "InvalidValueError",
    "InvertedIntervalError",
    "ConfigError",
    "is_finite_number",
    "is_count",
    "refuse_repeats",
    "JsonForm",
    "CandidateSet",
    "PrecisePMF",
    "ProbabilityIntervalSet",
    "CredalSet",
    "PossibilityAssignment",
    "QARecord",
    "PSTAR_RULE",
    "is_pstar",
    "build_pmf",
    "interval_from_credal",
]
