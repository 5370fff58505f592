"""Pipeline configuration: a flat key = value file plus flag overrides.

Dotted keys group settings (thresholds.use, dbscan.eps, ...). API tokens
never appear here: the live fetchers of ``linking`` read them from the
environment.
"""
from __future__ import annotations

import io
import string
from collections import namedtuple
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator

from .errors import ValidationError
from .fileio import count_line_ends


class LinkSource(str, Enum):
    """Where a link comes from, in the default linking.precedence order.

    Non-code-host links proved far more reliable in manual review, so the
    curated indices win when several sources match one name.
    """

    PKG_INDEX_BIOC = "PkgIndexBioc"
    PKG_INDEX_R = "PkgIndexR"
    PKG_INDEX_PY = "PkgIndexPy"
    KNOWLEDGE_BASE = "KnowledgeBaseAPI"
    CODE_HOST = "CodeHostAPI"


DEFAULT_PRECEDENCE_NAMES = tuple(source.value for source in LinkSource)


def _is_name_template(url: str) -> bool:
    """Whether ``url`` is http(s) with at least one replacement field, each a bare {name}."""
    try:
        parts = [parsed[1:] for parsed in string.Formatter().parse(url) if parsed[1] is not None]
    except ValueError:  # a lone brace
        return False
    return url.startswith(("http://", "https://")) and bool(parts) and all(
        part == ("name", "", None) for part in parts
    )


# One line per setting: its PipelineConfig field, its dotted configuration
# key and its default, whose type is the kind of value the key takes.
_SETTINGS = (
    ("corpus", "paths.corpus", ""),
    ("corpus_kind", "corpus.kind", "comm"),
    ("registry_py", "paths.registry_py", ""),
    ("registry_r", "paths.registry_r", ""),
    ("registry_bioc", "paths.registry_bioc", ""),
    ("registry_details", "paths.registry_details", ""),
    ("kb_dict", "paths.kb_dict", ""),
    ("stoplist", "paths.stoplist", ""),
    ("kb_snapshots", "paths.kb_snapshots", ""),
    ("codehost_snapshots", "paths.codehost_snapshots", ""),
    ("out_dir", "paths.out_dir", "out"),
    ("record_threshold", "thresholds.record", 0.9),
    ("use_threshold", "thresholds.use", 0.97),
    ("eps", "dbscan.eps", 0.03),
    ("min_pts", "dbscan.min_pts", 2),
    ("offline", "linking.offline", True),
    ("precedence", "linking.precedence", DEFAULT_PRECEDENCE_NAMES),
    ("kb_api_url", "linking.kb_api_url", ""),
    ("workers", "parallelism.workers", 1),
    ("strict", "parsing.strict", True),
    ("write_matrix", "output.matrix", False),
    ("eval_synonyms", "eval.synonyms", ""),
    ("eval_predicted_pairs", "eval.predicted_pairs", ""),
    ("eval_curation_multi", "eval.curation_multi", ""),
    ("eval_curation_binary", "eval.curation_binary", ""),
    ("eval_linking", "eval.linking", ""),
    ("eval_ratings_two", "eval.ratings_two", ""),
    ("eval_ratings_five", "eval.ratings_five", ""),
)
# Each configuration key's field and default.
_FIELDS = {key: (name, default) for name, key, default in _SETTINGS}


class PipelineConfig(namedtuple(
    "PipelineConfig", [name for name, _, _ in _SETTINGS], defaults=[d for _, _, d in _SETTINGS]
)):
    """Every setting by its field name; ``_replace`` makes a changed copy."""

    __slots__ = ()

    def validate(self) -> None:
        """Check every value's invariant; an error's ``keys`` are the keys its rule reads."""
        if not 0.0 < self.record_threshold <= 1.0:
            raise ValidationError("thresholds.record must lie in (0, 1]", "thresholds.record")
        if not self.record_threshold <= self.use_threshold <= 1.0:
            raise ValidationError(
                f"thresholds.use ({self.use_threshold}) must lie in "
                f"[thresholds.record ({self.record_threshold}), 1]",
                "thresholds.use", "thresholds.record",
            )
        if not self.eps > 0:  # NaN too
            raise ValidationError("dbscan.eps must be positive", "dbscan.eps")
        if self.min_pts < 1:
            raise ValidationError("dbscan.min_pts must be at least 1", "dbscan.min_pts")
        if self.workers < 1:
            raise ValidationError("parallelism.workers must be at least 1", "parallelism.workers")
        if self.corpus_kind not in ("comm", "non_comm", "publishers"):
            raise ValidationError(f"corpus.kind unknown: {self.corpus_kind!r}", "corpus.kind")
        if self.kb_api_url and not _is_name_template(self.kb_api_url):
            raise ValidationError(
                "linking.kb_api_url must be an http(s) URL whose only field is {name}",
                "linking.kb_api_url",
            )
        unknown = [s for s in self.precedence if s not in DEFAULT_PRECEDENCE_NAMES]
        if unknown:
            raise ValidationError(
                f"linking.precedence has unknown sources: {unknown}", "linking.precedence"
            )

    def snapshot(self) -> dict[str, str]:
        """Flat string view of the effective settings, for manifests."""
        out = {}
        for key in sorted(_FIELDS):
            value = getattr(self, _FIELDS[key][0])
            if isinstance(value, tuple):
                value = ",".join(value)
            elif isinstance(value, bool):
                value = "true" if value else "false"
            out[key] = str(value)
        return out


def _coerce(key: str, raw: str):
    """``raw`` as a value of the type of ``key``'s default."""
    kind = type(_FIELDS[key][1])
    raw = raw.strip()
    if kind is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValidationError(f"{key}: expected true/false, got {raw!r}")
    if kind in (int, float):
        try:
            return kind(raw)
        except ValueError:
            expected = "an integer" if kind is int else "a number"
            raise ValidationError(f"{key}: expected {expected}, got {raw!r}") from None
    if kind is tuple:
        return tuple(part.strip() for part in raw.split(",") if part.strip())
    return raw


def apply_settings(config: PipelineConfig, settings: dict[str, str]) -> PipelineConfig:
    updates = {}
    for key, raw in settings.items():
        if key not in _FIELDS:
            raise ValidationError(f"unknown configuration key: {key!r}")
        updates[_FIELDS[key][0]] = _coerce(key, raw)
    return config._replace(**updates)


# A setting and where it was made: (origin, key, raw value), the origin
# being "file:line", "--set KEY=VALUE" or a flag.
Setting = tuple[str, str, str]


def read_config(path) -> Iterator[Setting]:
    """Each setting of a key = value file, its origin ``path:line``.

    A line ends at \\n, \\r\\n or \\r, as in ``fileio.open_text``. A line
    whose first non-blank character is '#' is a comment, blank lines are
    ignored; a '#' after a value belongs to the value. A file that cannot be
    read, is not UTF-8 or holds a line without '=' is a ValidationError
    naming the file and, where there is one, the line.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as err:
        raise ValidationError(f"{path}: cannot read configuration file: {err.strerror}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        lineno = count_line_ends(data[: err.start]) + 1
        raise ValidationError(f"{path}:{lineno}: not valid UTF-8") from None
    for lineno, line in enumerate(io.StringIO(text, newline=""), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValidationError(f"{path}:{lineno}: expected key = value")
        key, _, value = stripped.partition("=")
        yield f"{path}:{lineno}", key.strip(), value


def _apply_in_order(settings: Iterable[Setting]) -> tuple[PipelineConfig, dict[str, str]]:
    """The defaults with each setting applied in turn, and the origin of each key set."""
    config, origins = PipelineConfig(), {}
    for origin, key, value in settings:
        try:
            config = apply_settings(config, {key: value})
        except ValidationError as err:
            raise ValidationError(f"{origin}: {err}") from None
        origins[key] = origin
    return config, origins


def load_config(path) -> PipelineConfig:
    """The settings of a key = value file, unvalidated; an unknown key or bad value names its line."""
    return _apply_in_order(read_config(path))[0]


def resolve_config(settings: Iterable[Setting]) -> PipelineConfig:
    """The defaults with each setting applied in turn, validated.

    Every error starts with the origin of the setting at fault; one that
    breaks a rule over several keys starts with the origin of each of them
    that was set.
    """
    config, origins = _apply_in_order(settings)
    try:
        config.validate()
    except ValidationError as err:
        where = ", ".join(origins[key] for key in err.keys if key in origins)
        raise ValidationError(f"{where}: {err}" if where else str(err), *err.keys) from None
    return config
