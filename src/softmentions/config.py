"""Pipeline configuration: a flat key = value file plus flag overrides.

Dotted keys group settings (thresholds.use, dbscan.eps, ...). API tokens
never appear here; they come from environment variables so that config
snapshots in manifests stay free of secrets.
"""
from __future__ import annotations

import io
import os
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Iterable, Iterator

from .errors import ValidationError

KB_TOKEN_ENV = "SOFTMENTIONS_KB_TOKEN"
CODE_HOST_TOKEN_ENV = "SOFTMENTIONS_CODEHOST_TOKEN"

# Non-code-host links proved far more reliable in manual review, so the
# curated indices win when several sources match one name.
DEFAULT_PRECEDENCE_NAMES = (
    "PkgIndexBioc",
    "PkgIndexR",
    "PkgIndexPy",
    "KnowledgeBaseAPI",
    "CodeHostAPI",
)


def _setting(key: str, default):
    """A PipelineConfig field that the dotted configuration ``key`` sets."""
    return field(default=default, metadata={"key": key})


@dataclass
class PipelineConfig:
    corpus: str = _setting("paths.corpus", "")
    corpus_kind: str = _setting("corpus.kind", "comm")
    registry_py: str = _setting("paths.registry_py", "")
    registry_r: str = _setting("paths.registry_r", "")
    registry_bioc: str = _setting("paths.registry_bioc", "")
    registry_details: str = _setting("paths.registry_details", "")
    kb_dict: str = _setting("paths.kb_dict", "")
    stoplist: str = _setting("paths.stoplist", "")
    kb_snapshots: str = _setting("paths.kb_snapshots", "")
    codehost_snapshots: str = _setting("paths.codehost_snapshots", "")
    out_dir: str = _setting("paths.out_dir", "out")
    record_threshold: float = _setting("thresholds.record", 0.9)
    use_threshold: float = _setting("thresholds.use", 0.97)
    eps: float = _setting("dbscan.eps", 0.03)
    min_pts: int = _setting("dbscan.min_pts", 2)
    offline: bool = _setting("linking.offline", True)
    precedence: tuple[str, ...] = _setting("linking.precedence", DEFAULT_PRECEDENCE_NAMES)
    kb_api_url: str = _setting("linking.kb_api_url", "")
    workers: int = _setting("parallelism.workers", 1)
    strict: bool = _setting("parsing.strict", True)
    write_matrix: bool = _setting("output.matrix", False)
    eval_synonyms: str = _setting("eval.synonyms", "")
    eval_predicted_pairs: str = _setting("eval.predicted_pairs", "")
    eval_curation_multi: str = _setting("eval.curation_multi", "")
    eval_curation_binary: str = _setting("eval.curation_binary", "")
    eval_linking: str = _setting("eval.linking", "")
    eval_ratings_two: str = _setting("eval.ratings_two", "")
    eval_ratings_five: str = _setting("eval.ratings_five", "")

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
        if self.eps <= 0:
            raise ValidationError("dbscan.eps must be positive", "dbscan.eps")
        if self.min_pts < 1:
            raise ValidationError("dbscan.min_pts must be at least 1", "dbscan.min_pts")
        if self.workers < 1:
            raise ValidationError("parallelism.workers must be at least 1", "parallelism.workers")
        if self.corpus_kind not in ("comm", "non_comm", "publishers"):
            raise ValidationError(f"corpus.kind unknown: {self.corpus_kind!r}", "corpus.kind")
        unknown = [s for s in self.precedence if s not in DEFAULT_PRECEDENCE_NAMES]
        if unknown:
            raise ValidationError(
                f"linking.precedence has unknown sources: {unknown}", "linking.precedence"
            )

    def kb_token(self) -> str:
        return os.environ.get(KB_TOKEN_ENV, "")

    def codehost_token(self) -> str:
        return os.environ.get(CODE_HOST_TOKEN_ENV, "")

    def snapshot(self) -> dict[str, str]:
        """Flat string view of the effective settings, for manifests."""
        out = {}
        for key in sorted(_FIELDS):
            value = getattr(self, _FIELDS[key].name)
            if isinstance(value, tuple):
                value = ",".join(value)
            elif isinstance(value, bool):
                value = "true" if value else "false"
            out[key] = str(value)
        return out


# Each configuration key's field; a field without a key fails here, at import.
_FIELDS = {f.metadata["key"]: f for f in fields(PipelineConfig)}


def _coerce(key: str, raw: str):
    kind = _FIELDS[key].type
    raw = raw.strip()
    if kind == "bool":
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValidationError(f"{key}: expected true/false, got {raw!r}")
    if kind in ("int", "float"):
        try:
            return int(raw) if kind == "int" else float(raw)
        except ValueError:
            expected = "an integer" if kind == "int" else "a number"
            raise ValidationError(f"{key}: expected {expected}, got {raw!r}") from None
    if kind == "tuple[str, ...]":
        return tuple(part.strip() for part in raw.split(",") if part.strip())
    return raw


def apply_settings(config: PipelineConfig, settings: dict[str, str]) -> PipelineConfig:
    updates = {}
    for key, raw in settings.items():
        if key not in _FIELDS:
            raise ValidationError(f"unknown configuration key: {key!r}")
        updates[_FIELDS[key].name] = _coerce(key, raw)
    return replace(config, **updates)


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
        lineno = data.count(b"\n", 0, err.start) + 1
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
