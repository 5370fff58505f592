"""Pipeline configuration: a flat key = value file plus flag overrides.

Dotted keys group settings (thresholds.use, dbscan.eps, ...). API tokens
never appear here; they come from environment variables so that config
snapshots in manifests stay free of secrets.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
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


@dataclass
class PipelineConfig:
    corpus: str = ""
    corpus_kind: str = "comm"
    registry_py: str = ""
    registry_r: str = ""
    registry_bioc: str = ""
    registry_details: str = ""
    kb_dict: str = ""
    stoplist: str = ""
    kb_snapshots: str = ""
    codehost_snapshots: str = ""
    out_dir: str = "out"
    record_threshold: float = 0.9
    use_threshold: float = 0.97
    eps: float = 0.03
    min_pts: int = 2
    offline: bool = True
    precedence: tuple[str, ...] = DEFAULT_PRECEDENCE_NAMES
    kb_api_url: str = ""
    workers: int = 1
    strict: bool = True
    write_matrix: bool = False
    eval_synonyms: str = ""
    eval_predicted_pairs: str = ""
    eval_curation_multi: str = ""
    eval_curation_binary: str = ""
    eval_linking: str = ""
    eval_ratings_two: str = ""
    eval_ratings_five: str = ""

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
        for key in sorted(_KEY_TO_FIELD):
            value = getattr(self, _KEY_TO_FIELD[key])
            if isinstance(value, tuple):
                value = ",".join(value)
            elif isinstance(value, bool):
                value = "true" if value else "false"
            out[key] = str(value)
        return out


_KEY_TO_FIELD = {
    "paths.corpus": "corpus",
    "corpus.kind": "corpus_kind",
    "paths.registry_py": "registry_py",
    "paths.registry_r": "registry_r",
    "paths.registry_bioc": "registry_bioc",
    "paths.registry_details": "registry_details",
    "paths.kb_dict": "kb_dict",
    "paths.stoplist": "stoplist",
    "paths.kb_snapshots": "kb_snapshots",
    "paths.codehost_snapshots": "codehost_snapshots",
    "paths.out_dir": "out_dir",
    "thresholds.record": "record_threshold",
    "thresholds.use": "use_threshold",
    "dbscan.eps": "eps",
    "dbscan.min_pts": "min_pts",
    "linking.offline": "offline",
    "linking.precedence": "precedence",
    "linking.kb_api_url": "kb_api_url",
    "parallelism.workers": "workers",
    "parsing.strict": "strict",
    "output.matrix": "write_matrix",
    "eval.synonyms": "eval_synonyms",
    "eval.predicted_pairs": "eval_predicted_pairs",
    "eval.curation_multi": "eval_curation_multi",
    "eval.curation_binary": "eval_curation_binary",
    "eval.linking": "eval_linking",
    "eval.ratings_two": "eval_ratings_two",
    "eval.ratings_five": "eval_ratings_five",
}

_FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}


def _coerce(key: str, raw: str):
    name = _KEY_TO_FIELD[key]
    kind = _FIELD_TYPES[name]
    raw = raw.strip()
    if kind == "bool":
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValidationError(f"{key}: expected true/false, got {raw!r}")
    if kind == "int":
        try:
            return int(raw)
        except ValueError:
            raise ValidationError(f"{key}: expected an integer, got {raw!r}") from None
    if kind == "float":
        try:
            return float(raw)
        except ValueError:
            raise ValidationError(f"{key}: expected a number, got {raw!r}") from None
    if kind == "tuple[str, ...]":
        return tuple(part.strip() for part in raw.split(",") if part.strip())
    return raw


def apply_settings(config: PipelineConfig, settings: dict[str, str]) -> PipelineConfig:
    updates = {}
    for key, raw in settings.items():
        if key not in _KEY_TO_FIELD:
            raise ValidationError(f"unknown configuration key: {key!r}")
        updates[_KEY_TO_FIELD[key]] = _coerce(key, raw)
    return replace(config, **updates)


# A setting and where it was made: (origin, key, raw value), the origin
# being "file:line", "--set KEY=VALUE" or a flag.
Setting = tuple[str, str, str]


def read_config(path) -> Iterator[Setting]:
    """Each setting of a key = value file, its origin ``path:line``.

    '#' starts a comment, blank lines are ignored. A file that cannot be
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
    for lineno, line in enumerate(text.splitlines(), start=1):
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
