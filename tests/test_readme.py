import contextlib
import io
import re

from softmentions.config import PipelineConfig, load_config, read_config

from conftest import TESTS_DIR

README = TESTS_DIR.parent / "README.md"


def test_library_use_snippet_runs_on_the_fixture_corpus(fixture_dir, monkeypatch):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(fixture_dir)  # the snippet reads corpus.tsv and writes nothing
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(snippet, str(README), "exec"), {})
    lines = printed.getvalue().splitlines()
    assert any(line.startswith("limma ") for line in lines[:-1])
    assert lines[-1].startswith("Accounting(no_significant_synonyms=")


def test_configuration_block_loads_as_the_defaults(tmp_path):
    section = README.read_text(encoding="utf-8").split("## Configuration", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    path = tmp_path / "readme.cfg"
    path.write_text(block, encoding="utf-8")
    assert load_config(path) == PipelineConfig()
    assert sorted(key for _, key, _ in read_config(path)) == sorted(PipelineConfig().snapshot())
