"""tools/gen_fixtures.py still regenerates every bundled fixture byte for
byte, the representation fixture's canonical model bases included."""

import importlib.util
import pathlib

from conftest import FIXTURES

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "tools" / "gen_fixtures.py"


def test_gen_fixtures_reproduces_bundled_fixtures(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("gen_fixtures", SCRIPT)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    gen.OUT = tmp_path
    gen.main()
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in FIXTURES.glob("*.json"))
    for name in written:
        assert (tmp_path / name).read_bytes() == \
            (FIXTURES / name).read_bytes(), name
