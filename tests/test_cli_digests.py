"""The CLI's output over a committed corpus, digest for digest.

``tests/data/cli_digests.json`` holds, per invocation, the exit code and the
sha256 of stdout and stderr; ``tests/make_cli_digests.py`` wrote it and says
when to write it again.  Every case runs in process through
:func:`sftdim.cli.main`, so one changed character in one report fails here.
"""

import json

from make_cli_digests import PATH, replay


def test_every_invocation_keeps_its_output(tmp_path):
    corpus = json.loads(PATH.read_text(encoding="utf-8"))
    cases = corpus["cases"]
    got = replay(corpus["matrices"], [argv for argv, *_ in cases], tmp_path)
    changed = [want[0] for want, have in zip(cases, got) if have != want]
    assert len(got) == len(cases) > 1000
    assert not changed, f"{len(changed)} invocations changed, the first: {changed[:3]}"
