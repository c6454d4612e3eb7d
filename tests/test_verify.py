import pytest

from holonet import cli, verify


@pytest.mark.parametrize("check", [fn for _, fn in verify.CHECKS],
                         ids=[name for name, _ in verify.CHECKS])
def test_verify_check_passes_at_seed_0(check):
    check(0)


def test_verify_command_passes_every_check(capsys):
    assert cli.main(["verify"]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"PASS {name}" for name, _ in verify.CHECKS] + ["all checks passed"]
