"""Seed 1 reproduces the CLI defaults the pinned fingerprints come from."""

from workloads import commands, pinned_fingerprints


def test_default_seed_is_the_cli_default_seed_tuples():
    fig07, fig11a = commands("figures", 1)
    assert fig07.argv[-4:] == ("--seeds", "1", "2", "3")
    assert fig11a.argv[-3:] == ("--seeds", "1", "2")


def test_batch_job_counts_and_cache():
    cold = commands("batch_cold", 4, "c")
    warm = commands("batch_warm", 4, "c")
    for cmd in cold:
        assert cmd.argv[cmd.argv.index("--jobs") + 1] == "2"
    for cmd in warm:
        assert cmd.argv[cmd.argv.index("--jobs") + 1] == "1"
        assert cmd.argv[cmd.argv.index("--cache-dir") + 1] == "c"
    assert cold[1].argv[-2:] == ("--seeds", "4")


def test_corpus_pin_holds_for_every_seed():
    assert pinned_fingerprints(1)["corpus"] == "ea54b965923decbe"
    assert pinned_fingerprints(123)["corpus"] == "ea54b965923decbe"
    assert "fig07" not in pinned_fingerprints(123)
