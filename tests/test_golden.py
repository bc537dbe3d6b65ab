"""Suite summaries pinned as literals: every check's ``trials`` JSON line at
two fixed configurations.

The substreams of a suite are fixed by numpy's ``SeedSequence`` and Philox,
and the in-repo oracles derive them the same way the program does, so a
drift that moved both would pass every comparison between them.  These
literals would still fail.  The second configuration has a three-word suite
seed (2**64 + 5) and n = 3, whose 18 Gaussian uniforms leave the Philox
buffer partly used before the angle draw.
"""

import pytest

from sectoria.cli import CHECKS, main

# (n, seed) -> check name -> stdout of
# ``sectoria trials NAME --n N --alpha 0.785 --trials 40 --seed SEED``.
GOLDEN = {
    (6, 0): {
        'det-superadditivity': (
            '{"name": "det-superadditivity", "trials": 40, "failures": 0, "min_slack": 0.9929473999049679, "median_slack": 0.9984291635918319, "config": {"seed": 0, "n": 6, "alpha": 0.785, "partition": null}}'
        ),
        'haynsworth': (
            '{"name": "haynsworth", "trials": 40, "failures": 0, "min_slack": 0.9463402882232972, "median_slack": 0.9890174263992735, "config": {"seed": 0, "n": 6, "alpha": 0.785, "partition": null}}'
        ),
        'hartfiel': (
            '{"name": "hartfiel", "trials": 40, "failures": 0, "min_slack": 0.8498106468309571, "median_slack": 0.9549939540027941, "config": {"seed": 0, "n": 6, "alpha": 0.785, "partition": null}}'
        ),
        'schur-pd': (
            '{"name": "schur-pd", "trials": 40, "failures": 0, "min_slack": 0.0013091685957104546, "median_slack": 0.015729027353853228, "config": {"seed": 0, "n": 6, "alpha": 0.785, "partition": null}}'
        ),
        'main1': (
            '{"name": "main1", "trials": 40, "failures": 0, "min_slack": 0.03102471564362078, "median_slack": 0.1393257020683688, "config": {"seed": 0, "n": 6, "alpha": 0.785, "partition": null}}'
        ),
        'main2': (
            '{"name": "main2", "trials": 40, "failures": 0, "min_slack": 0.9992996113297146, "median_slack": 0.9998349711158768, "config": {"seed": 0, "n": 6, "alpha": 0.785, "partition": null}}'
        ),
        'det-step': (
            '{"name": "det-step", "trials": 40, "failures": 0, "min_slack": 0.6146873884827277, "median_slack": 0.6571228865508327, "config": {"seed": 0, "n": 6, "alpha": 0.785, "partition": null}}'
        ),
        'lemma-2-4': (
            '{"name": "lemma-2-4", "trials": 40, "failures": 0, "min_slack": 1.2211043417690705e-08, "median_slack": 7.493953459127254e-05, "config": {"seed": 0, "n": 6, "alpha": 0.785, "partition": null}}'
        ),
        'lemma-2-5': (
            '{"name": "lemma-2-5", "trials": 40, "failures": 0, "min_slack": 3.5811875161117334e-07, "median_slack": 0.00036631593865648715, "config": {"seed": 0, "n": 6, "alpha": 0.785, "partition": null}}'
        ),
        'lemma-2-6': (
            '{"name": "lemma-2-6", "trials": 40, "failures": 0, "min_slack": 0.5221508191711085, "median_slack": 0.7023694918897712, "config": {"seed": 0, "n": 6, "alpha": 0.785, "partition": null}}'
        ),
        'claim1': (
            '{"name": "claim1", "trials": 40, "failures": 0, "min_slack": 1.73960812261472e-05, "median_slack": 0.01527032346891322, "config": {"seed": 0, "n": 6, "alpha": 0.785, "partition": null}}'
        ),
        'weak-log-major': (
            '{"name": "weak-log-major", "trials": 40, "failures": 0, "min_slack": 0.23938974507238286, "median_slack": 0.28536433773204806, "config": {"seed": 0, "n": 6, "alpha": 0.785, "partition": null}}'
        ),
        'schur-wrongsec': (
            '{"name": "schur-wrongsec", "trials": 40, "failures": 40, "min_slack": -0.3497593062470473, "median_slack": -0.1352309158942524, "config": {"seed": 0, "n": 6, "alpha": 0.785, "partition": null}}'
        ),
        'corollary-ad': (
            '{"name": "corollary-ad", "trials": 40, "failures": 0, "min_slack": 0.995955245192179, "median_slack": 0.9974359949280698, "config": {"seed": 0, "n": 6, "alpha": 0.785, "partition": null}}'
        ),
        'claim2': (
            '{"name": "claim2", "trials": 40, "failures": 0, "min_slack": 0.8794382798410214, "median_slack": 0.9989081610272752, "config": {"seed": 0, "n": 6, "alpha": 0.785, "partition": null}}'
        ),
    },
    (3, 18446744073709551621): {
        'det-superadditivity': (
            '{"name": "det-superadditivity", "trials": 40, "failures": 0, "min_slack": 0.6624669993621112, "median_slack": 0.9013129001990978, "config": {"seed": 18446744073709551621, "n": 3, "alpha": 0.785, "partition": null}}'
        ),
        'haynsworth': (
            '{"name": "haynsworth", "trials": 40, "failures": 0, "min_slack": 0.2986166054484737, "median_slack": 0.6321927579410211, "config": {"seed": 18446744073709551621, "n": 3, "alpha": 0.785, "partition": null}}'
        ),
        'hartfiel': (
            '{"name": "hartfiel", "trials": 40, "failures": 0, "min_slack": 0.1607163588371861, "median_slack": 0.5840994053784035, "config": {"seed": 18446744073709551621, "n": 3, "alpha": 0.785, "partition": null}}'
        ),
        'schur-pd': (
            '{"name": "schur-pd", "trials": 40, "failures": 0, "min_slack": -2.1730687876240027e-16, "median_slack": 0.0, "config": {"seed": 18446744073709551621, "n": 3, "alpha": 0.785, "partition": null}}'
        ),
        'main1': (
            '{"name": "main1", "trials": 40, "failures": 0, "min_slack": 0.08077742485401204, "median_slack": 0.18286974217141339, "config": {"seed": 18446744073709551621, "n": 3, "alpha": 0.785, "partition": null}}'
        ),
        'main2': (
            '{"name": "main2", "trials": 40, "failures": 0, "min_slack": 0.8970720033831843, "median_slack": 0.9590590809797814, "config": {"seed": 18446744073709551621, "n": 3, "alpha": 0.785, "partition": null}}'
        ),
        'det-step': (
            '{"name": "det-step", "trials": 40, "failures": 0, "min_slack": 0.5063945390146707, "median_slack": 0.6666616668607976, "config": {"seed": 18446744073709551621, "n": 3, "alpha": 0.785, "partition": null}}'
        ),
        'lemma-2-4': (
            '{"name": "lemma-2-4", "trials": 40, "failures": 0, "min_slack": 2.8911745443066207e-05, "median_slack": 0.006168894501202921, "config": {"seed": 18446744073709551621, "n": 3, "alpha": 0.785, "partition": null}}'
        ),
        'lemma-2-5': (
            '{"name": "lemma-2-5", "trials": 40, "failures": 0, "min_slack": -1.8837702523106716e-16, "median_slack": 1.4620392572343094e-17, "config": {"seed": 18446744073709551621, "n": 3, "alpha": 0.785, "partition": null}}'
        ),
        'lemma-2-6': (
            '{"name": "lemma-2-6", "trials": 40, "failures": 0, "min_slack": 0.05292138998382464, "median_slack": 0.3523143104918632, "config": {"seed": 18446744073709551621, "n": 3, "alpha": 0.785, "partition": null}}'
        ),
        'claim1': (
            '{"name": "claim1", "trials": 40, "failures": 0, "min_slack": 0.0016078553988283068, "median_slack": 0.05673025184079407, "config": {"seed": 18446744073709551621, "n": 3, "alpha": 0.785, "partition": null}}'
        ),
        'weak-log-major': (
            '{"name": "weak-log-major", "trials": 40, "failures": 0, "min_slack": 0.030160775973820057, "median_slack": 0.25183861343712016, "config": {"seed": 18446744073709551621, "n": 3, "alpha": 0.785, "partition": null}}'
        ),
        'schur-wrongsec': (
            '{"name": "schur-wrongsec", "trials": 40, "failures": 40, "min_slack": -0.5546211399006175, "median_slack": -0.06961618405175671, "config": {"seed": 18446744073709551621, "n": 3, "alpha": 0.785, "partition": null}}'
        ),
        'corollary-ad': (
            '{"name": "corollary-ad", "trials": 40, "failures": 0, "min_slack": 0.8953167911693454, "median_slack": 0.917887940716677, "config": {"seed": 18446744073709551621, "n": 3, "alpha": 0.785, "partition": null}}'
        ),
        'claim2': (
            '{"name": "claim2", "trials": 40, "failures": 0, "min_slack": 1.3906848966820186e-05, "median_slack": 0.3212946730027531, "config": {"seed": 18446744073709551621, "n": 3, "alpha": 0.785, "partition": null}}'
        ),
    },
}


@pytest.mark.parametrize("n, seed", list(GOLDEN))
@pytest.mark.parametrize("name", list(CHECKS))
def test_suite_summary_is_pinned(name, n, seed, capsys):
    argv = ["trials", name, "--n", str(n), "--alpha", "0.785", "--trials", "40", "--seed", str(seed)]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == GOLDEN[n, seed][name] + "\n"
    assert captured.err == ""
