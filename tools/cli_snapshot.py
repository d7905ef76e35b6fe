"""Record the CLI's output on a fixed command list, for one commit.

    python3 tools/cli_snapshot.py --rev REV --out DIR

REV is exported with ``git archive`` into a fresh temporary directory, so
the snapshot shows its committed files only.  Every command of
``COMMANDS`` runs there as ``python3 -m mocktheta ...`` with that tree's
``src`` first on the path, one after another, and leaves three files in
DIR: ``NAME.stdout``, ``NAME.stderr`` and ``NAME.code`` (the exit status).
Two commits print the same thing exactly when

    diff -r DIR_A DIR_B

is empty.  The list covers ``verify all`` at the default seeds, at
``--seed 7`` and with ``--full``; ``verify ID --full`` for each rank-1
suite at its own seed and at the ends 0 and 2**32 - 1 of the seed range;
``list-suites``; one ``eval`` per function, the signed ones also at the
default sign, and a sign spelling ``eval`` refuses; the README and benchmark
``chartable`` rows; ``chartable --variant ch_minus`` at k = 1 and at
k = 2 with ``--labels 1``, the CLI's only path into
``lattice_mock_theta``; the benchmark's cold-start commands; ``smatrix`` for
every wired case, with parameters and levels it honours or refuses;
``table omega``/``preset`` for every case alias, ``table preset`` for
each family no alias reaches, and the CSV output ``table preset``
refuses; seeds, D(2,1;a)
parameters and alias parameters the CLI honours or refuses, the last
on ``table preset``, ``chartable`` and ``smatrix`` alike; ``chartable``
point counts below 1, which it refuses; the
``eval``/``verify`` configuration errors, an ``eval`` below the Im tau
floor or at an inf or nan argument (``inf`` written out too), the
``--tol`` that ``eval`` does not take and the ``--tol`` values ``verify``
refuses (``inf`` among them);
the ``--p``/``--q``/``--n`` spellings of ``--params`` and ``--k``
that ``table``, ``chartable`` and ``smatrix`` refuse, with a ``verify``
option that no selected suite takes (``--seed`` on ``d21a-omega``); an
``eval`` option the chosen function does not read (``eta`` given ``--m``
and ``--z1``, ``theta-ab`` given ``--j``); and a rational with a zero
denominator (``eval phi --m=1/0``).
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

from bench_pairs import export  # noqa: E402

POINT = ["--tau=0.1+1.1i", "--z1=0.3+0.05i", "--z2=0.2-0.03i"]
ONE_Z = ["--tau=0.1+1.1i", "--z=0.3+0.05i"]

# (case, k, labels, variant, extra options) of the benchmark's character rows
CHART_ROWS = (
    ("sl21", "1", "0", "ch_minus_modified", []),
    ("sl21", "2", "1", "ch_minus_modified", []),
    ("sl21", "1", "0", "ch_plus_modified", []),
    ("sl21", "1", "0", "tw_minus_modified", []),
    ("sl21", "1", "0", "tw_plus_modified", []),
    ("sl21", "1", "0", "denominator_only", []),
    ("osp32", "1", "0", "ch_minus_modified", []),
    ("osp32", "1", "1", "ch_minus_modified", []),
    ("osp32", "1", "0", "denominator_only", []),
    ("osp42", "1", "1/2,1/2", "ch_minus_modified", []),
    ("osp42", "1", "1,0", "ch_minus_modified", []),
    ("d21a", "-1/2", "0,1", "ch_minus_modified", ["--params", "1,1"]),
    ("d21a", "-1/2", "0,0", "ch_minus_modified", ["--params", "1,1"]),
    ("d21a", "-2/3", "0,1", "ch_minus_modified", ["--params", "1,2"]),
)
# the suites that need only the rank-1 layers
RANK1_SUITES = ("thm1.1a", "thm1.1b", "cor1.2", "thm1.3a", "thm1.3b", "thm1.3c", "thm1.3d",
                "cor1.4a", "lem2.2", "lem2.3", "lem2.4", "lem2.10", "eq1.19", "eq1.20",
                "theta-S", "theta-quasi")
SEED_ENDS = ("0", "4294967295")
# (alias, a level for its Omega table)
ALIASES = (
    ("sl21", "2"), ("sl32", "1"), ("osp32", "1"), ("osp32_sub", "-3/4"),
    ("osp42", "1"), ("d21a", "-1/2"), ("f4", "1"), ("g3", "1"),
)

# (family, parameters) of the families no alias reaches
FAMILIES = (("osp_even_low", "1,2"), ("osp_odd_high", "2,1"), ("osp_even_high", "4,1"),
            ("osp_h0", "2"))


def _commands():
    cmds = [
        ("verify_all", ["verify", "all"]),
        ("verify_all_seed7", ["verify", "all", "--seed", "7"]),
        ("verify_all_full", ["verify", "all", "--full"]),
        ("verify_all_full_seed7", ["verify", "all", "--full", "--seed", "7"]),
        ("list_suites", ["list-suites"]),
        ("eval_phi", ["eval", "phi", "--m=1", "--s=0"] + POINT),
        ("eval_phi_minus", ["eval", "phi", "--m=1/2", "--s=1/2", "--sign=minus"] + POINT),
        ("eval_phi_add", ["eval", "phi-add", "--m=1", "--s=0"] + POINT),
        ("eval_phi_tilde", ["eval", "phi-tilde", "--m=2", "--s=1"] + POINT),
        ("eval_theta_jm", ["eval", "theta-jm", "--j=1", "--m=2"] + ONE_Z),
        ("eval_theta_jm_signed",
         ["eval", "theta-jm-signed", "--j=1/2", "--m=1/2", "--sign=minus"] + ONE_Z),
        ("eval_theta_ab", ["eval", "theta-ab", "--a=1", "--b=1"] + ONE_Z),
        ("eval_eta", ["eval", "eta", "--tau=0.1+1.1i"]),
        ("eval_r_jm", ["eval", "r-jm", "--j=1", "--m=2"] + ONE_Z),
        ("eval_r_jm_signed",
         ["eval", "r-jm-signed", "--j=1/2", "--m=1/2", "--sign=minus"] + ONE_Z),
        # the default sign, unsigned, is the plus series; "+" is no spelling of it
        ("eval_theta_jm_signed_default_sign",
         ["eval", "theta-jm-signed", "--j=1/2", "--m=1/2"] + ONE_Z),
        ("eval_r_jm_signed_default_sign", ["eval", "r-jm-signed", "--j=1/2", "--m=1/2"] + ONE_Z),
        ("eval_phi_sign_symbol", ["eval", "phi", "--m=1", "--s=0", "--sign=+"] + POINT),
        ("readme_table_omega", ["table", "omega", "--case", "sl21", "--k", "2"]),
        ("readme_table_preset", ["table", "preset", "--case", "osp32_sub"]),
        ("readme_chartable", ["chartable", "--case", "sl21", "--k", "1", "--points", "6"]),
        ("readme_smatrix",
         ["smatrix", "--case", "d21a", "--params", "1,1", "--output", "csv"]),
        ("bench_chartable",
         ["chartable", "--case", "sl21", "--k", "1", "--points", "2", "--seed", "12345"]),
        ("bench_smatrix", ["smatrix", "--case", "d21a", "--output", "csv"]),
        # the Phi route of lattice_mock_theta
        ("chartable_ch_minus_k1", ["chartable", "--case", "sl21", "--k", "1",
                                   "--variant", "ch_minus"]),
        ("chartable_ch_minus_k2", ["chartable", "--case", "sl21", "--k", "2", "--labels", "1",
                                   "--variant", "ch_minus"]),
        # seeds outside [0, 2**32), p = 0 and alias parameters, honoured or refused
        ("verify_seed_neg", ["verify", "theta-quasi", "--seed", "-1"]),
        ("verify_seed_2_32", ["verify", "theta-quasi", "--seed", "4294967296"]),
        ("chartable_seed_neg", ["chartable", "--case", "sl21", "--k", "1", "--seed", "-1"]),
        ("smatrix_d21a_p0", ["smatrix", "--case", "d21a", "--params", "0,2"]),
        ("table_preset_sl21_own", ["table", "preset", "--case", "sl21", "--params", "1,1"]),
        ("table_preset_sl21_other", ["table", "preset", "--case", "sl21", "--params", "2,1"]),
        ("table_preset_d21a_1_2", ["table", "preset", "--case", "d21a", "--params", "1,2"]),
        ("table_preset_csv", ["table", "preset", "--case", "sl21", "--output", "csv"]),
        ("chartable_sl21_own", ["chartable", "--case", "sl21", "--k", "1", "--params", "1,1",
                                "--points", "2"]),
        ("smatrix_sl21_own", ["smatrix", "--case", "sl21", "--k", "1", "--params", "1,1"]),
        # point counts below 1
        ("chartable_points_neg", ["chartable", "--case", "sl21", "--k", "1", "--points", "-1"]),
        ("chartable_points_0", ["chartable", "--case", "sl21", "--k", "1", "--points", "0",
                                "--output", "json"]),
        # configuration errors of eval and verify; eval takes no --tol, and
        # verify refuses one at or below 0
        ("eval_phi_m0", ["eval", "phi", "--tau", "i", "--z1", "0.3", "--m", "0"]),
        ("eval_theta_jm_j_half", ["eval", "theta-jm", "--tau", "i", "--j", "1.5"]),
        ("eval_theta_ab_a2", ["eval", "theta-ab", "--tau", "i", "--a", "2"]),
        ("eval_r_jm_signed_m_third",
         ["eval", "r-jm-signed", "--tau", "i", "--z", "0.1", "--m", "1/3"]),
        ("eval_phi_tol_neg", ["eval", "phi", "--tau", "i", "--z1", "0.3", "--tol", "-1"]),
        ("eval_phi_tol_0", ["eval", "phi", "--tau", "i", "--z1", "0.3", "--tol", "0"]),
        ("eval_eta_tau_below_floor", ["eval", "eta", "--tau=0.3+0.01i"]),
        ("eval_eta_tau_nan", ["eval", "eta", "--tau=nan+1i"]),
        ("eval_theta_jm_z_nan", ["eval", "theta-jm", "--j=1", "--m=2", "--tau=0.1+1i", "--z=nan"]),
        ("eval_phi_z1_inf", ["eval", "phi", "--tau=i", "--z1=1e999", "--z2=0.2"]),
        ("eval_eta_tau_inf", ["eval", "eta", "--tau=inf+1i"]),
        ("eval_theta_jm_z_neg_inf",
         ["eval", "theta-jm", "--j=1", "--m=2", "--tau=0.1+1i", "--z=-inf"]),
        ("verify_thm11a_m0", ["verify", "thm1.1a", "--m", "0"]),
        ("verify_thm614_n0", ["verify", "thm6.14", "--n", "0"]),
        ("verify_thm614_p2_q4", ["verify", "thm6.14", "--p", "2", "--q", "4"]),
        ("verify_lem23_tol_0", ["verify", "lem2.3", "--tol", "0"]),
        ("verify_lem23_tol_neg", ["verify", "lem2.3", "--tol", "-1"]),
        ("verify_theta_quasi_p3_n2", ["verify", "theta-quasi", "--p", "3", "--n", "2"]),
        ("verify_theta_quasi_tol_inf", ["verify", "theta-quasi", "--tol", "inf"]),
        ("verify_d21a_omega_seed7", ["verify", "d21a-omega", "--seed", "7"]),
        # options the chosen function does not read, and a zero denominator
        ("eval_eta_unread_m_z1", ["eval", "eta", "--tau=1i", "--m=5", "--z1=3"]),
        ("eval_theta_ab_unread_j", ["eval", "theta-ab", "--a=1", "--b=1", "--j=1"] + ONE_Z),
        ("eval_phi_m_1_over_0", ["eval", "phi", "--m=1/0", "--s=0"] + POINT),
        # the --p/--q/--n spellings of --params and --k
        ("flag_chartable_d21a_p", ["chartable", "--case", "d21a", "--k=-1/2", "--labels", "0,1",
                                   "--params", "1,2", "--p", "1", "--points", "1"]),
        ("flag_table_omega_sl21_p", ["table", "omega", "--case", "sl21", "--k", "1", "--p", "3"]),
        ("flag_smatrix_osp42_p", ["smatrix", "--case", "osp42", "--k", "1", "--p", "2"]),
        ("flag_smatrix_d21a_n", ["smatrix", "--case", "d21a", "--params", "1,2", "--k=-2/3",
                                 "--n", "5"]),
        ("flag_smatrix_osp_level1_n", ["smatrix", "--case", "osp_level1", "--n", "3"]),
        ("flag_smatrix_d21a_p_q_n",
         ["smatrix", "--case", "d21a", "--p", "1", "--q", "1", "--n", "1", "--output", "csv"]),
    ]
    for seed in ("1", "77", "2069906369"):
        cmds.append((f"bench_verify_{seed}", ["verify", "theta-quasi", "--seed", seed]))
    for seed in SEED_ENDS:
        cmds.append((f"chartable_seed_{seed}",
                     ["chartable", "--case", "sl21", "--k", "1", "--points", "2",
                      "--seed", seed]))
    for sid in RANK1_SUITES:
        cmds.append((f"verify_full_{sid}", ["verify", sid, "--full"]))
        for seed in SEED_ENDS:
            cmds.append((f"verify_full_{sid}_seed_{seed}",
                         ["verify", sid, "--full", "--seed", seed]))
    for i, (case, k, labels, variant, extra) in enumerate(CHART_ROWS):
        cmds.append((f"chartable_{i:02d}_{case}_{variant}",
                     ["chartable", "--case", case, f"--k={k}", f"--labels={labels}",
                      "--variant", variant, "--points", "3"] + extra))
    for name, args in (
        ("sl21", ["--case", "sl21", "--k", "1"]),
        ("osp42", ["--case", "osp42", "--k", "1"]),
        ("d21a", ["--case", "d21a"]),
        ("osp32_sub", ["--case", "osp32_sub", "--k=-3/4"]),
        ("osp_level1", ["--case", "osp_level1"]),
        ("osp_level1_4_2", ["--case", "osp_level1", "--params", "4,2"]),
        # parameters and levels a span honours or refuses
        ("d21a_params_1_2", ["--case", "d21a", "--params", "1,2"]),
        ("osp_level1_k2", ["--case", "osp_level1", "--k", "2"]),
        ("osp_level1_3_3", ["--case", "osp_level1", "--params", "3,3"]),
        ("osp_level1_3", ["--case", "osp_level1", "--params", "3"]),
        ("osp32_sub_params_1", ["--case", "osp32_sub", "--k=-3/4", "--params", "1"]),
    ):
        cmds.append((f"smatrix_{name}", ["smatrix"] + args))
    for alias, k in ALIASES:
        cmds.append((f"table_preset_{alias}", ["table", "preset", "--case", alias]))
        cmds.append((f"table_omega_{alias}", ["table", "omega", "--case", alias, f"--k={k}"]))
    for family, params in FAMILIES:
        cmds.append((f"table_preset_{family}_{params.replace(',', '_')}",
                     ["table", "preset", "--case", family, "--params", params]))
    return cmds


COMMANDS = _commands()


def snapshot(tree, out):
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    for name, args in COMMANDS:
        proc = subprocess.run(
            [sys.executable, "-m", "mocktheta", *args],
            cwd=tree, env=env, capture_output=True, text=True, timeout=600,
        )
        for suffix, text in (("stdout", proc.stdout), ("stderr", proc.stderr),
                             ("code", f"{proc.returncode}\n")):
            with open(os.path.join(out, f"{name}.{suffix}"), "w") as fh:
                fh.write(text)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rev", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        snapshot(export(args.rev, os.path.join(tmp, "tree")), os.path.abspath(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
