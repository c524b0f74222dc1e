"""The package's public names: the library surface the README and the CLI
build on, plus the error classes; test-only helpers stay in their modules.
"""

import subprocess
import sys
import types
from pathlib import Path

import mfng
from mfng import errors

LIBRARY_SURFACE = {
    # measures and closed-form expectations
    "DEFAULT_FEATURES", "CliqueNumberEstimate", "EdgeMoments", "FeatureVector",
    "GeneratingMeasure", "edge_moments", "edge_survival_factor",
    "estimate_clique_number", "expected_d_stars", "expected_degree_counts",
    "expected_edges", "expected_feature_vector", "expected_t_cliques",
    "make_measure", "parse_feature",
    # graphs and counting
    "DegreeDistribution", "Graph", "clustering_coefficient", "count_4cliques",
    "count_stars", "count_triangles", "degree_distribution", "feature_vector",
    "from_edge_list",
    # fitting
    "FitConfig", "FitResult", "fit",
    # sampling
    "fast_sample", "naive_sample", "noisy_sample",
    "sample_by_intersection",
}


def test_public_names_are_the_documented_surface():
    error_classes = {name for name, value in vars(errors).items()
                     if isinstance(value, type) and issubclass(value, mfng.MfngError)}
    # Submodules show up in dir() once anything imports them; they are not
    # re-exports.
    public = sorted(name for name in dir(mfng) if not name.startswith("_")
                    and not isinstance(getattr(mfng, name), types.ModuleType))
    assert public == sorted(LIBRARY_SURFACE | error_classes)


# Installs perfbench/launch.py's tracer, which rebinds package functions and
# methods by name, in a fresh interpreter that imports mfng from src/.
_TRACER_PROBE = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import launch
launch.install(launch.Tracer("probe"))
print("installed")
"""


def test_the_benchmark_tracer_finds_every_name_it_rebinds():
    root = Path(__file__).resolve().parents[1]
    probe = subprocess.run(
        [sys.executable, "-c", _TRACER_PROBE, str(root / "src"), str(root / "perfbench")],
        capture_output=True, text=True, timeout=120)
    assert (probe.returncode, probe.stdout, probe.stderr) == (0, "installed\n", "")
