"""Benchmark substrate reproducing the paper's evaluation (section 6).

The paper measures three systems — local **FFS**, **CFS-NE** (CFS with
encryption off, run remotely) and **DisCFS** — under the Bonnie
micro-benchmark (Figures 7-11) and a filesystem-search macro-benchmark
over the OpenBSD kernel sources (Figure 12).

* :mod:`repro.bench.targets` — a uniform filesystem interface over the
  three systems (plus encrypting CFS as an extra),
* :mod:`repro.bench.bonnie` — the five Bonnie phases,
* :mod:`repro.bench.workloads` — the synthetic kernel-source tree,
* :mod:`repro.bench.search` — the line/word/byte counting search,
* :mod:`repro.bench.timing` — disk and network cost models for
  virtual-time reporting at paper scale,
* :mod:`repro.bench.harness` — builds each system and runs the suite,
* :mod:`repro.bench.report` — prints paper-style tables, the figures
  plus the ablation table (``ABLATIONS``),
* :mod:`repro.bench.modeled` — the figures at testbed scale, priced
  from the device and transport counters under the two models.
"""

from repro.bench.bonnie import BonnieResult, run_bonnie
from repro.bench.harness import SYSTEMS, make_target
from repro.bench.search import run_search
from repro.bench.workloads import SourceTreeSpec, generate_source_tree

__all__ = [
    "BonnieResult",
    "run_bonnie",
    "run_search",
    "SourceTreeSpec",
    "generate_source_tree",
    "SYSTEMS",
    "make_target",
]
