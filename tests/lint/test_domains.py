"""Fixtures for the address-domain family: REP304 and REP306.

The LA -> IA -> PA pipeline is the paper's central mechanism; these
tests pin the signature extraction (scheme/mapper/pcm classification,
the Security-RBSG multi-stage chain), the confusion rule's three flows
(cross-domain argument, wear indexed by non-PA, mixed arithmetic) and
the batched-contract rule, plus the seeded-bug demo from the issue.
"""

import ast

from repro.lint import REGISTRY, lint_sources
from repro.lint.callgraph import LintProject
from repro.lint.diagnostics import LintModule
from repro.lint.domains import IA, LA, PA, domain_index, name_domain
from repro.lint.runner import main


def _project(sources):
    modules = [
        LintModule(rel_path=path, source=src, tree=ast.parse(src))
        for path, src in sources.items()
    ]
    return LintProject(modules)


def _diags(sources, code):
    result = lint_sources(sources, selected=[REGISTRY[code]], flow=True)
    return result.diagnostics


class TestNameDomain:
    def test_convention_spellings(self):
        assert name_domain("la") == LA
        assert name_domain("las") == LA
        assert name_domain("ia0") == IA
        assert name_domain("wear_pas") == PA
        assert name_domain("pa2") == PA

    def test_non_address_names(self):
        assert name_domain("plan") is None
        assert name_domain("media") is None
        assert name_domain("total") is None
        assert name_domain("latency") is None


class TestDomainIndex:
    def test_scheme_detection_is_transitive(self):
        project = _project({
            "src/repro/a.py": (
                "from repro.wearlevel.base import WearLeveler\n"
                "class Child(WearLeveler):\n"
                "    pass\n"
                "class GrandChild(Child):\n"
                "    pass\n"
                "class Unrelated:\n"
                "    pass\n"
            ),
        })
        index = domain_index(project)
        names = sorted(cls for _, cls in index.scheme_classes())
        assert names == ["Child", "GrandChild"]

    def test_class_kinds(self):
        project = _project({
            "src/repro/a.py": (
                "from repro.wearlevel.base import WearLeveler\n"
                "class MyScheme(WearLeveler):\n"
                "    pass\n"
                "class DynamicFeistelMapper:\n"
                "    pass\n"
            ),
        })
        index = domain_index(project)
        assert index.class_kind("repro.a.MyScheme") == "scheme"
        assert index.class_kind("DynamicFeistelMapper") == "mapper"
        assert index.class_kind("PCMArray") == "pcm"
        assert index.class_kind("MemoryController") == "controller"
        assert index.class_kind("repro.a.WhoKnows") is None

    def test_index_memoised_on_project(self):
        project = _project({"src/repro/a.py": "x = 1\n"})
        assert domain_index(project) is domain_index(project)


class TestREP304AddressDomainConfusion:
    def test_double_translation_flagged(self):
        diags = _diags({
            "src/repro/demo.py": (
                "def f(scheme, la):\n"
                "    pa = scheme.translate(la)\n"
                "    return scheme.translate(pa)\n"
            ),
        }, "REP304")
        assert [d.code for d in diags] == ["REP304"]
        assert "double translation" in diags[0].message

    def test_single_translation_clean(self):
        diags = _diags({
            "src/repro/demo.py": (
                "def f(scheme, la):\n"
                "    pa = scheme.translate(la)\n"
                "    return pa\n"
            ),
        }, "REP304")
        assert diags == []

    def test_wear_indexed_by_la_flagged(self):
        diags = _diags({
            "src/repro/demo.py": (
                "def f(wear, la):\n"
                "    return wear[la]\n"
            ),
        }, "REP304")
        assert [d.code for d in diags] == ["REP304"]
        assert "wear" in diags[0].message

    def test_wear_indexed_by_pa_clean(self):
        diags = _diags({
            "src/repro/demo.py": (
                "def f(wear, pa):\n"
                "    return wear[pa]\n"
            ),
        }, "REP304")
        assert diags == []

    def test_mixed_domain_arithmetic_flagged(self):
        diags = _diags({
            "src/repro/demo.py": (
                "def f(la, pa):\n"
                "    return la - pa\n"
            ),
        }, "REP304")
        assert [d.code for d in diags] == ["REP304"]
        assert "mixed" in diags[0].message

    def test_same_domain_arithmetic_clean(self):
        diags = _diags({
            "src/repro/demo.py": (
                "def f(la, other_la):\n"
                "    return la - other_la\n"
            ),
        }, "REP304")
        assert diags == []

    def test_pcm_write_consumes_pa_not_la(self):
        diags = _diags({
            "src/repro/demo.py": (
                "def f(pcm, scheme, la, data):\n"
                "    pcm.write(la, data)\n"
                "    pa = scheme.translate(la)\n"
                "    pcm.write(pa, data)\n"
            ),
        }, "REP304")
        assert [d.code for d in diags] == ["REP304"]
        assert "PA is expected" in diags[0].message

    def test_callee_param_names_type_project_helpers(self):
        # No class signature involved: `def bump(pa)` expects a PA
        # because its parameter says so.
        diags = _diags({
            "src/repro/demo.py": (
                "def bump(wear, pa):\n"
                "    wear[pa] += 1\n"
                "def f(wear, la):\n"
                "    bump(wear, la)\n"
            ),
        }, "REP304")
        assert [d.code for d in diags] == ["REP304"]

    def test_callee_own_param_names_refine_stage_sigs(self):
        # MultiWaySR regression: its subregion_of() takes an LA, so
        # the generic stage signature (IA in) must not fire.
        diags = _diags({
            "src/repro/demo.py": (
                "from repro.wearlevel.base import WearLeveler\n"
                "class SubLA(WearLeveler):\n"
                "    def subregion_of(self, la: int) -> int:\n"
                "        return la // 8\n"
                "    def translate(self, la: int) -> int:\n"
                "        region = self.subregion_of(la)\n"
                "        return la + region * 0\n"
                "    def translate_many(self, las):\n"
                "        return las\n"
            ),
        }, "REP304")
        assert diags == []

    def test_security_rbsg_multi_stage_chain(self):
        # ia = self.outer.translate(la) mints an IA (mapper stage);
        # _phys_of_ia consumes it.  Feeding the raw LA instead is the
        # stage-skipping bug.
        chain = (
            "from repro.wearlevel.base import WearLeveler\n"
            "class OuterFeistelMapper:\n"
            "    def translate(self, la: int) -> int:\n"
            "        return la ^ 3\n"
            "class Chain(WearLeveler):\n"
            "    def translate(self, la: int) -> int:\n"
            "        ia = self.outer.translate(la)\n"
            "        return self._phys_of_ia({arg})\n"
            "    def translate_many(self, las):\n"
            "        return las\n"
            "    def _phys_of_ia(self, ia: int) -> int:\n"
            "        return ia + 1\n"
        )
        clean = _diags(
            {"src/repro/demo.py": chain.format(arg="ia")}, "REP304"
        )
        assert clean == []
        bug = _diags(
            {"src/repro/demo.py": chain.format(arg="la")}, "REP304"
        )
        assert [d.code for d in bug] == ["REP304"]
        assert "IA is expected" in bug[0].message

    def test_suppression_counts_as_used(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(
            "def f(wear, la):\n"
            "    # reprolint: disable=REP304 -- identity-mapped baseline\n"
            "    return wear[la]\n"
        )
        assert main([str(mod), "--no-cache", "--check-suppressions"]) == 0


class TestREP306BatchedContractDrift:
    def test_translate_without_translate_many_flagged(self):
        diags = _diags({
            "src/repro/demo.py": (
                "from repro.wearlevel.base import WearLeveler\n"
                "class Drifty(WearLeveler):\n"
                "    def translate(self, la: int) -> int:\n"
                "        return la\n"
            ),
        }, "REP306")
        assert [d.code for d in diags] == ["REP306"]
        assert "translate_many" in diags[0].message

    def test_both_overridden_clean(self):
        diags = _diags({
            "src/repro/demo.py": (
                "from repro.wearlevel.base import WearLeveler\n"
                "class Fine(WearLeveler):\n"
                "    def translate(self, la: int) -> int:\n"
                "        return la\n"
                "    def translate_many(self, las):\n"
                "        return las\n"
            ),
        }, "REP306")
        assert diags == []

    def test_non_scheme_class_ignored(self):
        diags = _diags({
            "src/repro/demo.py": (
                "class NotAScheme:\n"
                "    def translate(self, text: str) -> str:\n"
                "        return text\n"
            ),
        }, "REP306")
        assert diags == []

    def test_batched_rng_drift_flagged(self):
        diags = _diags({
            "src/repro/demo.py": (
                "from repro.wearlevel.base import WearLeveler\n"
                "class RngDrift(WearLeveler):\n"
                "    def translate(self, la: int) -> int:\n"
                "        return la\n"
                "    def translate_many(self, las):\n"
                "        k = int(self.rng.integers(4))\n"
                "        return las + k\n"
            ),
        }, "REP306")
        assert [d.code for d in diags] == ["REP306"]
        assert "rng" in diags[0].message.lower()

    def test_chunk_runs_rng_drift_flagged(self):
        diags = _diags({
            "src/repro/demo.py": (
                "from repro.wearlevel.base import WearLeveler\n"
                "class RunDrift(WearLeveler):\n"
                "    def translate(self, la: int) -> int:\n"
                "        return la\n"
                "    def translate_many(self, las):\n"
                "        return las\n"
                "    def chunk_runs(self, las):\n"
                "        k = int(self.rng.integers(4))\n"
                "        yield las + k, las.size\n"
            ),
        }, "REP306")
        assert [d.code for d in diags] == ["REP306"]
        assert "chunk_runs" in diags[0].message

    def test_symmetric_rng_use_clean(self):
        diags = _diags({
            "src/repro/demo.py": (
                "from repro.wearlevel.base import WearLeveler\n"
                "class RngBoth(WearLeveler):\n"
                "    def translate(self, la: int) -> int:\n"
                "        return la ^ int(self.rng.integers(4))\n"
                "    def translate_many(self, las):\n"
                "        k = int(self.rng.integers(4))\n"
                "        return las ^ k\n"
            ),
        }, "REP306")
        assert diags == []

    def test_drift_through_helper_method_flagged(self):
        # The batched path reaches RNG state via a self-call chain.
        diags = _diags({
            "src/repro/demo.py": (
                "from repro.wearlevel.base import WearLeveler\n"
                "class Indirect(WearLeveler):\n"
                "    def translate(self, la: int) -> int:\n"
                "        return la\n"
                "    def _reseed(self):\n"
                "        self.rng_state = 7\n"
                "    def translate_many(self, las):\n"
                "        self._reseed()\n"
                "        return las\n"
            ),
        }, "REP306")
        assert [d.code for d in diags] == ["REP306"]

    def test_suppression_counts_as_used(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(
            "from repro.wearlevel.base import WearLeveler\n"
            "class Legacy(WearLeveler):\n"
            "    # reprolint: disable=REP306 -- scalar-only test double\n"
            "    def translate(self, la: int) -> int:\n"
            "        return la\n"
        )
        assert main([str(mod), "--no-cache", "--check-suppressions"]) == 0


class TestSeededBugDemo:
    """The issue's acceptance demo: an int32 wear array trips REP301
    and an LA-indexed wear read trips REP304, on one fixture scheme."""

    DEMO = (
        "import numpy as np\n"
        "from repro.wearlevel.base import WearLeveler\n"
        "class DemoScheme(WearLeveler):\n"
        "    def __init__(self, n: int):\n"
        "        self.wear = np.zeros(n, dtype=np.int32)\n"
        "    def translate(self, la: int) -> int:\n"
        "        return la\n"
        "    def translate_many(self, las):\n"
        "        return las\n"
        "    def observe(self, la: int) -> int:\n"
        "        return int(self.wear[la])\n"
    )

    def test_narrow_wear_map_trips_rep301(self):
        diags = _diags({"src/repro/demo.py": self.DEMO}, "REP301")
        assert [d.code for d in diags] == ["REP301"]
        assert "int32" in diags[0].message

    def test_la_indexed_wear_trips_rep304(self):
        diags = _diags({"src/repro/demo.py": self.DEMO}, "REP304")
        assert [d.code for d in diags] == ["REP304"]
        assert "LA" in diags[0].message

    def test_fixed_scheme_is_clean(self):
        fixed = self.DEMO.replace("np.int32", "np.int64").replace(
            "self.wear[la]", "self.wear[self.translate(la)]"
        )
        for code in ("REP301", "REP304", "REP306"):
            assert _diags({"src/repro/demo.py": fixed}, code) == []
