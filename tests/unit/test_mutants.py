"""The mutant runner's sample (``benchmarks/mutants.py``), without running
pytest on any mutant: the sample is fixed, every mutant is real code that
differs from the original where it says, and every area is in it: the
simulator's core and the code that turns runs into the paper's claims."""

import ast
from collections import Counter

from benchmarks import mutants


def test_the_sample_is_the_same_on_every_call():
    assert mutants.sample() == mutants.sample()


def test_the_sample_covers_every_area_and_kind():
    drawn = mutants.sample()
    per_area = Counter(m.area for m in drawn)
    assert set(per_area) == set(mutants.AREAS)
    assert min(per_area.values()) >= 10
    assert len(drawn) >= 40
    assert {m.kind for m in drawn} == set(mutants.KINDS)
    assert len(set(drawn)) == len(drawn)


def test_the_claims_code_is_sampled_twelve_times_an_area():
    per_area = Counter(m.area for m in mutants.sample())
    assert {"core", "metrics", "traffic"} <= set(per_area)
    assert set(per_area.values()) == {len(mutants.KINDS) * mutants.PER_KIND}


def test_every_mutant_compiles_and_changes_its_node_only():
    originals = {}
    for m in mutants.sample():
        if m.path not in originals:
            text = (mutants.ROOT / m.path).read_text()
            originals[m.path] = text, ast.dump(ast.parse(text))
        text, dump = originals[m.path]
        tree = ast.parse(m.source)
        compile(tree, m.path, "exec")
        assert m.before != m.after, m
        assert ast.dump(tree) != dump, m
        # Spliced, not unparsed: the lines before the mutated one stay.
        kept = text.splitlines()[: m.line - 1]
        assert m.source.splitlines()[: m.line - 1] == kept, m


def test_each_area_is_drawn_apart_from_the_others(monkeypatch):
    # An edit to one area re-draws that area's mutants only.
    drawn = mutants.sample()
    for area, target in list(mutants.AREAS.items()):
        monkeypatch.setattr(mutants, "AREAS", {area: target})
        assert mutants.sample() == [m for m in drawn if m.area == area]
