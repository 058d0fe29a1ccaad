"""Acceptance gate: one test per shipping criterion, each printing a single
PASS or FAIL line (visible with -rA) plus the corpus parameters it used."""

import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

from tripm import (
    ADMISSIBLE,
    NOT_ADMISSIBLE,
    StructuralCertificate,
    certificate_from_json,
    certificate_to_json,
    check,
    color_cubic_3,
    count_perfect_matchings,
    factor_cycles,
    find_even_2factor,
    find_triple_direct,
    gallai_edmonds,
    is_factor_critical,
    make_graph,
    max_matching_size,
    parse_graph6,
    structural_check,
    structural_witness,
    triple_from_structural,
    verify_certificate,
    verify_decomposition,
    verify_triple,
    write_graph6,
)
from tripm.cli import main as cli_main
from tripm.generators import (
    bisubdivide,
    bisubdivide_all,
    carvalho10,
    cube,
    double_wheel,
    icosahedron,
    k4,
    k33,
    no_pm_cubic16,
    octahedron,
    petersen,
    prism,
    wheel,
)

from conftest import (
    flower,
    random_cubic_corpus,
    random_graph_corpus,
    sampled_matching_covered,
    three_connected_four_regular,
)
from oracles import brute_max_matching_size, brute_perfect_matchings

FIXTURES = Path(__file__).parent / "fixtures"


@contextmanager
def criterion(k, name):
    try:
        yield
    except BaseException:
        print(f"\n[{k}/9] {name}: FAIL")
        raise
    print(f"\n[{k}/9] {name}: PASS")


def test_named_suite_all_admissible_under_ten_seconds(named_suite):
    with criterion(1, "named admissible suite"):
        start = time.perf_counter()
        for name, g in sorted(named_suite.items()):
            v = check(g)
            assert v.status == ADMISSIBLE, f"{name}: {v.status}"
            assert verify_triple(g, v.triple)["ok"], name
        elapsed = time.perf_counter() - start
        print(f"\n  {len(named_suite)} graphs in {elapsed:.2f}s")
        assert elapsed < 10.0


def test_recorded_witness_fixtures_verify(tmp_path):
    with criterion(2, "recorded witness certificates"):
        cases = {
            "wheel7_triple.json": wheel(7),
            "double_wheel8_triple.json": double_wheel(8),
            "octahedron_triple.json": octahedron(),
            "icosahedron_triple.json": icosahedron(),
            "carvalho10_triple.json": carvalho10(),
        }
        for fname, g in cases.items():
            gpath = tmp_path / (fname + ".g6")
            gpath.write_text(write_graph6(g) + "\n", encoding="utf-8")
            code = cli_main(["verify", str(gpath), str(FIXTURES / fname)])
            assert code == 0, fname
        # the two largest witnesses double as Hamilton cycle decompositions:
        # the union of their first two matchings is a single spanning cycle
        for fname in ("icosahedron_triple.json", "carvalho10_triple.json"):
            g = cases[fname]
            blob = json.loads((FIXTURES / fname).read_text(encoding="utf-8"))
            cert = certificate_from_json(g, blob)
            union = cert.m1 | cert.m2
            cycles = factor_cycles(g, union)
            assert cycles is not None and len(cycles) == 1, fname
            assert len(cycles[0]) == g.n, fname


def test_direct_and_structural_routes_agree(matching_covered_small):
    with criterion(3, "dual-route equivalence on small corpus"):
        corpus = []
        for n in (2, 4, 6):
            corpus.extend(matching_covered_small[n])
        exhaustive = len(corpus)
        sample8 = sampled_matching_covered(8, count=1500, seed=81, max_edges=20)
        sample10 = sampled_matching_covered(10, count=700, seed=101, max_edges=24)
        corpus.extend(sample8)
        corpus.extend(sample10)
        print(f"\n  corpus: exhaustive n in {{2,4,6}} ({exhaustive} graphs); "
              f"the exhaustive sets for n in {{8,10}} exceed the corpus cap, "
              f"so seeded samples stand in: n=8 seed 81 ({len(sample8)} graphs), "
              f"n=10 seed 101 ({len(sample10)} graphs)")
        budget = 5 * 10**6
        outcomes = {ADMISSIBLE: 0, NOT_ADMISSIBLE: 0}
        for g in corpus:
            a = find_triple_direct(g, budget)
            b = structural_check(g, budget)
            assert a.definitive and b.definitive, write_graph6(g)
            assert a.status == b.status, write_graph6(g)
            outcomes[a.status] += 1
        print(f"  agreement on all {len(corpus)} graphs: {outcomes}")


def test_four_regular_sampling_all_admissible():
    with criterion(4, "4-regular 3-connected sampling"):
        total = 0
        for n in (10, 12, 14, 16, 18):
            for g in three_connected_four_regular(n, seed_start=100 * n, count=200):
                v = check(g)
                assert v.status == ADMISSIBLE, write_graph6(g)
                assert v.evidence["stage"] == "four-regular", write_graph6(g)
                total += 1
        print(f"\n  {total} graphs across n in {{10,12,14,16,18}}, "
              f"seeds 100*n+i, all admissible by the 4-regular construction")


def relabelings(g, count, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        perm = list(range(g.n))
        rng.shuffle(perm)
        out.append((make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges]),
                    perm))
    return out


def test_gallai_edmonds_structure():
    with criterion(5, "Gallai-Edmonds structure checks"):
        g = no_pm_cubic16()
        ge = gallai_edmonds(g)
        assert len(ge.a) == 1 and not ge.c
        assert ge.omega == 3
        assert all(len(c) == 5 for c in ge.components)
        assert all(is_factor_critical(g, c) for c in ge.components)
        assert ge.t == (1, 1, 1)

        def check_one(h):
            dec = gallai_edmonds(h)
            assert verify_decomposition(h, dec)["ok"], write_graph6(h)
            assert h.n - 2 * max_matching_size(h) == dec.omega - len(dec.a)
            # cubic counting identity: per component of H[D],
            # 3|comp| = 2 * (edges inside) + t, forcing every t odd
            for comp, t in zip(dec.components, dec.t):
                cs = set(comp)
                inside = sum(1 for u, v in h.edges if u in cs and v in cs)
                assert 3 * len(comp) == 2 * inside + t
                assert t % 2 == 1
            return bool(dec.d)

        deficient = 0
        corpus = random_cubic_corpus(200, seed_base=900)
        for h in corpus:
            if check_one(h):
                deficient += 1
        for h, _ in relabelings(g, count=20, seed=424242):
            assert check_one(h)
            deficient += 1
        print(f"\n  200 seeded cubic graphs (seed base 900) plus 20 seeded "
              f"relabelings of the deficient 16-vertex graph; "
              f"{deficient} had nonempty D")


def test_matching_engine_against_bruteforce():
    with criterion(6, "matching engine oracle"):
        assert count_perfect_matchings(k4()) == 3
        assert count_perfect_matchings(k33()) == 6
        assert count_perfect_matchings(petersen()) == 6
        corpus = random_graph_corpus(count=10_000, seed=31337, max_n=10)
        counted = 0
        for g in corpus:
            assert max_matching_size(g) == brute_max_matching_size(g)
            if counted < 2000 and g.n % 2 == 0:
                assert count_perfect_matchings(g) == len(brute_perfect_matchings(g))
                counted += 1
        print(f"\n  {len(corpus)} graphs (seed 31337), sizes vs bitmask DP; "
              f"perfect matching counts cross-checked on {counted} even-order "
              f"graphs plus the three closed-form counts")


def test_lifting_soundness_on_seeded_bisubdivisions():
    with criterion(7, "bisubdivision lifting"):
        bases = {"k4": k4(), "k33": k33(), "prism": prism(), "cube": cube()}
        for bi, (name, base) in enumerate(sorted(bases.items())):
            rng = random.Random(7000 + bi)
            for _ in range(100):
                g = base
                for _ in range(rng.randint(1, 4)):
                    g = bisubdivide(g, rng.randrange(g.m))
                sc = structural_witness(g, range(g.m)).skeleton_part
                assert sc.skeleton == base, name
                coloring = color_cubic_3(sc.skeleton)
                assert coloring is not None, name
                cert = triple_from_structural(g, StructuralCertificate(
                    frozenset(range(g.m)), (), sc.with_coloring(coloring)))
                assert verify_triple(g, cert)["ok"], name
                assert cert.union() == frozenset(range(g.m)), name
        print("\n  100 seeded bisubdivisions (1-4 steps, seeds 7000..7003) "
              "of each of k4, k33, prism, cube")


def test_negative_results_by_exhaustion():
    with criterion(8, "negatives by exhaustion"):
        # unlimited budgets: these are exhaustion results, not budget stops
        assert color_cubic_3(petersen(), budget=None) is None
        assert find_even_2factor(petersen(), budget=None) is None
        k2 = make_graph(2, [(0, 1)])
        for verdict in (check(k2, budget=None),
                        find_triple_direct(k2, None),
                        structural_check(k2, None)):
            assert verdict.status == NOT_ADMISSIBLE
            assert verdict.evidence is not None
            assert verdict.budget_report is None
        # a full bisubdivision of a snark: its only spanning degree-{2, 3}
        # subgraph is itself, whose skeleton, the snark, has no coloring
        for name, h in (("petersen", petersen()), ("J5", flower(5)),
                        ("J7", flower(7))):
            verdict = check(bisubdivide_all(h), budget=None)
            assert verdict.status == NOT_ADMISSIBLE, name
            assert verdict.evidence["stage"] == "structural", name
            assert verdict.budget_report is None, name
        print("\n  K2 on all three routes; B(Petersen), B(J5) and B(J7), every "
              "edge bisubdivided, through check()")


def test_format_fidelity(named_suite, matching_covered_small):
    with criterion(9, "format round trips"):
        simple = [g for n in (2, 4, 6) for g in matching_covered_small[n]]
        simple += sampled_matching_covered(8, count=300, seed=31, max_edges=20)
        simple += list(named_suite.values())
        for g in simple:
            assert parse_graph6(write_graph6(g)) == g
        print(f"\n  graph6 round trip on {len(simple)} simple graphs")
        for name, g in sorted(named_suite.items()):
            v = check(g)
            certs = [v.triple] + ([v.structural] if v.structural else [])
            for cert in certs:
                blob = certificate_to_json(g, cert)
                text = json.dumps(blob)
                back = certificate_from_json(g, json.loads(text))
                assert verify_certificate(g, back)["ok"], name
                assert json.dumps(certificate_to_json(g, back)) == text, name
