"""Sphere clustering: the clusters behind merge_spheres against a
brute-force reference, and the repeated-sphere inputs that split clusters
under a sorted scan."""

import numpy as np
import pytest
import spectral_reference as ref

from qspec import rand
from qspec.cli import main
from qspec.io import format_qmat
from qspec.localspec import local_subspace, spectral_projections
from qspec.qlinalg import QMatrix, inverse_matrix
from qspec.quat import SPHERE_MERGE_TOL, EigenSphere, Quaternion, _clusters, merge_spheres
from qspec.spectral import s_spectrum


def _labelled(spheres):
    """The centroids and labels of ``quat._clusters`` at SPHERE_MERGE_TOL on
    the spheres' key arrays, which ``merge_spheres`` keeps the centroids of."""
    re, im = np.array([s.key() for s in spheres], dtype=float).reshape(-1, 2).T
    return _clusters(re, im, SPHERE_MERGE_TOL)


def _bfs_clusters(spheres, tol):
    """Connected components of the graph joining every matching pair."""
    seen, comps = set(), []
    for start in range(len(spheres)):
        if start in seen:
            continue
        seen.add(start)
        comp, frontier = [start], [start]
        while frontier:
            i = frontier.pop()
            for j in range(len(spheres)):
                if j not in seen and spheres[i].matches(spheres[j], tol):
                    seen.add(j)
                    comp.append(j)
                    frontier.append(j)
        comps.append(frozenset(comp))
    return set(comps)


def _centroid_of(members):
    members = sorted(members, key=EigenSphere.key)
    n = len(members)
    return EigenSphere(sum(s.re for s in members) / n, sum(s.im for s in members) / n)


def _scan_merge(spheres, tol):
    """The sorted scan that compares each sphere with the last member of its
    bucket only; correct exactly when no cluster interleaves another."""
    items = sorted(spheres, key=EigenSphere.key)
    if not items:
        return ()
    out, bucket = [], [items[0]]
    for s in items[1:]:
        if s.matches(bucket[-1], tol):
            bucket.append(s)
        else:
            out.append(_centroid_of(bucket))
            bucket = [s]
    out.append(_centroid_of(bucket))
    return tuple(out)


def _random_input(rng):
    centres = rng.uniform([-3, 0], [3, 3], (int(rng.integers(1, 6)), 2))
    pts = centres[rng.integers(len(centres), size=int(rng.integers(1, 16)))]
    pts = pts + rng.normal(scale=10.0 ** rng.uniform(-14, -7), size=pts.shape)
    return [EigenSphere(re, abs(im)) for re, im in pts]


def _interleaved_input(rng):
    # copies of pure-imaginary spheres with real parts of rounding size,
    # as chi(A) reports them: sorting by real part mixes the copies
    ims = rng.uniform(0.2, 5.0, int(rng.integers(2, 4)))
    ims[0] = 0.0
    picks = ims[rng.integers(len(ims), size=int(rng.integers(3, 12)))]
    return [EigenSphere(float(rng.normal(scale=1e-15)),
                        abs(float(im + rng.normal(scale=1e-15)))) for im in picks]


def _near_threshold_input(rng):
    # neighbours a hair inside or outside the merge radius
    out = []
    for _ in range(int(rng.integers(1, 5))):
        re, im = float(rng.uniform(-2, 2)), float(rng.uniform(0, 2))
        s = EigenSphere(re, im)
        step = SPHERE_MERGE_TOL * (1.0 + max(abs(re), im)) * rng.choice([0.999, 1.001])
        out += [s, EigenSphere(re + step, im), EigenSphere(re, im + step)]
    return out


def _chained_input(rng):
    # neighbours 0.9 merge radii apart, so the ends of a long chain are
    # many radii apart yet still one cluster
    count = int(rng.integers(2, 40))
    re0, im = float(rng.uniform(-1, 1)), float(rng.uniform(0, 1))
    spacing = 0.9 * SPHERE_MERGE_TOL * (1.0 + max(abs(re0), im))
    out = [EigenSphere(re0 + k * spacing, im) for k in range(count)]
    rng.shuffle(out)
    return out


KINDS = {"random": _random_input, "interleaved": _interleaved_input,
         "near-threshold": _near_threshold_input, "chained": _chained_input}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_cluster_spheres_matches_bfs_reference(kind):
    scan_agrees = 0
    for seed in range(150):
        rng = rand.generator(907, seed)
        spheres = KINDS[kind](rng)
        centroids, labels = _labelled(spheres)
        comps = _bfs_clusters(spheres, SPHERE_MERGE_TOL)
        got = {frozenset(np.flatnonzero(labels == c).tolist())
               for c in range(len(centroids))}
        assert got == comps
        want = tuple(sorted((_centroid_of([spheres[i] for i in c]) for c in comps),
                            key=EigenSphere.key))
        assert centroids == want
        assert merge_spheres(spheres) == centroids
        assert merge_spheres(reversed(spheres)) == centroids
        # each scan bucket is a chain of matches, so the scan refines the
        # components and finds the same clusters exactly when it finds as
        # many; then it agrees bit for bit
        scanned = _scan_merge(spheres, SPHERE_MERGE_TOL)
        if len(scanned) == len(comps):
            scan_agrees += 1
            assert scanned == centroids
        if kind == "chained":
            assert len(centroids) == 1
    if kind in ("chained", "near-threshold"):
        assert scan_agrees == 150
    else:
        assert scan_agrees > 0


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_array_clusters_match_the_object_route(kind):
    # the helper that the decomposition calls on its block centres gives the
    # centroids and labels of clustering one EigenSphere per input, bit for bit
    for seed in range(150):
        spheres = KINDS[kind](rand.generator(911, seed))
        re = np.array([s.re for s in spheres])
        im = np.array([s.im for s in spheres])
        centroids, labels = _clusters(re, im, SPHERE_MERGE_TOL)
        want, want_labels = ref.object_clusters(spheres, SPHERE_MERGE_TOL)
        assert [repr(c.key()) for c in centroids] == [repr(c.key()) for c in want]
        assert labels.dtype == want_labels.dtype and np.array_equal(labels, want_labels)
        assert merge_spheres(spheres) == centroids


def test_interleaved_copies_defeat_the_scan():
    spheres = [EigenSphere(-1e-15, 5.0), EigenSphere(0.0, 0.0),
               EigenSphere(1e-15, 5.0), EigenSphere(2e-15, 0.0)]
    assert len(_scan_merge(spheres, SPHERE_MERGE_TOL)) == 4
    centroids, labels = _labelled(spheres)
    assert len(centroids) == 2
    assert labels[0] == labels[2] != labels[1] == labels[3]


def test_chain_collapses_to_one_cluster():
    chain = [EigenSphere(k * 0.9e-8, 0.0) for k in range(200)]
    centroids, labels = _labelled(chain)
    assert len(centroids) == 1 and not labels.any()
    assert len(merge_spheres(chain)) == 1


def test_cluster_spheres_empty():
    centroids, labels = _labelled([])
    assert centroids == () and labels.shape == (0,)
    assert merge_spheres([]) == ()


def _planted(seed):
    """S diag(0, 5i, 0) S^-1 with a random well-conditioned S."""
    rng = rand.generator(913, seed)
    s = rand.rand_invertible(rng, 3)
    d = QMatrix.diag([Quaternion(), Quaternion(0, 5, 0, 0), Quaternion()])
    return s @ d @ inverse_matrix(s)


def test_repeated_imaginary_spheres_over_200_seeds(tmp_path, capsys):
    path = tmp_path / "a.qmat"
    for seed in range(200):
        a = _planted(seed)
        spheres = s_spectrum(a)
        assert len(spheres) == 2, seed
        proj = spectral_projections(a)
        assert len(proj.spheres) == 2, seed
        mult = {round(s.im): m for s, m in zip(proj.spheres, proj.multiplicities)}
        assert mult == {0: 2, 5: 1}, seed
        path.write_text(format_qmat(a))
        assert main(["spectrum", "--op", f"dense:{path}"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 2, (seed, out)


def test_local_subspace_rank_is_cluster_multiplicity():
    a = _planted(0)
    proj = spectral_projections(a)
    assert len(local_subspace(a, [EigenSphere(0, 0)])) == 2
    assert len(local_subspace(a, [EigenSphere(0, 5)])) == 1
    assert len(local_subspace(a, proj.spheres)) == 3
