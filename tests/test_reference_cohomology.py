"""One-elimination cohomology against the trial-loop reference.

`reference_cohomology` keeps the cohomology that picked representatives by
row-reducing the image plus one more kernel vector for each kernel vector.
The production code reads them off one elimination; both must return the
same groups, witnesses included, in every degree.
"""

import random

import reference_cohomology as ref
from walland.traces import cohomology, random_complex


def _doc(group):
    return (
        group.degree,
        group.dim,
        group.ker_dim,
        group.im_dim,
        [f.to_dict() for f in group.reps],
        [f.to_dict() for f in group.cocycles],
        [f.to_dict() for f in group.coboundaries],
    )


def test_cohomology_matches_reference():
    # lengths up to 5, dimensions up to 5, every degree with a nonzero Hom
    # space plus one empty degree on each side; Hom(A, A) and Hom(A, B)
    rng = random.Random(5005)
    for _ in range(12):
        A = random_complex(rng, max_len=5, max_dim=5)
        B = random_complex(rng, max_len=5, max_dim=5)
        for source, target in ((A, A), (A, B)):
            for d in range(-len(source), len(target) + 1):
                assert _doc(cohomology(source, target, d)) == _doc(
                    ref.cohomology(source, target, d)
                ), d
