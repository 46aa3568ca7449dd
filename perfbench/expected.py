"""Expected values with no closed form, pinned from the seed commit's output.

Each pinned value is also checked against the paper's bounds when the
benchmark runs, so a pin can only ever record a value the theory allows.
Changing any entry, like changing a job list, is a benchmark change.
"""

# Maximum size of a maximal brick system for the verify sweeps' shapes of
# dimension 3 and 4 (dimension 1 and 2 have closed forms).
BRICK_MAX = {
    (6, 3, 1): 13, (6, 2, 2): 12, (6, 2, 1): 9, (6, 1, 1): 6,
    (5, 4, 1): 14, (5, 3, 1): 11, (5, 2, 2): 11, (5, 2, 1): 8, (5, 1, 1): 5,
    (4, 4, 1): 11, (4, 3, 2): 13, (4, 3, 1): 9, (4, 2, 2): 8, (4, 2, 1): 6, (4, 1, 1): 4,
    (3, 3, 2): 11, (3, 3, 1): 7, (3, 2, 2): 7, (3, 2, 1): 5, (3, 1, 1): 3,
    (2, 2, 2): 4, (2, 2, 1): 3, (2, 1, 1): 2, (1, 1, 1): 1,
    (6, 3, 1, 1): 13, (6, 2, 2, 1): 12, (6, 2, 1, 1): 9, (6, 1, 1, 1): 6,
    (5, 4, 1, 1): 14, (5, 3, 1, 1): 11, (5, 2, 2, 1): 11, (5, 2, 1, 1): 8, (5, 1, 1, 1): 5,
    (4, 4, 1, 1): 11, (4, 3, 2, 1): 13, (4, 3, 1, 1): 9, (4, 2, 2, 1): 8, (4, 2, 1, 1): 6,
    (4, 1, 1, 1): 4,
    (3, 3, 2, 1): 11, (3, 3, 1, 1): 7, (3, 2, 2, 2): 9, (3, 2, 2, 1): 7, (3, 2, 1, 1): 5,
    (3, 1, 1, 1): 3,
    (2, 2, 2, 2): 5, (2, 2, 2, 1): 4, (2, 2, 1, 1): 3, (2, 1, 1, 1): 2, (1, 1, 1, 1): 1,
}

# Maximum size of a maximal cubic system in the m-cube, keyed (d, m), for the
# front ladder.  Where m + 1 is a power of two these equal the theorem-3
# bound; the others lie strictly below it.
CUBIC_MAX = {
    (1, 1): 1, (1, 2): 2, (1, 3): 3, (1, 4): 4, (1, 5): 5, (1, 6): 6, (1, 7): 7, (1, 8): 8,
    (2, 1): 1, (2, 2): 2, (2, 3): 5, (2, 4): 6, (2, 5): 11, (2, 6): 13,
    (3, 1): 1, (3, 2): 2, (3, 3): 9,
    (4, 1): 1, (4, 2): 2, (4, 3): 17,
}

# Minimum-size maximal systems found by the generator and by the oracle.
CLASSIFICATION_COUNTS = {(4, 3): 368, (3, 2, 2): 200, (2, 2, 2, 2): 384}

# The flat engine's (5, 4) maximum, which is also the 2-D closed form.
FLAT_5x4_MAX = 14
