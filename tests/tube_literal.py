"""The same-tube Hom count by stepping through every image length.

The literal reference for the closed form in `homext._tube_hom_count`: a
nonzero map between two uniserial classes of a rank-`rank` tube has an
image of length t with t = top_x - top_y + len_y mod rank and
1 <= t <= min(len_x, len_y), and each such t gives one map.
"""


def tube_hom_count_literal(top_x, len_x, top_y, len_y, rank):
    need = (top_x - top_y + len_y) % rank
    count = 0
    t = need if need != 0 else rank
    while t <= min(len_x, len_y):
        count += 1
        t += rank
    return count
