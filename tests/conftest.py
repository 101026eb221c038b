import hypothesis

from valprec.engine import mask_values

hypothesis.settings.register_profile(
    "suite", deadline=None, max_examples=60, derandomize=True)
hypothesis.settings.load_profile("suite")


def vals(mask):
    """The values of a domain mask, in increasing order."""
    return tuple(mask_values(mask))


def mask_of(*values):
    """The domain mask that holds exactly ``values``."""
    return sum(1 << v for v in set(values))


def domains_of(xs):
    """The domains of variables ``xs``, as sets."""
    return [set(vals(x.mask)) for x in xs]


# The arguments of each ``encode_*`` of ``valprec.precedence``, given a
# model, four variables over 1..3 and two set variables over {1, 2}.
ENCODER_ARGS = {
    "encode_pair_precedence": lambda m, xs, sets: (m, 1, 2, xs),
    "encode_all_precedence": lambda m, xs, sets: (m, [1, 2, 3], xs),
    "encode_partial_precedence": lambda m, xs, sets: (m, [[1, 2], [3]], xs),
    "encode_wreath_precedence": lambda m, xs, sets: (m, [1, 2], [1, 2], xs),
    "encode_matrix_precedence": lambda m, xs, sets: (m, [1, 2, 3], xs),
    "encode_puget_surjection": lambda m, xs, sets: (m, xs, [1, 2, 3]),
    "encode_set_precedence": lambda m, xs, sets: (m, [1, 2], sets),
    "encode_increasing_seq": lambda m, xs, sets: (m, xs, [1, 2, 3]),
    "encode_reflection_lex": lambda m, xs, sets: (m, xs),
    "encode_rotation_lex": lambda m, xs, sets: (m, xs),
}


def encoder_args(name, m):
    """The arguments of encoder ``name`` on new variables of model ``m``."""
    xs = [m.add_fd_var(range(1, 4)) for _ in range(4)]
    sets = [m.add_set_var(set(), {1, 2}) for _ in range(2)]
    return ENCODER_ARGS[name](m, xs, sets)
