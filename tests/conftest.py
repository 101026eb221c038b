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
