"""The one-trajectory APL read the store offered before its records became
rows of an extent table: one counted disk read, decoded from the image.

Production reads a whole round's records at once
(``APLStore.fetch_many``) and never decodes them; the suites read a single
trajectory's posting lists through this to compare them with the
trajectory's own.
"""

import numpy as np

from repro.index.gat.apl import APLStore, PostingLists, posting_lists


def fetch(apl: APLStore, trajectory_id: int) -> PostingLists:
    """Read the posting lists of one trajectory (a counted disk read),
    decoded from its row range of the image.

    Raises
    ------
    KeyError
        If the trajectory was never stored.
    """
    row = apl.db.row_of(trajectory_id)
    apl.disk.get_many("apl", np.array([row]))
    return posting_lists(apl.image, row)
