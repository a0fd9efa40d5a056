"""How lagflag writes an integer: one memo from each small ``int`` to its ``str``.

The hand-written rows of ``basis`` and ``enumerate`` and the text form of a
descriptor (``LF[d](e)_[t]@half_rank``) turn every integer into text through
`text`, the memo's bound ``__getitem__``.  The values repeat: the three
frame-14 bases of the ``basis-emit`` benchmark write 731,585 integers, of
107 distinct values up to 128, and a dict lookup costs less than half of
``str``.  Only a non-negative ``int`` below `CACHED_BELOW` is kept, so the
table stays small whatever is written; any other value is converted each
time.

A bool or a float equal to a kept ``int`` finds its entry (``True == 1``,
``1.0 == 1``), and would be written as that ``int``.  So `text` takes only
integers that passed a type check or that lagflag computed; a message about
a value not yet checked uses ``str``.
"""

CACHED_BELOW = 4096


class _Memo(dict):
    __slots__ = ()

    def __missing__(self, value):
        shown = str(value)
        if type(value) is int and 0 <= value < CACHED_BELOW:  # not a bool or a float
            self[value] = shown
        return shown


text = _Memo().__getitem__
